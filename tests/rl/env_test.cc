#include "rl/env.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "algo/exacts.h"
#include "similarity/dtw.h"
#include "testing/count_news.h"
#include "util/random.h"

namespace simsub::rl {
namespace {

using geo::Point;

std::vector<Point> Line(std::initializer_list<double> xs) {
  std::vector<Point> pts;
  for (double x : xs) pts.emplace_back(x, 0.0);
  return pts;
}

similarity::DtwMeasure kDtw;

TEST(SplitEnvTest, StateDimAndActionCount) {
  similarity::EvaluatorCache evaluators;
  SplitEnv plain(&kDtw, EnvOptions{}, evaluators);
  EXPECT_EQ(plain.state_dim(), 3);
  EXPECT_EQ(plain.action_count(), 2);

  EnvOptions skip;
  skip.skip_count = 3;
  SplitEnv with_skip(&kDtw, skip, evaluators);
  EXPECT_EQ(with_skip.action_count(), 5);

  EnvOptions no_suffix;
  no_suffix.use_suffix = false;
  SplitEnv ns(&kDtw, no_suffix, evaluators);
  EXPECT_EQ(ns.state_dim(), 2);
}

// The trainer keeps one env for all episodes, so Reset must start every
// counter from zero: a reused env reports what a fresh one does.
TEST(SplitEnvTest, ResetStartsCountersAfresh) {
  EnvOptions options;
  options.skip_count = 2;
  auto data = Line({0, 1, 2, 3, 4, 5, 6, 7});
  auto query = Line({2, 3, 4});
  auto roll = [&](SplitEnv& env) {
    env.Reset(data, query);
    for (int step = 0; !env.done(); ++step) env.Step(step % env.action_count());
    return std::vector<int64_t>{env.points_scanned(), env.points_skipped(),
                                env.start_calls(), env.extend_calls(),
                                env.splits()};
  };
  similarity::EvaluatorCache reused_evaluators;
  SplitEnv reused(&kDtw, options, reused_evaluators);
  roll(reused);
  similarity::EvaluatorCache fresh_evaluators;
  SplitEnv fresh(&kDtw, options, fresh_evaluators);
  EXPECT_EQ(roll(reused), roll(fresh));
  // The evaluators the reused env keeps across episodes give the fresh env's
  // episode, bit for bit.
  EXPECT_EQ(std::bit_cast<uint64_t>(reused.best_distance()),
            std::bit_cast<uint64_t>(fresh.best_distance()));
  EXPECT_EQ(reused.best_range(), fresh.best_range());
  EXPECT_TRUE(std::ranges::equal(reused.state(), fresh.state()));
}

// A warm Reset reuses the cache's evaluator, its suffix-pass scratch and
// reversed query, and the env's suffix buffer, so on a DTW pair it
// allocates nothing, and neither do an episode's steps.
TEST(SplitEnvTest, WarmResetAllocatesNothing) {
  util::Rng rng(21);
  std::vector<Point> data, query;
  for (int i = 0; i < 60; ++i) data.emplace_back(rng.Uniform(), rng.Uniform());
  for (int i = 0; i < 40; ++i) query.emplace_back(rng.Uniform(), rng.Uniform());
  EnvOptions options;
  options.skip_count = 2;
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, options, evaluators);
  env.Reset(data, query);  // warm-up: sizes the cache's and env's buffers
  g_news = 0;
  g_count_news = true;
  env.Reset(data, query);
  for (int step = 0; !env.done(); ++step) env.Step(step % env.action_count());
  g_count_news = false;
  EXPECT_EQ(g_news.load(), 0);
}

TEST(SplitEnvTest, EpisodeTerminatesAfterAllPoints) {
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, EnvOptions{}, evaluators);
  auto data = Line({0, 1, 2, 3, 4});
  auto query = Line({1, 2});
  env.Reset(data, query);
  int steps = 0;
  while (!env.done()) {
    env.Step(0);
    ++steps;
  }
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(env.points_scanned(), 5);
  EXPECT_EQ(env.points_skipped(), 0);
}

TEST(SplitEnvTest, RewardsTelescopeToBestSimilarity) {
  // Sum of rewards == final Θbest - initial Θbest(=0), paper Section 5.1.
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, EnvOptions{}, evaluators);
  auto data = Line({0, 5, 1, 3, 2});
  auto query = Line({1, 2});
  util::Rng rng(3);
  env.Reset(data, query);
  double total = 0.0;
  while (!env.done()) {
    total += env.Step(static_cast<int>(rng.UniformInt(0, 1)));
  }
  EXPECT_NEAR(total, env.best_similarity(), 1e-12);
  EXPECT_GT(env.best_similarity(), 0.0);
}

TEST(SplitEnvTest, AlwaysSplitMatchesGreedyCandidates) {
  // Splitting at every point makes every single point and every suffix a
  // candidate; the best must be at least as good as the best single point.
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, EnvOptions{}, evaluators);
  auto data = Line({0, 5, 1, 3, 2});
  auto query = Line({1, 1});
  env.Reset(data, query);
  while (!env.done()) env.Step(1);
  EXPECT_EQ(env.splits(), 5);
  // Best single-point candidate: x=1 at index 2, DTW = |1-1| + |1-1| = 0.
  EXPECT_NEAR(env.best_distance(), 0.0, 1e-12);
  EXPECT_EQ(env.best_range(), geo::SubRange(2, 2));
}

TEST(SplitEnvTest, NeverSplitConsidersWholePrefixesAndSuffixes) {
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, EnvOptions{}, evaluators);
  auto data = Line({9, 9, 1, 2});
  auto query = Line({1, 2});
  env.Reset(data, query);
  while (!env.done()) env.Step(0);
  // Suffix T[2..3] = (1, 2) matches the query exactly.
  EXPECT_NEAR(env.best_distance(), 0.0, 1e-12);
  EXPECT_EQ(env.best_range(), geo::SubRange(2, 3));
  EXPECT_EQ(env.splits(), 0);
}

TEST(SplitEnvTest, SkipActionSkipsStateMaintenance) {
  EnvOptions options;
  options.skip_count = 2;
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, options, evaluators);
  auto data = Line({0, 1, 2, 3, 4, 5});
  auto query = Line({1, 2});
  env.Reset(data, query);
  // Skip 2 points from p0: lands on p3.
  env.Step(3);
  EXPECT_EQ(env.points_skipped(), 2);
  EXPECT_FALSE(env.done());
  // Scanned: p0, p3 so far.
  EXPECT_EQ(env.points_scanned(), 2);
}

TEST(SplitEnvTest, SkipBeyondEndTerminates) {
  EnvOptions options;
  options.skip_count = 3;
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, options, evaluators);
  auto data = Line({0, 1, 2});
  auto query = Line({1});
  env.Reset(data, query);
  env.Step(3);  // skip 2 -> land at index 3 == n -> done
  EXPECT_TRUE(env.done());
  EXPECT_EQ(env.points_skipped(), 2);
}

TEST(SplitEnvTest, SkippedPrefixCandidateIsMarkedApproximate) {
  EnvOptions options;
  options.skip_count = 1;
  options.use_suffix = false;
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, options, evaluators);
  // Data chosen so the winning candidate spans a skipped point.
  auto data = Line({1, 100, 2, 100});
  auto query = Line({1, 2});
  env.Reset(data, query);
  env.Step(2);  // at p0: skip p1, land on p2. Prefix simplification: <p0,p2>
  env.Step(0);  // at p2: no-split; candidate prefix T[0..2] approx dist 0
  while (!env.done()) env.Step(0);
  EXPECT_EQ(env.best_range(), geo::SubRange(0, 2));
  EXPECT_FALSE(env.best_distance_exact());
  // Simplified prefix <1, 2> has DTW 0 to query (1, 2); the true T[0..2]
  // distance would include the 100 outlier.
  EXPECT_NEAR(env.best_distance(), 0.0, 1e-12);
}

TEST(SplitEnvTest, StateComponentsAreSimilarities) {
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, EnvOptions{}, evaluators);
  auto data = Line({0, 1, 2, 3});
  auto query = Line({1, 2});
  env.Reset(data, query);
  while (!env.done()) {
    const auto& s = env.state();
    ASSERT_EQ(s.size(), 3u);
    for (double v : s) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    EXPECT_EQ(s[0], env.best_similarity());
    env.Step(0);
  }
}

TEST(SplitEnvTest, BestAtLeastAsGoodAsAnyScannedCandidate) {
  // Against ExactS: env best distance is >= exact optimum but must equal
  // the best of the candidates it actually saw. Verify weaker invariant:
  // best_distance <= distance of the whole trajectory (always a suffix
  // candidate at t=0).
  similarity::EvaluatorCache evaluators;
  SplitEnv env(&kDtw, EnvOptions{}, evaluators);
  util::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> data, query;
    double x = 0;
    for (int i = 0; i < 12; ++i) {
      x += rng.Normal(0, 2);
      data.emplace_back(x, 0.0);
    }
    x = 0;
    for (int i = 0; i < 4; ++i) {
      x += rng.Normal(0, 2);
      query.emplace_back(x, 0.0);
    }
    env.Reset(data, query);
    while (!env.done()) env.Step(static_cast<int>(rng.UniformInt(0, 1)));
    double whole = kDtw.Distance(data, query);
    EXPECT_LE(env.best_distance(), whole + 1e-9);
    // And never better than the exact optimum.
    algo::ExactS exact(&kDtw);
    auto best = exact.Search(data, query);
    EXPECT_GE(env.best_distance(), best.distance - 1e-9);
  }
}

}  // namespace
}  // namespace simsub::rl
