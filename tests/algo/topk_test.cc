// The subtrajectory-level top-k within one data trajectory (paper Section
// 3.1: "simply maintaining the k most similar subtrajectories"), run
// through engine::SimSubEngine::QueryTopKSubtrajectories on a one-trajectory
// engine.
#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <span>
#include <vector>

#include "algo/exacts.h"
#include "engine/engine.h"
#include "similarity/dtw.h"
#include "util/random.h"

namespace simsub::algo {
namespace {

using geo::Point;

std::vector<Point> Line(std::initializer_list<double> xs) {
  std::vector<Point> pts;
  for (double x : xs) pts.emplace_back(x, 0.0);
  return pts;
}

similarity::DtwMeasure kDtw;

// The k best subtrajectories of `data` (min_size points or more), ascending.
std::vector<engine::TopKEntry> TopKExact(std::span<const Point> data,
                                         std::span<const Point> query, int k,
                                         int min_size = 1) {
  engine::SimSubEngine engine(
      {geo::Trajectory(std::vector<Point>(data.begin(), data.end()))});
  engine::QueryOptions options;
  options.k = k;
  return engine.QueryTopKSubtrajectories(query, kDtw, min_size, options)
      .results;
}

TEST(TopKExactTest, Top1MatchesExactS) {
  util::Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Point> data, query;
    for (int i = 0; i < 12; ++i) {
      data.emplace_back(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    }
    for (int i = 0; i < 4; ++i) {
      query.emplace_back(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    }
    auto top = TopKExact(data, query, 1);
    ASSERT_EQ(top.size(), 1u);
    ExactS exact(&kDtw);
    auto r = exact.Search(data, query);
    EXPECT_DOUBLE_EQ(top[0].distance, r.distance);
    EXPECT_EQ(top[0].range, r.best);
  }
}

TEST(TopKExactTest, ResultsAreDistinctAndSorted) {
  auto data = Line({3, 1, 4, 1, 5, 9, 2, 6});
  auto query = Line({1, 5});
  auto top = TopKExact(data, query, 10);
  ASSERT_EQ(top.size(), 10u);
  std::set<std::pair<int, int>> ranges;
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(ranges.emplace(top[i].range.start, top[i].range.end).second);
    if (i > 0) {
      EXPECT_GE(top[i].distance, top[i - 1].distance);
    }
  }
}

TEST(TopKExactTest, KLargerThanCandidateCount) {
  auto data = Line({1, 2});
  auto query = Line({1});
  // A wire-supplied k may be huge: storage grows with the candidates
  // offered, not with k.
  for (int k : {100, std::numeric_limits<int>::max()}) {
    auto top = TopKExact(data, query, k);
    EXPECT_EQ(top.size(), 3u) << "k=" << k;  // (0,0), (1,1), (0,1)
  }
}

TEST(TopKExactTest, MinSizeFiltersShortCandidates) {
  auto data = Line({1, 2, 3, 4, 5});
  auto query = Line({1, 2});
  auto top = TopKExact(data, query, 100, /*min_size=*/3);
  for (const auto& cand : top) {
    EXPECT_GE(cand.range.size(), 3);
  }
  // Candidates of sizes 3..5: 3 + 2 + 1 = 6.
  EXPECT_EQ(top.size(), 6u);
}

TEST(TopKExactTest, DistancesMatchReScoring) {
  util::Rng rng(9);
  std::vector<Point> data, query;
  for (int i = 0; i < 10; ++i) {
    data.emplace_back(rng.Uniform(-5, 5), rng.Uniform(-5, 5));
  }
  for (int i = 0; i < 3; ++i) {
    query.emplace_back(rng.Uniform(-5, 5), rng.Uniform(-5, 5));
  }
  for (const auto& cand : TopKExact(data, query, 5)) {
    std::span<const Point> sub(&data[static_cast<size_t>(cand.range.start)],
                               static_cast<size_t>(cand.range.size()));
    EXPECT_NEAR(cand.distance, similarity::DtwDistance(sub, query), 1e-9);
  }
}

}  // namespace
}  // namespace simsub::algo
