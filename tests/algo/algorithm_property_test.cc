// Parameterized cross-algorithm properties: every SimSub solver must return
// a valid range, a distance consistent with re-scoring (when exact), and
// never beat ExactS. Instantiated over (algorithm x measure) combinations.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "algo/exacts.h"
#include "algo/random_s.h"
#include "algo/simtra.h"
#include "algo/sizes.h"
#include "algo/splitting.h"
#include "similarity/measure.h"
#include "similarity/registry.h"
#include "util/random.h"

namespace simsub::algo {
namespace {

using geo::Point;

struct Combo {
  std::string algorithm;
  std::string measure;
};

std::unique_ptr<SubtrajectorySearch> MakeAlgorithm(
    const std::string& name, const similarity::SimilarityMeasure* measure) {
  if (name == "ExactS") return std::make_unique<ExactS>(measure);
  if (name == "SizeS") return std::make_unique<SizeS>(measure, 5);
  if (name == "PSS") return std::make_unique<PssSearch>(measure);
  if (name == "POS") return std::make_unique<PosSearch>(measure);
  if (name == "POS-D") return std::make_unique<PosDSearch>(measure, 5);
  if (name == "Random-S") {
    return std::make_unique<RandomSSearch>(measure, 20, 11);
  }
  if (name == "SimTra") return std::make_unique<SimTraSearch>(measure);
  return nullptr;
}

class AlgorithmPropertyTest : public ::testing::TestWithParam<Combo> {};

std::vector<Point> RandomWalk(util::Rng& rng, int n) {
  std::vector<Point> pts;
  double x = rng.Uniform(-200, 200), y = rng.Uniform(-200, 200);
  for (int i = 0; i < n; ++i) {
    x += rng.Normal(0, 30);
    y += rng.Normal(0, 30);
    pts.emplace_back(x, y, i);
  }
  return pts;
}

TEST_P(AlgorithmPropertyTest, ValidRangeAndNeverBeatsExact) {
  auto measure = similarity::MakeMeasure(GetParam().measure);
  ASSERT_TRUE(measure.ok());
  auto algorithm = MakeAlgorithm(GetParam().algorithm, measure->get());
  ASSERT_NE(algorithm, nullptr);
  ExactS exact(measure->get());
  util::Rng rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    auto data = RandomWalk(rng, 14 + trial);
    auto query = RandomWalk(rng, 4 + trial % 3);
    auto r = algorithm->Search(data, query);
    ASSERT_GE(r.best.start, 0) << GetParam().algorithm;
    ASSERT_LE(r.best.start, r.best.end);
    ASSERT_LT(r.best.end, static_cast<int>(data.size()));
    auto re = exact.Search(data, query);
    if (std::isfinite(r.distance) && std::isfinite(re.distance)) {
      EXPECT_GE(r.distance, re.distance - 1e-9)
          << GetParam().algorithm << "/" << GetParam().measure;
    }
  }
}

TEST_P(AlgorithmPropertyTest, ReportedDistanceMatchesReScoring) {
  auto measure = similarity::MakeMeasure(GetParam().measure);
  ASSERT_TRUE(measure.ok());
  auto algorithm = MakeAlgorithm(GetParam().algorithm, measure->get());
  ASSERT_NE(algorithm, nullptr);
  util::Rng rng(77);
  auto data = RandomWalk(rng, 16);
  auto query = RandomWalk(rng, 5);
  auto r = algorithm->Search(data, query);
  if (!r.distance_exact || !std::isfinite(r.distance)) return;
  std::span<const Point> sub(&data[static_cast<size_t>(r.best.start)],
                             static_cast<size_t>(r.best.size()));
  EXPECT_NEAR(measure->get()->Distance(sub, query), r.distance, 1e-6)
      << GetParam().algorithm << "/" << GetParam().measure;
}

TEST_P(AlgorithmPropertyTest, DeterministicAcrossRepeatedCalls) {
  auto measure = similarity::MakeMeasure(GetParam().measure);
  ASSERT_TRUE(measure.ok());
  auto algorithm = MakeAlgorithm(GetParam().algorithm, measure->get());
  util::Rng rng(99);
  auto data = RandomWalk(rng, 12);
  auto query = RandomWalk(rng, 4);
  auto r1 = algorithm->Search(data, query);
  auto r2 = algorithm->Search(data, query);
  EXPECT_EQ(r1.best, r2.best);
  EXPECT_EQ(r1.distance, r2.distance);
}

void ExpectSameStats(const SearchStats& got, const SearchStats& want) {
  EXPECT_EQ(got.candidates, want.candidates);
  EXPECT_EQ(got.splits, want.splits);
  EXPECT_EQ(got.points_skipped, want.points_skipped);
  EXPECT_EQ(got.extend_calls, want.extend_calls);
  EXPECT_EQ(got.start_calls, want.start_calls);
  EXPECT_EQ(got.abandoned, want.abandoned);
}

TEST_P(AlgorithmPropertyTest, SearchOverloadsAgreeWithThePlainSearch) {
  auto measure = similarity::MakeMeasure(GetParam().measure);
  ASSERT_TRUE(measure.ok());
  auto algorithm = MakeAlgorithm(GetParam().algorithm, measure->get());
  ASSERT_NE(algorithm, nullptr);
  similarity::EvaluatorCache scratch;  // reused across every call below
  util::Rng rng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto data = RandomWalk(rng, 10 + 2 * trial);
    auto query = RandomWalk(rng, 3 + trial % 3);
    const SearchResult plain = algorithm->Search(data, query);
    EXPECT_EQ(plain.stats.abandoned, 0);

    const SearchResult cached = algorithm->Search(data, query, &scratch);
    EXPECT_EQ(cached.best, plain.best);
    EXPECT_EQ(cached.distance, plain.distance);
    EXPECT_EQ(cached.distance_exact, plain.distance_exact);
    ExpectSameStats(cached.stats, plain.stats);

    for (double bailout :
         {std::numeric_limits<double>::infinity(), plain.distance}) {
      const SearchResult bounded =
          algorithm->Search(data, query, &scratch, bailout);
      EXPECT_EQ(bounded.best, plain.best) << "bailout " << bailout;
      EXPECT_EQ(bounded.distance, plain.distance) << "bailout " << bailout;
    }
  }
  // One evaluator serves all 18 scans: the first call allocates it and every
  // later one (PSS's reversed suffix pass included) rebinds it. SimTra scores
  // whole candidates with Distance() and runs no evaluator from the scratch.
  EXPECT_EQ(scratch.alloc_count(), GetParam().algorithm == "SimTra" ? 0 : 1);
}

std::vector<Combo> AllCombos() {
  std::vector<Combo> combos;
  for (const char* algorithm :
       {"ExactS", "SizeS", "PSS", "POS", "POS-D", "Random-S", "SimTra"}) {
    for (const char* measure :
         {"dtw", "frechet", "erp", "edr", "lcss", "hausdorff"}) {
      combos.push_back({algorithm, measure});
    }
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmPropertyTest, ::testing::ValuesIn(AllCombos()),
    [](const ::testing::TestParamInfo<Combo>& info) {
      std::string name = info.param.algorithm + "_" + info.param.measure;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace simsub::algo
