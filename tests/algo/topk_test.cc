#include "algo/topk.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "algo/exacts.h"
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

TEST(TopKCollectorTest, KeepsSmallestK) {
  TopKCollector collector(3);
  for (int i = 10; i >= 1; --i) {
    collector.Offer(geo::SubRange(i, i), static_cast<double>(i));
  }
  auto sorted = collector.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].distance, 1.0);
  EXPECT_DOUBLE_EQ(sorted[1].distance, 2.0);
  EXPECT_DOUBLE_EQ(sorted[2].distance, 3.0);
  EXPECT_DOUBLE_EQ(collector.worst(), 3.0);
}

TEST(TopKCollectorTest, WorstIsInfiniteUntilFull) {
  TopKCollector collector(2);
  EXPECT_TRUE(std::isinf(collector.worst()));
  collector.Offer(geo::SubRange(0, 0), 5.0);
  EXPECT_TRUE(std::isinf(collector.worst()));
  collector.Offer(geo::SubRange(1, 1), 7.0);
  EXPECT_DOUBLE_EQ(collector.worst(), 7.0);
}

TEST(TopKCollectorTest, FewerCandidatesThanK) {
  TopKCollector collector(10);
  collector.Offer(geo::SubRange(0, 1), 2.0);
  collector.Offer(geo::SubRange(1, 2), 1.0);
  auto sorted = collector.Sorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_DOUBLE_EQ(sorted[0].distance, 1.0);
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
    auto top = TopKExact(kDtw, data, query, 1);
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
  auto top = TopKExact(kDtw, data, query, 10);
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
    auto top = TopKExact(kDtw, data, query, k);
    EXPECT_EQ(top.size(), 3u) << "k=" << k;  // (0,0), (1,1), (0,1)
  }
}

TEST(TopKExactTest, MinSizeFiltersShortCandidates) {
  auto data = Line({1, 2, 3, 4, 5});
  auto query = Line({1, 2});
  auto top = TopKExact(kDtw, data, query, 100, /*min_size=*/3);
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
  for (const auto& cand : TopKExact(kDtw, data, query, 5)) {
    std::span<const Point> sub(&data[static_cast<size_t>(cand.range.start)],
                               static_cast<size_t>(cand.range.size()));
    EXPECT_NEAR(cand.distance, similarity::DtwDistance(sub, query), 1e-9);
  }
}

}  // namespace
}  // namespace simsub::algo
