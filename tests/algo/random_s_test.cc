#include "algo/random_s.h"

#include <gtest/gtest.h>

#include "algo/exacts.h"
#include "similarity/dtw.h"

namespace simsub::algo {
namespace {

using geo::Point;

std::vector<Point> Line(std::initializer_list<double> xs) {
  std::vector<Point> pts;
  for (double x : xs) pts.emplace_back(x, 0.0);
  return pts;
}

similarity::DtwMeasure kDtw;

TEST(RandomSTest, SamplesExactlyRequestedCount) {
  RandomSSearch rs(&kDtw, /*sample_size=*/25, /*seed=*/1);
  auto data = Line({0, 1, 2, 3, 4, 5, 6, 7});
  auto query = Line({2, 3});
  auto r = rs.Search(data, query);
  EXPECT_EQ(r.stats.candidates, 25);
  EXPECT_TRUE(std::isfinite(r.distance));
}

TEST(RandomSTest, ValidRangeAlways) {
  RandomSSearch rs(&kDtw, 10, 2);
  auto data = Line({5, 1, 4});
  auto query = Line({1});
  for (int trial = 0; trial < 20; ++trial) {
    auto r = rs.Search(data, query);
    EXPECT_GE(r.best.start, 0);
    EXPECT_LE(r.best.start, r.best.end);
    EXPECT_LT(r.best.end, 3);
  }
}

TEST(RandomSTest, ExhaustiveSamplingApproachesExact) {
  // With a sample budget far exceeding the candidate count, Random-S almost
  // surely hits the optimum.
  auto data = Line({9, 9, 1, 2, 9});
  auto query = Line({1, 2});
  ExactS exact(&kDtw);
  RandomSSearch rs(&kDtw, 500, 3);
  auto re = exact.Search(data, query);
  auto rr = rs.Search(data, query);
  EXPECT_NEAR(rr.distance, re.distance, 1e-9);
}

TEST(RandomSTest, NeverBetterThanExact) {
  RandomSSearch rs(&kDtw, 5, 4);
  ExactS exact(&kDtw);
  auto data = Line({3, 1, 4, 1, 5, 9, 2, 6});
  auto query = Line({1, 5});
  for (int trial = 0; trial < 10; ++trial) {
    EXPECT_GE(rs.Search(data, query).distance,
              exact.Search(data, query).distance - 1e-9);
  }
}

TEST(RandomSTest, LargerSampleNeverHurtsOnAverage) {
  auto data = Line({9, 3, 1, 2, 8, 0, 7, 5, 6, 4});
  auto query = Line({1, 2});
  double mean_small = 0.0, mean_large = 0.0;
  const int reps = 30;
  RandomSSearch small(&kDtw, 3, 5);
  RandomSSearch large(&kDtw, 30, 6);
  for (int i = 0; i < reps; ++i) {
    mean_small += small.Search(data, query).distance;
    mean_large += large.Search(data, query).distance;
  }
  EXPECT_LE(mean_large, mean_small + 1e-9);
}

TEST(RandomSTest, RepeatedSearchesAgree) {
  // A search is a pure function of (data, query): every call replays the
  // seed's stream instead of advancing a shared one.
  RandomSSearch rs(&kDtw, /*sample_size=*/25, /*seed=*/1);
  const std::vector<Point> datas[] = {
      Line({3, 1, 4, 1, 5, 9, 2, 6}),
      Line({9, 3, 1, 2, 8, 0, 7, 5, 6, 4}),
      Line({2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5})};
  const std::vector<Point> queries[] = {Line({1, 5}), Line({1, 2, 8}),
                                        Line({8})};
  for (const auto& data : datas) {
    for (const auto& query : queries) {
      const SearchResult a = rs.Search(data, query);
      const SearchResult b = rs.Search(data, query);
      EXPECT_EQ(a.best.start, b.best.start);
      EXPECT_EQ(a.best.end, b.best.end);
      EXPECT_EQ(a.distance, b.distance);
      EXPECT_EQ(a.stats.candidates, b.stats.candidates);
      EXPECT_EQ(a.stats.start_calls, b.stats.start_calls);
      EXPECT_EQ(a.stats.extend_calls, b.stats.extend_calls);
    }
  }
}

TEST(RandomSTest, Name) {
  RandomSSearch rs(&kDtw, 10, 7);
  EXPECT_EQ(rs.name(), "Random-S");
  EXPECT_EQ(rs.sample_size(), 10);
}

}  // namespace
}  // namespace simsub::algo
