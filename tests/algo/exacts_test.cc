#include "algo/exacts.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "similarity/dtw.h"
#include "similarity/frechet.h"
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

TEST(ExactSTest, FindsEmbeddedExactMatch) {
  ExactS exact(&kDtw);
  auto data = Line({9, 9, 1, 2, 3, 9, 9});
  auto query = Line({1, 2, 3});
  auto r = exact.Search(data, query);
  EXPECT_EQ(r.best, geo::SubRange(2, 4));
  EXPECT_DOUBLE_EQ(r.distance, 0.0);
}

TEST(ExactSTest, SinglePointData) {
  ExactS exact(&kDtw);
  auto data = Line({5});
  auto query = Line({1, 2});
  auto r = exact.Search(data, query);
  EXPECT_EQ(r.best, geo::SubRange(0, 0));
  EXPECT_DOUBLE_EQ(r.distance, 4.0 + 3.0);
}

TEST(ExactSTest, CandidateCountIsTriangular) {
  ExactS exact(&kDtw);
  auto data = Line({0, 1, 2, 3, 4});
  auto query = Line({2});
  auto r = exact.Search(data, query);
  EXPECT_EQ(r.stats.candidates, 15);
  EXPECT_EQ(r.stats.start_calls, 5);
  EXPECT_EQ(r.stats.extend_calls, 10);
}

TEST(ExactSTest, MatchesBruteForceOnRandomInput) {
  util::Rng rng(42);
  ExactS exact(&kDtw);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Point> data, query;
    for (int i = 0; i < 10; ++i) {
      data.emplace_back(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    }
    for (int i = 0; i < 4; ++i) {
      query.emplace_back(rng.Uniform(-10, 10), rng.Uniform(-10, 10));
    }
    auto r = exact.Search(data, query);
    // Brute force over all ranges with from-scratch distances.
    double best = std::numeric_limits<double>::infinity();
    geo::SubRange best_range;
    for (size_t i = 0; i < data.size(); ++i) {
      for (size_t j = i; j < data.size(); ++j) {
        std::span<const Point> sub(&data[i], j - i + 1);
        double d = similarity::DtwDistance(sub, query);
        if (d < best) {
          best = d;
          best_range = geo::SubRange(static_cast<int>(i), static_cast<int>(j));
        }
      }
    }
    EXPECT_NEAR(r.distance, best, 1e-9);
    EXPECT_EQ(r.best, best_range);
  }
}

TEST(ExactSTest, WorksWithFrechet) {
  similarity::FrechetMeasure frechet;
  ExactS exact(&frechet);
  auto data = Line({9, 0, 1, 2, 9});
  auto query = Line({0.5, 1.5});
  auto r = exact.Search(data, query);
  // Best subtrajectory under Frechet: (1, 2) has bottleneck 0.5.
  EXPECT_NEAR(r.distance, 0.5, 1e-9);
}

TEST(ExactSTest, NameIsStable) {
  ExactS exact(&kDtw);
  EXPECT_EQ(exact.name(), "ExactS");
}

}  // namespace
}  // namespace simsub::algo
