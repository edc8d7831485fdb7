#include "similarity/dtw.h"

#include <gtest/gtest.h>

#include <limits>

namespace simsub::similarity {
namespace {

using geo::Point;

std::vector<Point> Line(std::initializer_list<double> xs) {
  std::vector<Point> pts;
  for (double x : xs) pts.emplace_back(x, 0.0);
  return pts;
}

TEST(DtwTest, IdenticalTrajectoriesHaveZeroDistance) {
  auto a = Line({0, 1, 2, 3});
  EXPECT_DOUBLE_EQ(DtwDistance(a, a), 0.0);
}

TEST(DtwTest, SinglePointPair) {
  auto a = Line({0});
  auto b = Line({3});
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), 3.0);
}

TEST(DtwTest, SinglePointAgainstSequenceSums) {
  // Equation 1 base case: every q aligns with the one point.
  auto a = Line({0});
  auto b = Line({1, 2, 3});
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), 1.0 + 2.0 + 3.0);
}

TEST(DtwTest, KnownSmallInstance) {
  // T = (0),(2) vs Q = (1): both T points align to q -> 1 + 1.
  auto a = Line({0, 2});
  auto b = Line({1});
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), 2.0);
}

TEST(DtwTest, TimeShiftToleranceBeatsLockstep) {
  // DTW absorbs a local time shift that lockstep alignment cannot.
  auto a = Line({0, 1, 1, 2, 3});
  auto b = Line({0, 1, 2, 3, 3});
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), 0.0);
}

TEST(DtwTest, SymmetricArguments) {
  auto a = Line({0, 1, 5, 2});
  auto b = Line({1, 1, 3});
  EXPECT_DOUBLE_EQ(DtwDistance(a, b), DtwDistance(b, a));
}

TEST(DtwTest, MeasureDistanceMatchesFreeFunction) {
  DtwMeasure measure;
  auto a = Line({0, 4, 2, 7});
  auto b = Line({1, 3, 3});
  EXPECT_DOUBLE_EQ(measure.Distance(a, b), DtwDistance(a, b));
  EXPECT_EQ(measure.name(), "dtw");
}

TEST(DtwTest, EvaluatorMatchesBatchForAllPrefixes) {
  DtwMeasure measure;
  auto data = Line({0, 3, 1, 4, 1, 5});
  auto query = Line({1, 2, 2});
  auto eval = measure.NewEvaluator(query);
  for (size_t i = 0; i < data.size(); ++i) {
    double d = eval->Start(data[i]);
    std::span<const Point> sub(&data[i], 1);
    EXPECT_NEAR(d, DtwDistance(sub, query), 1e-9);
    for (size_t j = i + 1; j < data.size(); ++j) {
      d = eval->Extend(data[j]);
      std::span<const Point> sub2(&data[i], j - i + 1);
      EXPECT_NEAR(d, DtwDistance(sub2, query), 1e-9)
          << "prefix [" << i << "," << j << "]";
    }
  }
}

TEST(DtwTest, EvaluatorLengthTracksPoints) {
  DtwMeasure measure;
  auto query = Line({0, 1});
  auto eval = measure.NewEvaluator(query);
  EXPECT_EQ(eval->Length(), 0);
  eval->Start(Point(0, 0));
  EXPECT_EQ(eval->Length(), 1);
  eval->Extend(Point(1, 0));
  EXPECT_EQ(eval->Length(), 2);
  eval->Start(Point(2, 0));
  EXPECT_EQ(eval->Length(), 1) << "Start() resets the subtrajectory";
}

TEST(BandedDtwTest, FullBandEqualsUnconstrained) {
  auto a = Line({0, 2, 4, 1});
  auto b = Line({1, 3, 2});
  EXPECT_DOUBLE_EQ(BandedDtwDistance(a, b, 10), DtwDistance(a, b));
}

TEST(BandedDtwTest, ZeroBandIsDiagonalAlignment) {
  auto a = Line({0, 2, 4});
  auto b = Line({1, 1, 1});
  // Only (i, i) cells allowed: |0-1| + |2-1| + |4-1| = 5.
  EXPECT_DOUBLE_EQ(BandedDtwDistance(a, b, 0), 5.0);
}

TEST(BandedDtwTest, UnreachableBandIsInfinite) {
  auto a = Line({0});
  auto b = Line({0, 0, 0, 0, 0});
  // With band 0 the single data point cannot reach query column 4.
  EXPECT_TRUE(std::isinf(BandedDtwDistance(a, b, 0)));
}

TEST(BandedDtwTest, TighterBandNeverSmaller) {
  auto a = Line({0, 5, 1, 6, 2});
  auto b = Line({1, 2, 3, 4});
  double unconstrained = DtwDistance(a, b);
  for (int band = 0; band <= 4; ++band) {
    double d = BandedDtwDistance(a, b, band);
    EXPECT_GE(d, unconstrained - 1e-12) << "band=" << band;
    if (band < 4) {
      EXPECT_GE(d, BandedDtwDistance(a, b, band + 1) - 1e-12);
    }
  }
}

}  // namespace
}  // namespace simsub::similarity
