#include "t2vec/t2vec_measure.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace simsub::t2vec {
namespace {

struct Fixture {
  std::shared_ptr<const Grid> grid;
  std::shared_ptr<const TrajectoryEncoder> encoder;
  std::unique_ptr<T2VecMeasure> measure;

  Fixture() {
    geo::Mbr extent;
    extent.Extend(geo::Point(-1000, -1000));
    extent.Extend(geo::Point(1000, 1000));
    grid = std::make_shared<Grid>(extent, 20, 20);
    util::Rng rng(11);
    encoder = std::make_shared<TrajectoryEncoder>(grid->vocab_size(), 4, 8,
                                                  rng);
    measure = std::make_unique<T2VecMeasure>(encoder, grid);
  }
};

std::vector<geo::Point> Walk(util::Rng& rng, int n) {
  std::vector<geo::Point> pts;
  double x = rng.Uniform(-800, 800), y = rng.Uniform(-800, 800);
  for (int i = 0; i < n; ++i) {
    x += rng.Normal(0, 40);
    y += rng.Normal(0, 40);
    pts.emplace_back(x, y, i);
  }
  return pts;
}

TEST(T2VecMeasureTest, SelfDistanceZero) {
  Fixture f;
  util::Rng rng(1);
  auto t = Walk(rng, 10);
  EXPECT_NEAR(f.measure->Distance(t, t), 0.0, 1e-12);
}

TEST(T2VecMeasureTest, EvaluatorMatchesBatchEncoding) {
  // The O(1) incremental hidden-state update must equal whole-sequence
  // encoding — this is the Phi_inc = O(1) property of paper Table 1.
  Fixture f;
  util::Rng rng(2);
  auto data = Walk(rng, 12);
  auto query = Walk(rng, 6);
  auto eval = f.measure->NewEvaluator(query);
  for (size_t i = 0; i < data.size(); ++i) {
    double d = eval->Start(data[i]);
    std::span<const geo::Point> sub(&data[i], 1);
    EXPECT_NEAR(d, f.measure->Distance(sub, query), 1e-9);
    for (size_t j = i + 1; j < data.size(); ++j) {
      d = eval->Extend(data[j]);
      std::span<const geo::Point> sub2(&data[i], j - i + 1);
      EXPECT_NEAR(d, f.measure->Distance(sub2, query), 1e-9)
          << "prefix [" << i << "," << j << "]";
    }
  }
}

TEST(T2VecMeasureTest, ReversalFlagIsFalse) {
  Fixture f;
  EXPECT_FALSE(f.measure->ReversalPreservesDistance());
  EXPECT_EQ(f.measure->name(), "t2vec");
}

TEST(T2VecMeasureTest, SuffixDistancesAreFinite) {
  Fixture f;
  util::Rng rng(3);
  auto data = Walk(rng, 10);
  auto query = Walk(rng, 5);
  similarity::EvaluatorCache cache;
  std::vector<double> suffix;
  similarity::ComputeSuffixDistances(*f.measure, data, query, cache, suffix);
  ASSERT_EQ(suffix.size(), data.size());
  for (double d : suffix) {
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_GE(d, 0.0);
  }
}

TEST(T2VecMeasureTest, DistanceSymmetric) {
  Fixture f;
  util::Rng rng(4);
  auto a = Walk(rng, 8);
  auto b = Walk(rng, 9);
  EXPECT_NEAR(f.measure->Distance(a, b), f.measure->Distance(b, a), 1e-12);
}

}  // namespace
}  // namespace simsub::t2vec
