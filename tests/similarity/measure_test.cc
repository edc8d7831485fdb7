#include "similarity/measure.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "similarity/dtw.h"
#include "similarity/frechet.h"
#include "similarity/registry.h"
#include "util/random.h"

namespace simsub::similarity {
namespace {

using geo::Point;

std::vector<Point> Line(std::initializer_list<double> xs) {
  std::vector<Point> pts;
  for (double x : xs) pts.emplace_back(x, 0.0);
  return pts;
}

TEST(TransformTest, OneOverOnePlusBounded) {
  EXPECT_DOUBLE_EQ(ToSimilarity(0.0), 1.0);
  EXPECT_DOUBLE_EQ(ToSimilarity(1.0), 0.5);
  EXPECT_GT(ToSimilarity(1e9), 0.0);
  EXPECT_LT(ToSimilarity(1e9), 1e-8);
}

TEST(TransformTest, ReciprocalMatchesPaperExample) {
  // Paper Table 3/4 use 1/DTW: distance 3 -> similarity 1/3 = 0.333.
  EXPECT_NEAR(ToSimilarity(3.0, SimilarityTransform::kReciprocal), 0.333, 1e-3);
}

TEST(TransformTest, ReciprocalGuardsZero) {
  double s = ToSimilarity(0.0, SimilarityTransform::kReciprocal);
  EXPECT_TRUE(std::isfinite(s));
  EXPECT_GT(s, 1e6);
}

TEST(TransformTest, BothStrictlyDecreasing) {
  for (auto tf : {SimilarityTransform::kOneOverOnePlus,
                  SimilarityTransform::kReciprocal}) {
    double prev = ToSimilarity(0.001, tf);
    for (double d : {0.01, 0.1, 1.0, 10.0, 100.0}) {
      double s = ToSimilarity(d, tf);
      EXPECT_LT(s, prev);
      prev = s;
    }
  }
}

TEST(SuffixDistanceTest, MatchesDirectReversedComputation) {
  DtwMeasure dtw;
  auto data = Line({0, 3, 1, 4, 2});
  auto query = Line({1, 2});
  EvaluatorCache cache;
  std::vector<double> suffix;
  ComputeSuffixDistances(dtw, data, query, cache, suffix);
  ASSERT_EQ(suffix.size(), data.size());
  std::vector<Point> rq = geo::ReversePoints(query);
  for (size_t i = 0; i < data.size(); ++i) {
    std::vector<Point> rsub(data.rbegin(),
                            data.rbegin() + static_cast<long>(data.size() - i));
    EXPECT_NEAR(suffix[i], DtwDistance(rsub, rq), 1e-9) << "suffix at " << i;
  }
}

TEST(SuffixDistanceTest, DtwSuffixEqualsForwardDistance) {
  // For DTW, dist(T[i,n]^R, Tq^R) == dist(T[i,n], Tq) (paper Section 4.3).
  DtwMeasure dtw;
  auto data = Line({5, 1, 4, 2, 8, 3});
  auto query = Line({2, 6, 1});
  EvaluatorCache cache;
  std::vector<double> suffix;
  ComputeSuffixDistances(dtw, data, query, cache, suffix);
  for (size_t i = 0; i < data.size(); ++i) {
    std::span<const Point> sub(&data[i], data.size() - i);
    EXPECT_NEAR(suffix[i], DtwDistance(sub, query), 1e-9);
  }
}

TEST(SuffixDistanceTest, FrechetSuffixEqualsForwardDistance) {
  FrechetMeasure frechet;
  auto data = Line({5, 1, 4, 2, 8, 3});
  auto query = Line({2, 6, 1});
  EvaluatorCache cache;
  std::vector<double> suffix;
  ComputeSuffixDistances(frechet, data, query, cache, suffix);
  for (size_t i = 0; i < data.size(); ++i) {
    std::span<const Point> sub(&data[i], data.size() - i);
    EXPECT_NEAR(suffix[i], FrechetDistance(sub, query), 1e-9);
  }
}

std::vector<Point> RandomPoints(util::Rng& rng, int n) {
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.emplace_back(rng.Uniform(-50.0, 50.0), rng.Uniform(-50.0, 50.0));
  }
  return pts;
}

// BackwardPass stands for the Start/Extend chain, bit for bit, for every
// builtin measure: DTW's override (several DP rows per SIMD vector) and the
// default loop alike. The evaluator has run another chain first, and Start()
// works as usual after the pass.
TEST(SuffixDistanceTest, BackwardPassMatchesStartExtendChain) {
  util::Rng rng(31);
  for (const std::string& name : BuiltinMeasureNames()) {
    auto measure = MakeMeasure(name);
    ASSERT_TRUE(measure.ok()) << name;
    for (int n : {1, 2, 7, 9, 17, 40}) {
      for (int m : {1, 3, 8, 17}) {
        std::vector<Point> data = RandomPoints(rng, n);
        std::vector<Point> query = RandomPoints(rng, m);
        auto chain = (*measure)->NewEvaluator(query);
        std::vector<double> want(static_cast<size_t>(n));
        want.back() = chain->Start(data.back());
        for (size_t k = data.size() - 1; k-- > 0;) {
          want[k] = chain->Extend(data[k]);
        }
        auto eval = (*measure)->NewEvaluator(query);
        eval->Start(data[0]);
        eval->Extend(data.back());
        std::vector<double> got(static_cast<size_t>(n));
        eval->BackwardPass(data, got);
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << name << " n=" << n << " m=" << m;
        EXPECT_EQ(eval->Start(data[0]), chain->Start(data[0]))
            << name << " n=" << n << " m=" << m;
        EXPECT_EQ(eval->Length(), 1) << name;
      }
    }
  }
}

// A reused suffix buffer is resized to each trajectory: longer, shorter.
TEST(SuffixDistanceTest, ReusedBufferTakesEachTrajectorysLength) {
  DtwMeasure dtw;
  util::Rng rng(32);
  std::vector<Point> query = RandomPoints(rng, 6);
  EvaluatorCache cache;
  std::vector<double> suffix;
  for (int n : {30, 4, 11}) {
    std::vector<Point> data = RandomPoints(rng, n);
    ComputeSuffixDistances(dtw, data, query, cache, suffix);
    ASSERT_EQ(suffix.size(), data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      std::span<const Point> sub(&data[i], data.size() - i);
      EXPECT_NEAR(suffix[i], DtwDistance(sub, query), 1e-9) << "n=" << n;
    }
  }
}

TEST(RegistryTest, BuildsAllBuiltinMeasures) {
  for (const std::string& name : BuiltinMeasureNames()) {
    auto m = MakeMeasure(name);
    ASSERT_TRUE(m.ok()) << name;
    EXPECT_EQ((*m)->name(), name);
  }
}

TEST(RegistryTest, RejectsUnknownName) {
  auto m = MakeMeasure("nope");
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(RegistryTest, HostileOptionValuesAreTypedRejections) {
  // MeasureOptions arrives untrusted over the wire; a value that would
  // trip a constructor SIMSUB_CHECK must be refused with InvalidArgument
  // before construction (an abort here is a remote kill switch).
  for (double bad : {0.0, -1.0, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    MeasureOptions options;
    options.cdtw_band_fraction = bad;
    EXPECT_EQ(MakeMeasure("cdtw", options).status().code(),
              util::StatusCode::kInvalidArgument)
        << "cdtw_band_fraction " << bad;
  }
  for (double bad : {-1.0, std::nan(""),
                     std::numeric_limits<double>::infinity()}) {
    MeasureOptions options;
    options.edr_eps = bad;
    EXPECT_EQ(MakeMeasure("edr", options).status().code(),
              util::StatusCode::kInvalidArgument)
        << "edr_eps " << bad;
    MeasureOptions lcss_options;
    lcss_options.lcss_eps = bad;
    EXPECT_EQ(MakeMeasure("lcss", lcss_options).status().code(),
              util::StatusCode::kInvalidArgument)
        << "lcss_eps " << bad;
  }
  MeasureOptions nan_gap;
  nan_gap.erp_gap = Point(std::nan(""), 0.0);
  EXPECT_EQ(MakeMeasure("erp", nan_gap).status().code(),
            util::StatusCode::kInvalidArgument);
  // Option-free measures ignore hostile option values entirely.
  MeasureOptions all_bad;
  all_bad.cdtw_band_fraction = std::nan("");
  all_bad.edr_eps = -1.0;
  all_bad.lcss_eps = std::nan("");
  all_bad.erp_gap = Point(std::nan(""), std::nan(""));
  EXPECT_TRUE(MakeMeasure("dtw", all_bad).ok());
  EXPECT_TRUE(MakeMeasure("frechet", all_bad).ok());
}

TEST(RegistryTest, OptionsArePluggedThrough) {
  MeasureOptions options;
  options.edr_eps = 42.0;
  auto m = MakeMeasure("edr", options);
  ASSERT_TRUE(m.ok());
  // Behavior check: points 40 apart match with eps 42 but not with default.
  std::vector<Point> a = {Point(0, 0)};
  std::vector<Point> b = {Point(40, 0)};
  EXPECT_DOUBLE_EQ((*m)->Distance(a, b), 0.0);
}

TEST(MeasureTest, DefaultDistanceUsesEvaluator) {
  // The base-class Distance must agree with the specialized overrides.
  DtwMeasure dtw;
  auto a = Line({0, 2, 5});
  auto b = Line({1, 1});
  const SimilarityMeasure& base = dtw;
  EXPECT_NEAR(base.Distance(a, b), DtwDistance(a, b), 1e-9);
}

TEST(MeasureTest, ReversalFlagDefaults) {
  DtwMeasure dtw;
  FrechetMeasure frechet;
  EXPECT_TRUE(dtw.ReversalPreservesDistance());
  EXPECT_TRUE(frechet.ReversalPreservesDistance());
}

}  // namespace
}  // namespace simsub::similarity
