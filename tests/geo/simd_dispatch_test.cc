// The runtime ISA dispatch contract (geo/simd_dispatch.h): every tier the
// CPU supports — baseline, AVX2, AVX-512 — must be BIT-IDENTICAL on all
// six kernels, the tier ladder must clamp overrides to what the CPU
// supports, and the public soa.h wrappers must route through the active
// tier. Every EXPECT_EQ on a double below is an exact comparison on
// purpose: the CI isa-matrix leg runs the whole test suite under each
// SIMSUB_ISA override and relies on these exact equalities holding.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "geo/simd_dispatch.h"
#include "geo/soa.h"
#include "geo/trajectory.h"
#include "util/random.h"

namespace simsub::geo {
namespace {

std::vector<Point> RandomPoints(util::Rng& rng, int n, double extent) {
  std::vector<Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.emplace_back(rng.Uniform(-extent, extent), rng.Uniform(-extent, extent));
  }
  return pts;
}

/// Every tier this process may legally dispatch to.
std::vector<IsaTier> SupportedTiers() {
  std::vector<IsaTier> tiers = {IsaTier::kBaseline};
  if (BestSupportedIsa() >= IsaTier::kAvx2) tiers.push_back(IsaTier::kAvx2);
  if (BestSupportedIsa() >= IsaTier::kAvx512) tiers.push_back(IsaTier::kAvx512);
  return tiers;
}

TEST(SimdDispatchTest, TierNamesRoundTrip) {
  for (IsaTier tier : {IsaTier::kBaseline, IsaTier::kAvx2, IsaTier::kAvx512}) {
    IsaTier parsed;
    ASSERT_TRUE(ParseIsaName(IsaTierName(tier), &parsed)) << IsaTierName(tier);
    EXPECT_EQ(parsed, tier);
  }
  IsaTier parsed;
  EXPECT_FALSE(ParseIsaName("sse9", &parsed));
  EXPECT_FALSE(ParseIsaName("", &parsed));
  EXPECT_FALSE(ParseIsaName("AVX2", &parsed));  // names are lowercase
}

TEST(SimdDispatchTest, ResolveClampsAndDefaults) {
  const IsaTier best = BestSupportedIsa();
  EXPECT_EQ(ResolveIsa(nullptr, best), best);
  EXPECT_EQ(ResolveIsa("", best), best);
  EXPECT_EQ(ResolveIsa("bogus", best), best);
  // A requested tier at or below `best` is honored; one above is clamped.
  EXPECT_EQ(ResolveIsa("baseline", best), IsaTier::kBaseline);
  EXPECT_EQ(ResolveIsa("avx512", IsaTier::kAvx2), IsaTier::kAvx2);
  EXPECT_EQ(ResolveIsa("avx2", IsaTier::kBaseline), IsaTier::kBaseline);
  for (IsaTier tier : SupportedTiers()) {
    EXPECT_EQ(ResolveIsa(IsaTierName(tier), best), tier);
  }
}

TEST(SimdDispatchTest, ActiveIsaIsSupported) {
  EXPECT_LE(ActiveIsa(), BestSupportedIsa());
  IsaTier parsed;
  ASSERT_TRUE(ParseIsaName(ActiveIsaName(), &parsed));
  EXPECT_EQ(parsed, ActiveIsa());
}

// Row kernels: every supported tier must match the baseline tier bit for
// bit (and the baseline must match the scalar AoS reference, which ties
// the whole ladder to the pre-SoA arithmetic).
TEST(SimdDispatchTest, RowKernelsBitIdenticalAcrossTiers) {
  util::Rng rng(11);
  for (int n : {1, 2, 3, 7, 8, 9, 31, 64, 257}) {
    std::vector<Point> q = RandomPoints(rng, n, 1000.0);
    FlatPoints soa(q);
    const PointsView v = soa.View();
    std::vector<double> base(q.size()), got(q.size()), scalar(q.size());
    for (int trial = 0; trial < 5; ++trial) {
      Point p(rng.Uniform(-1000.0, 1000.0), rng.Uniform(-1000.0, 1000.0));
      const SoaKernels& b = KernelsFor(IsaTier::kBaseline);
      b.distance_row(p.x, p.y, v.x, v.y, v.size, base.data());
      DistanceRowScalar(p, q, scalar.data());
      for (size_t j = 0; j < q.size(); ++j) EXPECT_EQ(base[j], scalar[j]);
      for (IsaTier tier : SupportedTiers()) {
        const SoaKernels& k = KernelsFor(tier);
        k.distance_row(p.x, p.y, v.x, v.y, v.size, got.data());
        for (size_t j = 0; j < q.size(); ++j) {
          EXPECT_EQ(got[j], base[j]) << IsaTierName(tier) << " n=" << n;
        }
        k.squared_distance_row(p.x, p.y, v.x, v.y, v.size, got.data());
        b.squared_distance_row(p.x, p.y, v.x, v.y, v.size, base.data());
        for (size_t j = 0; j < q.size(); ++j) {
          EXPECT_EQ(got[j], base[j]) << IsaTierName(tier) << " n=" << n;
        }
        EXPECT_EQ(k.min_squared_distance(p.x, p.y, v.x, v.y, v.size),
                  b.min_squared_distance(p.x, p.y, v.x, v.y, v.size))
            << IsaTierName(tier) << " n=" << n;
        // Redo distance_row into base for the next tier comparison.
        b.distance_row(p.x, p.y, v.x, v.y, v.size, base.data());
      }
    }
  }
}

// The bits of `v`: NaNs compare equal by payload, and -0.0 differs from 0.0.
uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// DTW DP rows: a multi-row recurrence chain must stay bit-identical across
// tiers — this is the carried-dependency case where any reassociation or
// FMA contraction would show up immediately. The start row fills its
// distances vector-wide and then sums them serially, so every tier's start
// row of every data point is also compared with an independent serial sum
// of geo::Distance (the baseline tier changes along with the others). Query
// lengths straddle each lane width (2, 4 and 8 doubles), and four inputs
// are run: random points; a NaN coordinate in one query point and one data
// point; +inf and -inf coordinates, whose cells hold inf and NaN (inf - inf);
// and coordinates of -0.0 next to 0.0. Rows are compared bit for bit.
TEST(SimdDispatchTest, DtwRowsBitIdenticalAcrossTiers) {
  util::Rng rng(12);
  const double inf = std::numeric_limits<double>::infinity();
  const SoaKernels& b = KernelsFor(IsaTier::kBaseline);
  for (int variant = 0; variant < 4; ++variant) {
    for (int m : {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 128}) {
      std::vector<Point> q = RandomPoints(rng, m, 500.0);
      std::vector<Point> data = RandomPoints(rng, 40, 500.0);
      auto any = [&rng](size_t size) {
        return static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(size) - 1));
      };
      if (variant == 1) {
        q[any(q.size())].x = std::nan("");
        data[any(data.size())].y = std::nan("");
      } else if (variant == 2) {
        q[any(q.size())].x = inf;
        q[any(q.size())].y = -inf;
        data[any(data.size())].x = inf;
        data[any(data.size())].y = -inf;
      } else if (variant == 3) {
        for (Point& p : q) p = rng.Bernoulli(0.5) ? Point(-0.0, 0.0) : p;
        for (Point& p : data) p = rng.Bernoulli(0.5) ? Point(0.0, -0.0) : p;
      }
      const std::string where =
          "variant=" + std::to_string(variant) + " m=" + std::to_string(m);
      FlatPoints soa(q);
      const PointsView v = soa.View();
      std::vector<double> want(q.size()), got(q.size());
      for (size_t i = 0; i < data.size(); ++i) {
        double acc = 0.0;
        for (size_t j = 0; j < q.size(); ++j) {
          acc += Distance(data[i], q[j]);
          want[j] = acc;
        }
        for (IsaTier tier : SupportedTiers()) {
          const double last = KernelsFor(tier).dtw_start_row(
              data[i].x, data[i].y, v.x, v.y, v.size, got.data());
          EXPECT_EQ(Bits(last), Bits(acc))
              << IsaTierName(tier) << " start row " << i << ", " << where;
          for (size_t j = 0; j < q.size(); ++j) {
            EXPECT_EQ(Bits(got[j]), Bits(want[j]))
                << IsaTierName(tier) << " start row " << i << " j=" << j
                << ", " << where;
          }
        }
      }
      for (IsaTier tier : SupportedTiers()) {
        const SoaKernels& k = KernelsFor(tier);
        std::vector<double> brow(q.size()), bout(q.size());
        std::vector<double> krow(q.size()), kout(q.size());
        b.dtw_start_row(data[0].x, data[0].y, v.x, v.y, v.size, brow.data());
        k.dtw_start_row(data[0].x, data[0].y, v.x, v.y, v.size, krow.data());
        for (size_t i = 1; i < data.size(); ++i) {
          double bmin = 0.0, kmin = 0.0;
          const double blast =
              b.dtw_extend_row(data[i].x, data[i].y, v.x, v.y, v.size,
                               brow.data(), bout.data(), &bmin);
          const double klast =
              k.dtw_extend_row(data[i].x, data[i].y, v.x, v.y, v.size,
                               krow.data(), kout.data(), &kmin);
          EXPECT_EQ(Bits(klast), Bits(blast))
              << IsaTierName(tier) << " i=" << i << ", " << where;
          EXPECT_EQ(Bits(kmin), Bits(bmin))
              << IsaTierName(tier) << " i=" << i << ", " << where;
          for (size_t j = 0; j < q.size(); ++j) {
            EXPECT_EQ(Bits(kout[j]), Bits(bout[j]))
                << IsaTierName(tier) << " i=" << i << ", " << where;
          }
          brow.swap(bout);
          krow.swap(kout);
        }
      }
    }
  }
}

// The DTW suffix kernel fills several staggered rows per SIMD vector; each
// row must still be the row chain it stands for. Every tier is compared by
// memcmp against the baseline tier and against dtw_start_row(p[n-1]),
// dtw_extend_row(p[n-2]), ..., dtw_extend_row(p[0]) over the reversed query,
// for every n and m in 1..17 plus 33 and 128 (every strip remainder) and
// five inputs: random points; duplicate points (zero distances);
// coordinates of +-1e154 (squared distances overflow to +inf); one NaN
// coordinate, whose NaN row or column reaches column 0 as `up` (computed
// as up + d, never as a min over padding); and one data point and one
// query point at x = +inf, which meet in a single NaN cell (inf - inf)
// among finite and infinite ones. Only there does a min see a NaN next to
// a number, so that case pins std::min's operand order: a NaN in its
// first operand wins, one in its second loses.
TEST(SimdDispatchTest, DtwSuffixMatchesRowChainOnEveryTier) {
  util::Rng rng(14);
  std::vector<int> sizes;
  for (int size = 1; size <= 17; ++size) sizes.push_back(size);
  sizes.push_back(33);
  sizes.push_back(128);
  const SoaKernels& b = KernelsFor(IsaTier::kBaseline);
  for (int variant = 0; variant < 5; ++variant) {
    for (int n : sizes) {
      for (int m : sizes) {
        std::vector<Point> data = RandomPoints(rng, n, 500.0);
        std::vector<Point> query = RandomPoints(rng, m, 500.0);
        auto any = [&rng](const std::vector<Point>& v) {
          return static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(v.size()) - 1));
        };
        if (variant == 1) {
          for (Point& p : data) p = query[any(query)];
        } else if (variant == 2) {
          data[any(data)] = Point(1e154, -1e154);
          query[any(query)] = Point(-1e154, 1e154);
        } else if (variant == 3) {
          if (rng.Bernoulli(0.5)) {
            data[any(data)].x = std::nan("");
          } else {
            query[any(query)].y = std::nan("");
          }
        } else if (variant == 4) {
          data[any(data)].x = std::numeric_limits<double>::infinity();
          query[any(query)].x = std::numeric_limits<double>::infinity();
        }
        const std::string where = "variant=" + std::to_string(variant) +
                                  " n=" + std::to_string(n) +
                                  " m=" + std::to_string(m);
        FlatPoints p(data);
        FlatPoints rq(ReversePoints(query));
        const PointsView d = p.View();
        const PointsView q = rq.View();
        const size_t rows = data.size();
        const size_t cols = q.size;
        std::vector<double> chain(rows), prev(cols), next(cols);
        chain[rows - 1] = b.dtw_start_row(d.x[rows - 1], d.y[rows - 1], q.x,
                                          q.y, cols, prev.data());
        for (size_t k = rows - 1; k-- > 0;) {
          double row_min = 0.0;
          chain[k] = b.dtw_extend_row(d.x[k], d.y[k], q.x, q.y, cols,
                                      prev.data(), next.data(), &row_min);
          prev.swap(next);
        }
        std::vector<double> work(3 * cols + 32);
        std::vector<double> base(rows);
        b.dtw_suffix(d.x, d.y, rows, q.x, q.y, cols, work.data(), base.data());
        EXPECT_EQ(std::memcmp(base.data(), chain.data(),
                              rows * sizeof(double)),
                  0)
            << "baseline vs row chain, " << where;
        for (IsaTier tier : SupportedTiers()) {
          std::vector<double> got(rows);
          KernelsFor(tier).dtw_suffix(d.x, d.y, rows, q.x, q.y, cols,
                                      work.data(), got.data());
          EXPECT_EQ(std::memcmp(got.data(), base.data(),
                                rows * sizeof(double)),
                    0)
              << IsaTierName(tier) << " vs baseline, " << where;
        }
      }
    }
  }
}

// The public soa.h wrappers must produce exactly the active tier's values
// (i.e. they actually route through the dispatch table).
TEST(SimdDispatchTest, WrappersMatchActiveTier) {
  util::Rng rng(13);
  std::vector<Point> q = RandomPoints(rng, 51, 800.0);
  FlatPoints soa(q);
  const PointsView v = soa.View();
  const SoaKernels& active = ActiveKernels();
  Point p(rng.Uniform(-800.0, 800.0), rng.Uniform(-800.0, 800.0));
  std::vector<double> got(q.size()), want(q.size());
  DistanceRow(p, v, got.data());
  active.distance_row(p.x, p.y, v.x, v.y, v.size, want.data());
  for (size_t j = 0; j < q.size(); ++j) EXPECT_EQ(got[j], want[j]);
  EXPECT_EQ(MinSquaredDistance(p, v),
            active.min_squared_distance(p.x, p.y, v.x, v.y, v.size));
  double got_min = 0.0, want_min = 0.0;
  std::vector<double> prev(q.size());
  double last = DtwStartRow(p, v, prev.data());
  EXPECT_EQ(last,
            active.dtw_start_row(p.x, p.y, v.x, v.y, v.size, want.data()));
  for (size_t j = 0; j < q.size(); ++j) EXPECT_EQ(prev[j], want[j]);
  std::vector<double> out(q.size());
  last = DtwExtendRow(p, v, prev.data(), out.data(), &got_min);
  EXPECT_EQ(last, active.dtw_extend_row(p.x, p.y, v.x, v.y, v.size,
                                        prev.data(), want.data(), &want_min));
  EXPECT_EQ(got_min, want_min);
  for (size_t j = 0; j < q.size(); ++j) EXPECT_EQ(out[j], want[j]);
  std::vector<Point> data = RandomPoints(rng, 23, 800.0);
  FlatPoints data_soa(data);
  std::vector<double> work;
  std::vector<double> suffix(data.size()), want_suffix(data.size());
  DtwSuffix(data, v, work, suffix.data());
  std::vector<double> kernel_work(3 * q.size() + 32);
  active.dtw_suffix(data_soa.View().x, data_soa.View().y, data.size(), v.x,
                    v.y, v.size, kernel_work.data(), want_suffix.data());
  EXPECT_EQ(std::memcmp(suffix.data(), want_suffix.data(),
                        suffix.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace simsub::geo
