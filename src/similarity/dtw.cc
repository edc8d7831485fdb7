#include "similarity/dtw.h"

#include <algorithm>
#include <limits>

#include "geo/soa.h"
#include "util/logging.h"

namespace simsub::similarity {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Maintains one DP row D[cur][0..m-1] where D[r][j] is the DTW distance
/// between the current subtrajectory T[i..i+r] and query[0..j].
///
/// The sweeps live in geo::DtwStartRow / geo::DtwExtendRow — the shared
/// per-ISA kernel bodies behind the runtime dispatch (geo/simd_dispatch.h)
/// — which read the query through its SoA copy (unit-stride x[]/y[]
/// instead of the 24-byte-strided AoS Points). An extend row computes each
/// distance inline: its out[j-1] dependence makes the row latency-bound
/// (min+add per cell), so the sqrt sits OFF the carried path and is hidden
/// by out-of-order execution — faster than a separate vectorized
/// DistanceRow pass, whose extra row of loads/stores cannot be hidden. A
/// start row is the other way round: its carried chain is one add, shorter
/// than a scalar sqrt, so it fills the distances in a vectorized pass
/// first and runs the prefix sum over them (bench_kernels measures both
/// rows). The kernels track the row minimum, which is
/// non-decreasing from row to row (every cell adds a nonnegative distance
/// to a min over previous cells), so it lower-bounds every future
/// extension — the ExtensionLowerBound() early-abandoning hook.
///
/// BackwardPass (the suffix pass) reads no row until the last one, so it
/// takes geo::DtwSuffix instead: the matrix filled in staggered rows,
/// several per SIMD vector, each row's chain cell for cell the row kernel's.
class DtwEvaluator : public PrefixEvaluator {
 public:
  explicit DtwEvaluator(std::span<const geo::Point> query)
      : qsoa_(query), row_(query.size()), scratch_(query.size()) {
    SIMSUB_CHECK(!query.empty());
  }

  double Start(const geo::Point& p) override {
    length_ = 1;
    // First row: D[1][j] = sum_{k<=j} d(p, q_k)  (Equation 1, i = 1 case).
    double last = geo::DtwStartRow(p, qsoa_.View(), row_.data());
    row_min_ = row_[0];  // prefix sums are non-decreasing
    return last;
  }

  double Extend(const geo::Point& p) override {
    SIMSUB_DCHECK_GT(length_, 0) << "Extend() before Start()";
    ++length_;
    // D[r][j] = d(p, q_j) + min(D[r-1][j-1], D[r-1][j], D[r][j-1])
    // (Equation 1), with D[r][0] = D[r-1][0] + d(p, q_0) as the j = 1 case.
    double last = geo::DtwExtendRow(p, qsoa_.View(), row_.data(),
                                    scratch_.data(), &row_min_);
    row_.swap(scratch_);
    return last;
  }

  double Current() const override { return length_ > 0 ? row_.back() : kInf; }

  int Length() const override { return length_; }

  double ExtensionLowerBound() const override {
    return length_ > 0 ? row_min_ : 0.0;
  }

  bool Reset(std::span<const geo::Point> query) override {
    SIMSUB_CHECK(!query.empty());
    qsoa_.Assign(query);
    row_.resize(query.size());
    scratch_.resize(query.size());
    length_ = 0;
    return true;
  }

  void BackwardPass(std::span<const geo::Point> data,
                    std::span<double> out) override {
    SIMSUB_CHECK_EQ(out.size(), data.size());
    geo::DtwSuffix(data, qsoa_.View(), suffix_work_, out.data());
    length_ = 0;
  }

 private:
  geo::FlatPoints qsoa_;
  std::vector<double> row_;
  std::vector<double> scratch_;
  std::vector<double> suffix_work_;  // geo::DtwSuffix's scratch
  double row_min_ = 0.0;
  int length_ = 0;
};

}  // namespace

std::unique_ptr<PrefixEvaluator> DtwMeasure::NewEvaluator(
    std::span<const geo::Point> query) const {
  return std::make_unique<DtwEvaluator>(query);
}

double DtwMeasure::Distance(std::span<const geo::Point> a,
                            std::span<const geo::Point> b) const {
  return DtwDistance(a, b);
}

double DtwDistance(std::span<const geo::Point> a,
                   std::span<const geo::Point> b) {
  return BandedDtwDistance(a, b, /*band=*/-1);
}

double BandedDtwDistance(std::span<const geo::Point> a,
                         std::span<const geo::Point> b, int band) {
  SIMSUB_CHECK(!a.empty());
  SIMSUB_CHECK(!b.empty());
  const size_t n = a.size();
  const size_t m = b.size();
  std::vector<double> prev(m, kInf);
  std::vector<double> cur(m, kInf);
  for (size_t i = 0; i < n; ++i) {
    std::fill(cur.begin(), cur.end(), kInf);
    size_t j_lo = 0;
    size_t j_hi = m;  // exclusive
    if (band >= 0) {
      size_t w = static_cast<size_t>(band);
      j_lo = i > w ? i - w : 0;
      j_hi = std::min(m, i + w + 1);
      if (j_lo >= j_hi) {
        return kInf;  // Band admits no cell in this row.
      }
    }
    for (size_t j = j_lo; j < j_hi; ++j) {
      double d = geo::Distance(a[i], b[j]);
      if (i == 0 && j == 0) {
        cur[j] = d;
      } else {
        double best = kInf;
        if (i > 0) best = std::min(best, prev[j]);
        if (j > 0) best = std::min(best, cur[j - 1]);
        if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);
        cur[j] = d + best;
      }
    }
    prev.swap(cur);
  }
  return prev.back();
}

}  // namespace simsub::similarity
