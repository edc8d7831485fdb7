// Dynamic Time Warping distance (Yi et al., ICDE 1998) with the O(m)-per-step
// incremental row evaluator used throughout the SimSub algorithms.
#ifndef SIMSUB_SIMILARITY_DTW_H_
#define SIMSUB_SIMILARITY_DTW_H_

#include <memory>
#include <span>
#include <vector>

#include "similarity/measure.h"

namespace simsub::similarity {

/// Unconstrained DTW. Phi = O(n*m), Phi_inc = Phi_ini = O(m) (paper Table 1).
class DtwMeasure : public SimilarityMeasure {
 public:
  std::string name() const override { return "dtw"; }

  std::unique_ptr<PrefixEvaluator> NewEvaluator(
      std::span<const geo::Point> query) const override;

  /// Direct O(|a|*|b|) computation (reference implementation for tests).
  double Distance(std::span<const geo::Point> a,
                  std::span<const geo::Point> b) const override;

  /// DTW sums point distances along an alignment covering every query
  /// point, so the engine's endpoint MBR/nearest-point sum bounds apply.
  DistanceAggregation aggregation() const override {
    return DistanceAggregation::kSum;
  }
};

/// Free-function DTW between two point sequences.
double DtwDistance(std::span<const geo::Point> a,
                   std::span<const geo::Point> b);

/// DTW restricted to a global-index band: a[i] may align with b[j] only when
/// |i - j| <= band. Cells outside the band are +infinity; returns +infinity
/// when no in-band alignment exists. band < 0 means unconstrained.
double BandedDtwDistance(std::span<const geo::Point> a,
                         std::span<const geo::Point> b, int band);

}  // namespace simsub::similarity

#endif  // SIMSUB_SIMILARITY_DTW_H_
