// SizeS (paper Section 4.2): enumerate only subtrajectories whose size is in
// [m - xi, m + xi], following the subsequence-matching practice of fixing
// candidate lengths near the query length. Complexity
// O(n * (Phi_ini + (m + xi) * Phi_inc)); xi trades efficiency for quality
// and SizeS can be arbitrarily bad in the worst case (paper Appendix A).
#ifndef SIMSUB_ALGO_SIZES_H_
#define SIMSUB_ALGO_SIZES_H_

#include "algo/search.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Size-restricted approximate SimSub solver.
class SizeS : public SubtrajectorySearch {
 public:
  /// `xi` is the soft margin around the query size (paper default: 5).
  SizeS(const similarity::SimilarityMeasure* measure, int xi);

  std::string name() const override { return "SizeS"; }

  int xi() const { return xi_; }

  const similarity::SimilarityMeasure* measure() const override {
    return measure_;
  }

 protected:
  // (see SubtrajectorySearch::DoSearch)
  SearchResult DoSearch(std::span<const geo::Point> data,
                        std::span<const geo::Point> query,
                        similarity::EvaluatorCache& scratch,
                        std::optional<double> bailout) const override;

 private:
  const similarity::SimilarityMeasure* measure_;
  int xi_;
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_SIZES_H_
