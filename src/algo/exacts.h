// ExactS (paper Algorithm 1): exhaustive enumeration of all n(n+1)/2
// subtrajectories with incremental similarity computation.
// Complexity O(n * (Phi_ini + n * Phi_inc)).
#ifndef SIMSUB_ALGO_EXACTS_H_
#define SIMSUB_ALGO_EXACTS_H_

#include "algo/search.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Exact SimSub solver for an abstract similarity measurement.
class ExactS : public SubtrajectorySearch {
 public:
  explicit ExactS(const similarity::SimilarityMeasure* measure);

  std::string name() const override { return "ExactS"; }

  const similarity::SimilarityMeasure* measure() const override {
    return measure_;
  }

 protected:
  // (see SubtrajectorySearch::DoSearch)
  SearchResult DoSearch(std::span<const geo::Point> data,
                        std::span<const geo::Point> query,
                        similarity::EvaluatorCache* scratch,
                        std::optional<double> bailout) const override;

 private:
  const similarity::SimilarityMeasure* measure_;
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_EXACTS_H_
