// SimTra (paper Section 6.2, experiment 8): similar *trajectory* search used
// as an approximation of SimSub — the whole data trajectory is itself a
// subtrajectory, so returning it is a legal (and fast, but poor) answer.
#ifndef SIMSUB_ALGO_SIMTRA_H_
#define SIMSUB_ALGO_SIMTRA_H_

#include "algo/search.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Whole-trajectory baseline.
class SimTraSearch : public SubtrajectorySearch {
 public:
  explicit SimTraSearch(const similarity::SimilarityMeasure* measure);

  std::string name() const override { return "SimTra"; }

  // (see SubtrajectorySearch::Search)
 protected:
  SearchResult DoSearch(std::span<const geo::Point> data,
                        std::span<const geo::Point> query,
                        similarity::EvaluatorCache&,
                        std::optional<double>) const override;

 private:
  const similarity::SimilarityMeasure* measure_;
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_SIMTRA_H_
