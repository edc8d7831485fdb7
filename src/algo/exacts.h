// ExactS (paper Algorithm 1): exhaustive enumeration of all n(n+1)/2
// subtrajectories with incremental similarity computation.
// Complexity O(n * (Phi_ini + n * Phi_inc)).
//
// The enumeration itself is ScanWindows, shared by ExactS (sizes [1, n]),
// SizeS (its size window) and the engine's subtrajectory-level top-k (paper
// Section 3.1: "simply maintaining the k most similar subtrajectories").
#ifndef SIMSUB_ALGO_EXACTS_H_
#define SIMSUB_ALGO_EXACTS_H_

#include <algorithm>
#include <limits>
#include <optional>
#include <span>

#include "algo/search.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Algorithm 1's Start/Extend scan over the subtrajectories of `data` whose
/// size lies in [min_size, max_size] (1 <= min_size): calls
/// `offer(range, distance)` on each, in ascending (start, end) order.
/// `offer` returns the caller's cut-off, the distance a later range must
/// not exceed to matter (+infinity while any may). With `bailout` set, the
/// extensions of a start point are abandoned once the evaluator's lower
/// bound exceeds min(*bailout, cut-off): every one of them extends the
/// current state, so each has a distance above both. Without a bailout
/// every admissible range is offered. `stats` counts the work.
template <typename Offer>
void ScanWindows(similarity::PrefixEvaluator& eval,
                 std::span<const geo::Point> data, int min_size, int max_size,
                 std::optional<double> bailout, SearchStats& stats,
                 const Offer& offer) {
  const int n = static_cast<int>(data.size());
  double cutoff = std::numeric_limits<double>::infinity();
  // `n - min_size`, not `i + min_size`: min_size comes off the wire as a
  // full-range i32.
  for (int i = 0; i <= n - min_size; ++i) {
    double d = eval.Start(data[static_cast<size_t>(i)]);
    ++stats.start_calls;
    if (min_size <= 1) {
      ++stats.candidates;
      cutoff = offer(geo::SubRange(i, i), d);
    }
    for (int j = i + 1; j < n && j - i < max_size; ++j) {
      if (bailout && eval.ExtensionLowerBound() > std::min(*bailout, cutoff)) {
        ++stats.abandoned;
        break;
      }
      d = eval.Extend(data[static_cast<size_t>(j)]);
      ++stats.extend_calls;
      if (j - i + 1 >= min_size) {
        ++stats.candidates;
        cutoff = offer(geo::SubRange(i, j), d);
      }
    }
  }
}

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
                        similarity::EvaluatorCache& scratch,
                        std::optional<double> bailout) const override;

 private:
  const similarity::SimilarityMeasure* measure_;
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_EXACTS_H_
