// The three heuristic splitting-based algorithms of paper Section 4.3:
//   PSS   - Prefix-Suffix Search (Algorithm 2): greedy split whenever the
//           current prefix or suffix beats the best-known similarity.
//   POS   - Prefix-Only Search: PSS without the suffix component. It is
//           POS-D with D = 0 (no lookahead), and runs POS-D's scan.
//   POS-D - Prefix-Only Search with Delay: defers the split for up to D
//           points and splits where the prefix was most similar.
// All run in O(n1 * Phi_ini + n * Phi_inc) with n1 = number of splits.
#ifndef SIMSUB_ALGO_SPLITTING_H_
#define SIMSUB_ALGO_SPLITTING_H_

#include "algo/search.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Prefix-Suffix Search (paper Algorithm 2).
class PssSearch : public SubtrajectorySearch {
 public:
  explicit PssSearch(const similarity::SimilarityMeasure* measure);

  std::string name() const override { return "PSS"; }

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

/// Prefix-Only Search with Delay.
class PosDSearch : public SubtrajectorySearch {
 public:
  /// `delay` is the paper's D parameter (default 5 in the experiments).
  PosDSearch(const similarity::SimilarityMeasure* measure, int delay);

  std::string name() const override { return "POS-D"; }

  int delay() const { return delay_; }

  const similarity::SimilarityMeasure* measure() const override {
    return measure_;
  }

  // (see SubtrajectorySearch::Search)
 protected:
  SearchResult DoSearch(std::span<const geo::Point> data,
                        std::span<const geo::Point> query,
                        similarity::EvaluatorCache& scratch,
                        std::optional<double>) const override;

 private:
  const similarity::SimilarityMeasure* measure_;
  int delay_;
};

/// Prefix-Only Search: POS-D's scan with no lookahead.
class PosSearch : public PosDSearch {
 public:
  explicit PosSearch(const similarity::SimilarityMeasure* measure)
      : PosDSearch(measure, /*delay=*/0) {}

  std::string name() const override { return "POS"; }
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_SPLITTING_H_
