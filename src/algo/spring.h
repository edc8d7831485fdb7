// SPRING (Sakurai, Faloutsos & Yamamuro, ICDE 2007): subsequence matching
// under DTW via a single dynamic program over the data sequence in which a
// match may start at any position (star-padding). Exact for unconstrained
// DTW; the paper compares it against RLS-Skip+ under a global alignment band
// (Figure 8): query point q_i may align with data point p_j only when
// |j - i| <= R * |T|.
#ifndef SIMSUB_ALGO_SPRING_H_
#define SIMSUB_ALGO_SPRING_H_

#include "algo/search.h"

namespace simsub::algo {

/// DTW-specific subsequence search. Unlike the measure-agnostic algorithms
/// this one is hard-wired to DTW, which is exactly the paper's point about
/// its limited generality.
class SpringSearch : public SubtrajectorySearch {
 public:
  /// `band_fraction` = R in the paper's Figure 8; alignment of q_i with p_j
  /// requires |j - i| <= R * n. R >= 1 disables the constraint.
  explicit SpringSearch(double band_fraction = 1.0);

  std::string name() const override { return "Spring"; }

  double band_fraction() const { return band_fraction_; }

  // (see SubtrajectorySearch::Search)
 protected:
  SearchResult DoSearch(std::span<const geo::Point> data,
                        std::span<const geo::Point> query,
                        similarity::EvaluatorCache&,
                        std::optional<double>) const override;

 private:
  double band_fraction_;
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_SPRING_H_
