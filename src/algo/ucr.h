// Adaptation of the UCR suite (Rakthanmanon et al., KDD 2012) to 2-D
// trajectories, following the paper's Appendix C. UCR enumerates the
// subsequences of exactly the query's length and prunes with a cascade of
// lower bounds before computing banded DTW:
//
//   1. LB_KimFL                — O(1) first/last-point bound;
//   2. LB_Keogh                — query MBR envelopes vs candidate points,
//                                 accumulated in a reordered sequence with
//                                 early abandoning;
//   3. reversed LB_Keogh       — data MBR envelopes vs query points ("use
//                                 the larger of the two bounds");
//   4. early-abandoning DTW    — banded DTW that also folds in the LB_Keogh
//                                 suffix remainder ("earlier early
//                                 abandoning of DTW using LB_Keogh").
//
// Adaptation notes (diff vs the 1-D original):
//   * Z-normalization is dropped (paper: designed for 1-D series).
//   * Envelopes are MBRs of query/data windows; point-to-envelope distance
//     is the point-to-rectangle distance.
//   * Reordering sorts positions by descending distance of the query point
//     from the query centroid — the 2-D analogue of UCR's |z| ordering (the
//     1-D trick orders by distance from the mean, i.e. the normalized
//     series' axis; the paper words this as "distance to the y-axis").
//   * The Sakoe-Chiba half-width is floor(R * m) in candidate-local indices
//     (R = 1 reduces to unconstrained DTW, matching Figure 8).
//
// DTW-only, as in the paper ("UCR only works for DTW").
#ifndef SIMSUB_ALGO_UCR_H_
#define SIMSUB_ALGO_UCR_H_

#include "algo/search.h"

namespace simsub::algo {

/// UCR-style fixed-length subsequence search under banded DTW. Search is
/// const and keeps no pruning statistics between calls; each call reports
/// its own in SearchResult::stats, where `candidates` counts the banded DTW
/// runs (start offsets no lower bound pruned) and `extend_calls` counts
/// every enumerated start offset.
class UcrSearch : public SubtrajectorySearch {
 public:
  /// `band_fraction` is the R parameter of Figure 8.
  explicit UcrSearch(double band_fraction = 1.0);

  std::string name() const override { return "UCR"; }

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

#endif  // SIMSUB_ALGO_UCR_H_
