#include "service/planner.h"

#include <algorithm>

#include "util/logging.h"

namespace simsub::service {

double QueryPlanner::EstimateMbrSelectivity(const geo::Mbr& query_mbr) const {
  const geo::Mbr& extent = stats_.extent;
  if (extent.IsEmpty() || query_mbr.IsEmpty()) return 1.0;
  // Two rectangles intersect iff their centers are within (w1+w2)/2 on x and
  // (h1+h2)/2 on y. With trajectory MBR centers spread over the extent, the
  // keep-fraction per axis is the admissible center band over the extent
  // dimension; degenerate extents (all trajectories on one line) keep
  // everything on that axis.
  double qw = query_mbr.Width();
  double qh = query_mbr.Height();
  double px = extent.Width() > 0.0
                  ? std::min(1.0, (qw + stats_.mean_trajectory_width) /
                                      extent.Width())
                  : 1.0;
  double py = extent.Height() > 0.0
                  ? std::min(1.0, (qh + stats_.mean_trajectory_height) /
                                      extent.Height())
                  : 1.0;
  return px * py;
}

PlanDecision QueryPlanner::Plan(std::span<const geo::Point> query) const {
  SIMSUB_CHECK(!query.empty());
  PlanDecision decision;
  decision.estimated_selectivity =
      EstimateMbrSelectivity(geo::ComputeMbr(query));

  if (decision.estimated_selectivity >= kFullScanThreshold) {
    decision.filter = engine::PruningFilter::kNone;
    decision.reason = "filter would keep most of the database";
  } else if (decision.estimated_selectivity <= kGridThreshold) {
    decision.filter = engine::PruningFilter::kInvertedGrid;
    decision.reason = "localized query; cell-sharing filter pays off";
  } else {
    decision.filter = engine::PruningFilter::kRTree;
    decision.reason = "moderate selectivity; cheap MBR filter";
  }
  return decision;
}

}  // namespace simsub::service
