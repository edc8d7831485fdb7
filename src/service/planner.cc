#include "service/planner.h"

#include <algorithm>

#include "util/logging.h"

namespace simsub::service {

QueryPlanner::QueryPlanner(const engine::SimSubEngine& engine)
    : engine_(&engine) {
  // The engine owns the statistics-at-construction pass: computed from its
  // MBR cache for in-memory databases, loaded from the persisted header for
  // snapshot-backed ones. Either way the planner reads, never recomputes —
  // the values are bit-identical across the two paths.
  const geo::CorpusStats& stats = engine.corpus_stats();
  extent_ = stats.extent;
  mean_traj_width_ = stats.mean_trajectory_width;
  mean_traj_height_ = stats.mean_trajectory_height;
}

double QueryPlanner::EstimateMbrSelectivity(const geo::Mbr& query_mbr) const {
  if (extent_.IsEmpty() || query_mbr.IsEmpty()) return 1.0;
  // Two rectangles intersect iff their centers are within (w1+w2)/2 on x and
  // (h1+h2)/2 on y. With trajectory MBR centers spread over the extent, the
  // keep-fraction per axis is the admissible center band over the extent
  // dimension; degenerate extents (all trajectories on one line) keep
  // everything on that axis.
  double qw = query_mbr.Width();
  double qh = query_mbr.Height();
  double px = extent_.Width() > 0.0
                  ? std::min(1.0, (qw + mean_traj_width_) / extent_.Width())
                  : 1.0;
  double py = extent_.Height() > 0.0
                  ? std::min(1.0, (qh + mean_traj_height_) / extent_.Height())
                  : 1.0;
  return px * py;
}

PlanDecision QueryPlanner::Plan(std::span<const geo::Point> query) const {
  SIMSUB_CHECK(!query.empty());
  PlanDecision decision;
  decision.estimated_selectivity =
      EstimateMbrSelectivity(geo::ComputeMbr(query));

  bool has_rtree = engine_->has_index();
  bool has_grid = engine_->has_inverted_index();

  if (!has_rtree && !has_grid) {
    decision.filter = engine::PruningFilter::kNone;
    decision.reason = "no index built";
  } else if (decision.estimated_selectivity >= kFullScanThreshold) {
    decision.filter = engine::PruningFilter::kNone;
    decision.reason = "filter would keep most of the database";
  } else if (has_grid && decision.estimated_selectivity <= kGridThreshold) {
    decision.filter = engine::PruningFilter::kInvertedGrid;
    decision.reason = "localized query; cell-sharing filter pays off";
  } else if (has_rtree) {
    decision.filter = engine::PruningFilter::kRTree;
    decision.reason = "moderate selectivity; cheap MBR filter";
  } else {
    decision.filter = engine::PruningFilter::kInvertedGrid;
    decision.reason = "grid is the only index built";
  }
  return decision;
}

}  // namespace simsub::service
