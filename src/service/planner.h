// Cost-based pruning-filter selection for the query service.
//
// The engine offers three candidate filters (none / R-tree / inverted grid)
// and the paper hardcodes the choice per experiment. Under a mixed workload
// no single choice wins: a query spanning the whole city keeps every
// trajectory anyway (the filter is pure overhead), while a short localized
// query keeps almost none (the stronger, costlier grid filter pays off).
// The planner estimates per query how much of the database an MBR filter
// would keep and picks the filter from that estimate and the database
// statistics collected once at construction — the Tunable-LSH idea of
// adapting the access path to the observed workload rather than fixing it.
// It is a pure function of those statistics and the query: the engine
// builds whichever index the chosen filter needs on first use.
#ifndef SIMSUB_SERVICE_PLANNER_H_
#define SIMSUB_SERVICE_PLANNER_H_

#include <span>

#include "engine/engine.h"
#include "geo/mbr.h"
#include "geo/point.h"
#include "geo/points_store.h"

namespace simsub::service {

/// One planning decision, recorded into the QueryReport.
struct PlanDecision {
  engine::PruningFilter filter = engine::PruningFilter::kNone;
  /// Estimated fraction of the database an MBR filter keeps for this query.
  double estimated_selectivity = 1.0;
  /// Static explanation string (never owned, safe to keep forever).
  const char* reason = "";
};

class QueryPlanner {
 public:
  /// Above this estimated keep-fraction the filter would keep most of the
  /// database: scan everything and skip the filtering pass.
  static constexpr double kFullScanThreshold = 0.8;
  /// At or below this estimate the query is localized enough that the
  /// stronger (but per-candidate costlier) inverted-grid filter pays off.
  static constexpr double kGridThreshold = 0.35;

  /// Plans over the database statistics (extent, mean trajectory MBR
  /// dimensions) the engine collects — or, for snapshot-backed engines,
  /// loads from the persisted header — at construction
  /// (engine::SimSubEngine::corpus_stats()).
  explicit QueryPlanner(const geo::CorpusStats& stats) : stats_(stats) {}

  /// Picks the filter for one query.
  PlanDecision Plan(std::span<const geo::Point> query) const;

  /// Estimated fraction of trajectory MBRs intersecting the query MBR,
  /// assuming MBR centers spread uniformly over the database extent.
  double EstimateMbrSelectivity(const geo::Mbr& query_mbr) const;

  // Database statistics, exposed for tests and diagnostics.
  const geo::Mbr& extent() const { return stats_.extent; }
  double mean_trajectory_width() const { return stats_.mean_trajectory_width; }
  double mean_trajectory_height() const {
    return stats_.mean_trajectory_height;
  }

 private:
  geo::CorpusStats stats_;
};

}  // namespace simsub::service

#endif  // SIMSUB_SERVICE_PLANNER_H_
