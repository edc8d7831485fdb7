// The SubtrajectorySearch interface: every SimSub algorithm (Problem 1 of
// the paper) maps a (data trajectory, query trajectory) pair to the
// subtrajectory of the data trajectory most similar to the query.
#ifndef SIMSUB_ALGO_SEARCH_H_
#define SIMSUB_ALGO_SEARCH_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "geo/point.h"
#include "geo/trajectory.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Instrumentation counters reported by every search.
struct SearchStats {
  /// Number of candidate subtrajectories whose distance was examined.
  int64_t candidates = 0;
  /// Number of split operations performed (splitting-based algorithms).
  int64_t splits = 0;
  /// Number of points skipped without state maintenance (RLS-Skip).
  int64_t points_skipped = 0;
  /// Number of incremental similarity updates (Phi_inc invocations).
  int64_t extend_calls = 0;
  /// Number of from-scratch similarity initializations (Phi_ini).
  int64_t start_calls = 0;
  /// Number of start points whose extension scan was abandoned mid-DP
  /// because the evaluator's lower bound exceeded the bailout threshold.
  int64_t abandoned = 0;
};

/// Outcome of one SimSub search.
struct SearchResult {
  /// The returned subtrajectory T[best.start .. best.end], 0-based inclusive.
  geo::SubRange best;
  /// Dissimilarity of the returned subtrajectory to the query. For RLS-Skip
  /// this is the simplified-prefix estimate (distance_exact == false); the
  /// evaluation harness re-scores returned ranges with the true measure.
  double distance = std::numeric_limits<double>::infinity();
  bool distance_exact = true;
  SearchStats stats;
};

/// Abstract SimSub solver. Implementations are immutable after construction
/// and safe to reuse across many (data, query) pairs.
class SubtrajectorySearch {
 public:
  virtual ~SubtrajectorySearch() = default;

  /// Algorithm identifier as used in the paper ("ExactS", "PSS", ...).
  virtual std::string name() const = 0;

  /// Finds (an approximation of) argmin over subtrajectories of `data` of
  /// the dissimilarity to `query`. Both spans must be non-empty.
  SearchResult Search(std::span<const geo::Point> data,
                      std::span<const geo::Point> query) const {
    return Run(data, query, nullptr, std::nullopt);
  }

  /// Convenience overload on whole trajectories.
  SearchResult Search(const geo::Trajectory& data,
                      const geo::Trajectory& query) const {
    return Run(data.View(), query.View(), nullptr, std::nullopt);
  }

  /// Like Search, but takes its evaluator from `scratch` (a single-threaded
  /// cache reused across calls) instead of allocating fresh DP rows per
  /// call. Algorithms that run no evaluator leave it untouched; a null
  /// cache is equivalent to Search(data, query).
  SearchResult Search(std::span<const geo::Point> data,
                      std::span<const geo::Point> query,
                      similarity::EvaluatorCache* scratch) const {
    return Run(data, query, scratch, std::nullopt);
  }

  /// Pruned search: candidates provably worse than `bailout` may be skipped
  /// without evaluation (via similarity::PrefixEvaluator's
  /// ExtensionLowerBound early-abandoning hook). The contract on the
  /// returned distance: it is EITHER the algorithm's exact answer (always
  /// when <= bailout) OR some value > bailout standing in for an answer
  /// that cannot matter to the caller — so an engine maintaining a best-kth
  /// threshold gets bit-identical top-k either way. +infinity bailout
  /// degrades to Search(data, query, scratch) plus intra-trajectory
  /// best-so-far abandonment, which never changes the result.
  SearchResult Search(std::span<const geo::Point> data,
                      std::span<const geo::Point> query,
                      similarity::EvaluatorCache* scratch,
                      double bailout) const {
    return Run(data, query, scratch, bailout);
  }

  /// The similarity measure this search evaluates candidates with, when it
  /// is measure-driven (ExactS, SizeS, the splitting family); null for
  /// algorithms without one single measure (e.g. learned policies over
  /// mixed signals). The engine's best-first scan keys on the measure's
  /// aggregation() to decide whether its endpoint bound is sound.
  virtual const similarity::SimilarityMeasure* measure() const {
    return nullptr;
  }

 protected:
  /// The one implementation hook (non-virtual interface: every public
  /// Search overload dispatches here, so derived classes never hide one of
  /// them). A search takes its evaluators from `scratch`, the caller's
  /// cache or one local to the Search call (SimTra scores with Distance()
  /// and takes none). An unset `bailout` is the
  /// full search: nothing is abandoned, so `stats` count all the work.
  /// A set one is the bounded contract of Search(.., bailout). Algorithms
  /// without an evaluator or a pruned path ignore the parameter they have
  /// no use for; evaluating more candidates than necessary never changes
  /// the returned optimum.
  virtual SearchResult DoSearch(std::span<const geo::Point> data,
                                std::span<const geo::Point> query,
                                similarity::EvaluatorCache& scratch,
                                std::optional<double> bailout) const = 0;

 private:
  SearchResult Run(std::span<const geo::Point> data,
                   std::span<const geo::Point> query,
                   similarity::EvaluatorCache* scratch,
                   std::optional<double> bailout) const {
    if (scratch != nullptr) return DoSearch(data, query, *scratch, bailout);
    similarity::EvaluatorCache local;
    return DoSearch(data, query, local, bailout);
  }
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_SEARCH_H_
