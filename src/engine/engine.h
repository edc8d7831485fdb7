// Database-level SimSub querying (paper Section 3.1's "intuitive solution"
// and Section 6.2 experiments 2-4): scan the data trajectories — optionally
// pruned by a bounding-box R-tree or an inverted grid — run a per-trajectory
// SimSub algorithm, and maintain the top-k most similar subtrajectories.
// The engine owns every structure derived from its database and builds
// each on first use: the R-tree and the grid on the first query that asks
// for that filter, the SoA coordinate store on the first best-first scan.
//
// Query (one answer per data trajectory) and QueryTopKSubtrajectories (any
// number per trajectory) share one scan loop. With a sum- or max-aggregating
// measure it runs best-first (Seidl & Kriegel, SIGMOD 1998; see
// algo/lower_bounds.h): candidates are visited in ascending nearest-endpoint
// lower bound over the cached SoA copies, and the scan stops at its first
// bound above the best-kth distance, which also early-abandons the DP
// inside the per-trajectory step of both entry points. Pruned results are
// bit-identical to unpruned ones; QueryOptions::prune turns pruning off for
// measurement.
//
// A scan may have several participants: the calling thread plus pool
// helpers that join while it runs (QueryOptions::threads), in the style
// of morsel-driven scheduling (Leis et al., SIGMOD 2014). They take
// candidates from one cursor in visit order and may search ahead of
// the others, bailing out against the last committed best-kth distance;
// each candidate's result is committed in visit order, where the stop rule
// and the top-k offers run exactly as on one thread. Results,
// trajectories_scanned and lb_skipped are therefore the same at any
// participant count (top-k ties are broken by (distance, trajectory_id,
// range.start, range.end)); only dp_abandoned depends on timing. The
// per-trajectory searches reuse evaluator DP scratch through
// similarity::EvaluatorCache.
#ifndef SIMSUB_ENGINE_ENGINE_H_
#define SIMSUB_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "algo/search.h"
#include "geo/mbr.h"
#include "geo/points_store.h"
#include "geo/soa.h"
#include "geo/trajectory.h"
#include "index/inverted_grid.h"
#include "index/rtree.h"
#include "similarity/measure.h"
#include "util/status.h"

namespace simsub::data {
class CorpusSnapshot;
}  // namespace simsub::data

namespace simsub::engine {

/// Candidate pruning strategy for a query (paper Section 3.1 mentions both
/// R-tree and inverted-file pruning).
enum class PruningFilter {
  kNone,          ///< full scan
  kRTree,         ///< MBR intersection via the R-tree
  kInvertedGrid,  ///< shared grid cells via the inverted index
};

/// Short label for logs and reports ("none" / "rtree" / "grid").
const char* PruningFilterName(PruningFilter filter);

/// One entry of a top-k answer.
struct TopKEntry {
  int64_t trajectory_id = -1;
  geo::SubRange range;
  double distance = 0.0;
};

/// Strict total order on entries — smaller distance first, ties broken by
/// (trajectory_id, range.start, range.end) so multi-threaded scans keep
/// exactly the same k entries as sequential ones.
bool EntryBetter(const TopKEntry& a, const TopKEntry& b);

/// Per-query execution report.
struct QueryReport {
  std::vector<TopKEntry> results;  // ascending by EntryBetter
  int64_t trajectories_scanned = 0;
  int64_t trajectories_pruned = 0;
  /// Candidates never searched because the best-first scan stopped before
  /// them: the next nearest-endpoint bound in visit order was already
  /// above the best-kth distance, and every candidate left counts here.
  /// Counted within trajectories_scanned. The stop is decided in visit
  /// order, so the count does not depend on the participant count.
  int64_t lb_skipped = 0;
  /// Start points whose DP extension scan was abandoned early inside the
  /// per-trajectory search (best-so-far / bailout threshold exceeded).
  /// Timing-dependent when helpers take part: a candidate searched ahead
  /// of the commit bails out against an older, looser threshold.
  int64_t dp_abandoned = 0;
  /// Execution time of the scan itself.
  double seconds = 0.0;
  /// Time the request spent queued between submission and execution start
  /// (service::QueryService::Submit path; 0 for direct engine calls).
  double queue_seconds = 0.0;

  /// OK for a completed query. Cancelled when QueryOptions::cancel tripped
  /// mid-scan (results are partial and must not be used), DeadlineExceeded /
  /// InvalidArgument for service-layer requests that never ran (expired in
  /// the queue, or named an unknown measure/algorithm).
  util::Status status;

  /// Pruning filter that actually ran (the planner's choice when the query
  /// went through service::QueryService with auto-planning).
  PruningFilter filter_used = PruningFilter::kNone;
  /// Planner's estimated fraction of the database surviving the filter;
  /// -1 when the query did not go through the planner.
  double planned_selectivity = -1.0;
  /// Static one-liner explaining the plan ("" when not planned).
  const char* plan_reason = "";
};

/// Execution knobs for SimSubEngine::Query and
/// SimSubEngine::QueryTopKSubtrajectories.
struct QueryOptions {
  int k = 1;
  PruningFilter filter = PruningFilter::kNone;
  /// Participant cap: the calling thread plus up to threads - 1 helpers,
  /// queued on the pool the caller is a worker of
  /// (util::ThreadPool::Current()), else on util::ThreadPool::Shared().
  /// A helper joins only while the scan is still running, leaves when it
  /// finds nothing to take within its lookahead window or (between
  /// candidates) when the pool has other tasks queued, and the caller
  /// never waits for one that has not joined. 1 scans on the calling
  /// thread alone. Results, trajectories_scanned and lb_skipped do not
  /// depend on it.
  int threads = 1;
  /// Caller-owned evaluator scratch for the calling thread's searches
  /// (each helper keeps its own). Null allocates a transient cache.
  similarity::EvaluatorCache* scratch = nullptr;
  /// Lower-bound pruning: maintain a best-kth-distance threshold and pass
  /// it into each per-trajectory step as a DP bailout. With a sum- or
  /// max-aggregating measure the scan of both entry points also runs
  /// best-first: candidates in ascending nearest-endpoint lower bound,
  /// stopping at the first bound above the threshold. Results are
  /// bit-identical with pruning on or off — only candidates that provably
  /// cannot enter the top-k (strictly worse than the kth best, so no
  /// tie-break can admit them) are skipped. Off, the scan visits
  /// candidates in ordinal order and runs every search in full.
  bool prune = true;
  /// Cooperative cancellation flag (caller-owned, may be flipped from any
  /// thread). Checked by every participant before it takes a candidate:
  /// once set, the scan stops early and the report comes back with status
  /// Cancelled and partial results. Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute execution deadline. Checked alongside `cancel` by every
  /// participant before it takes a candidate: once the clock passes it,
  /// the scan stops and the report comes back with status
  /// DeadlineExceeded and partial results — the execution-time half of the
  /// service's deadline contract (queue expiry is the service's half).
  /// time_point::max() (the default) = no deadline, and the scan never
  /// reads the clock.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// One query of SimSubEngine::QueryBatch. The points span and the cancel
/// flag (when set) must stay valid until the batch returns.
struct BatchedQueryView {
  std::span<const geo::Point> points;
  int k = 1;
  /// Pruning filter for THIS query (a batch may mix filters).
  PruningFilter filter = PruningFilter::kNone;
  /// Same contracts as QueryOptions::cancel / QueryOptions::deadline, per
  /// query: a tripped flag or an expired clock stops only this query (its
  /// report comes back Cancelled / DeadlineExceeded with partial results);
  /// the queries after it still run.
  const std::atomic<bool>* cancel = nullptr;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

/// Execution knobs for SimSubEngine::QueryBatch: the subset of QueryOptions
/// that is batch-wide rather than per-query, passed to every Query call.
struct BatchQueryOptions {
  /// Participant cap per query, as QueryOptions::threads.
  int threads = 1;
  /// As QueryOptions::scratch; reused by every query of the batch.
  similarity::EvaluatorCache* scratch = nullptr;
  /// As QueryOptions::prune.
  bool prune = true;
};

/// An immutable trajectory database with index acceleration built on
/// first use.
class SimSubEngine {
 public:
  explicit SimSubEngine(std::vector<geo::Trajectory> database);

  /// Constructs the engine over an opened columnar snapshot
  /// (data/snapshot.h). The AoS database is materialized from the mapped
  /// columns in one interleaving pass, while the MBR cache and the corpus
  /// statistics load straight from the persisted sections and the SoA
  /// coordinate reads stay zero-copy over the mapping for the engine's
  /// lifetime (the engine shares ownership of the mapping through the
  /// snapshot's PointsStore; the snapshot object itself may be dropped).
  explicit SimSubEngine(const data::CorpusSnapshot& snapshot);

  const std::vector<geo::Trajectory>& database() const { return database_; }
  int64_t TotalPoints() const;

  /// Runs `search` over every candidate data trajectory and returns the k
  /// best subtrajectories (one candidate per data trajectory, as each
  /// trajectory contributes its own most-similar subtrajectory).
  ///
  /// With PruningFilter::kRTree, trajectories whose MBR does not intersect
  /// the query's MBR are pruned — the paper's bounding-box filter, which
  /// may rarely drop true answers. With kInvertedGrid, trajectories sharing
  /// no cell of a 64 x 64 grid over the database extent with the query are
  /// pruned. The first query with a filter builds its index (thread-safe;
  /// concurrent first callers wait for the one build). Results,
  /// trajectories_scanned and lb_skipped are identical for any `threads`
  /// value. An exception from any participant's search is rethrown here,
  /// after every helper that joined has stopped.
  QueryReport Query(std::span<const geo::Point> query,
                    const algo::SubtrajectorySearch& search,
                    const QueryOptions& options) const;

  /// Runs several queries against the same `search`: one Query call per
  /// view, in order, with that view's k, filter, cancel and deadline and
  /// the batch-wide options. reports[i] is exactly Query's report for
  /// queries[i], so its `seconds` covers that query alone.
  std::vector<QueryReport> QueryBatch(
      std::span<const BatchedQueryView> queries,
      const algo::SubtrajectorySearch& search,
      const BatchQueryOptions& options) const;

  /// Global *subtrajectory-level* top-k (paper Section 3.1's "top-k similar
  /// subtrajectories" generalization): enumerates every subtrajectory of at
  /// least `min_size` (>= 1) points of every candidate trajectory with
  /// ExactS's incremental scan (algo::ScanWindows) and keeps the options.k
  /// best overall — a data trajectory may contribute several results.
  /// `min_size` filters near-duplicate single-point answers. Shares Query's
  /// scan, so every QueryOptions field means the same here: filter,
  /// participants, scratch, the best-first stop (the nearest-endpoint bound
  /// holds for every subtrajectory of a candidate), the DP bailout (a start
  /// point's extensions are abandoned once they provably exceed the kth
  /// best), cancellation, deadline and counters. Results are identical for
  /// any `threads` and `prune` value, and so are trajectories_scanned and
  /// lb_skipped for any `threads` value.
  QueryReport QueryTopKSubtrajectories(
      std::span<const geo::Point> query,
      const similarity::SimilarityMeasure& measure, int min_size,
      const QueryOptions& options) const;

  /// Cached per-trajectory MBRs (built at construction — tiny, and shared
  /// by the R-tree build and callers of algo::MbrLowerBound).
  const geo::Mbr& TrajectoryMbr(int64_t ordinal) const {
    return mbrs_[static_cast<size_t>(ordinal)];
  }

  /// Cached SoA coordinate view of a data trajectory, for vectorized
  /// passes (the best-first scan's nearest-endpoint bound). When the engine was
  /// constructed over a snapshot these are zero-copy views into the mapped
  /// columns. Otherwise they point into an owning corpus-level
  /// geo::PointsStore that duplicates ~2/3 of the database's coordinate
  /// storage, so it is built lazily — on the first query that can use it
  /// (pruned, sum/max-aggregating measure) — and never for workloads that
  /// cannot (pruning off, or only edit-count/learned measures).
  /// Thread-safe; concurrent first callers block until the one-time build
  /// finishes.
  geo::PointsView TrajectorySoa(int64_t ordinal) const {
    return Soa().TrajectoryView(static_cast<size_t>(ordinal));
  }

  /// Corpus-level statistics for the planner's selectivity model. Loaded
  /// from the persisted header when constructed over a snapshot; otherwise
  /// computed once from the MBR cache at construction.
  const geo::CorpusStats& corpus_stats() const { return corpus_stats_; }

  /// True when the engine reads its SoA columns from a mapped snapshot.
  bool from_snapshot() const { return store_ != nullptr; }

 private:
  std::vector<int64_t> CandidateOrdinals(std::span<const geo::Point> query,
                                         PruningFilter filter) const;

  /// The one scan loop behind Query and QueryTopKSubtrajectories. `step`
  /// searches one trajectory, offers its entries to the heap it is given
  /// and returns its abandoned-DP count; its arguments are the trajectory,
  /// the committed best-kth threshold when the candidate was taken
  /// (+infinity until known, and always with pruning off), the
  /// participant's evaluator scratch, and either the committed top-k heap
  /// (the candidate is next to commit) or an empty heap of its own whose
  /// entries are committed later. `step` must be safe to call from several
  /// threads at once. `measure` (may be null) keys the best-first order.
  template <typename Step>
  QueryReport Scan(std::span<const geo::Point> query,
                   const similarity::SimilarityMeasure* measure,
                   const QueryOptions& options, const Step& step) const;

  /// A value built at most once, by the first Get: concurrent first
  /// callers wait for that build, and a build that throws leaves the value
  /// unbuilt for the next caller (std::call_once).
  template <typename T>
  class BuiltOnce {
   public:
    template <typename Build>
    const T& Get(const Build& build) {
      std::call_once(once_, [&] { value_.emplace(build()); });
      return *value_;
    }

   private:
    std::once_flag once_;
    std::optional<T> value_;
  };

  /// The structures derived from the database on first use. Heap-held so
  /// the engine stays movable (std::once_flag is not).
  struct Derived {
    BuiltOnce<geo::PointsStore> soa;  // in-memory construction path only
    BuiltOnce<index::RTree> rtree;
    BuiltOnce<index::InvertedGridIndex> grid;
  };

  /// The mapped store when one backs the engine, else the owning store,
  /// built on first use.
  const geo::PointsStore& Soa() const;

  std::vector<geo::Trajectory> database_;
  std::vector<geo::Mbr> mbrs_;  // one per trajectory
  geo::CorpusStats corpus_stats_;
  /// Zero-copy SoA columns over a mapped snapshot (null for the in-memory
  /// construction path; shares ownership of the file mapping).
  std::shared_ptr<const geo::PointsStore> store_;
  std::unique_ptr<Derived> derived_ = std::make_unique<Derived>();
};

}  // namespace simsub::engine

#endif  // SIMSUB_ENGINE_ENGINE_H_
