// Database-level SimSub querying (paper Section 3.1's "intuitive solution"
// and Section 6.2 experiments 2-4): scan the data trajectories — optionally
// pruned by a bounding-box R-tree or an inverted grid — run a per-trajectory
// SimSub algorithm, and maintain the top-k most similar subtrajectories.
//
// Parallel scans run on the process-wide shared util::ThreadPool instead of
// spawning threads per query, and the per-trajectory searches reuse
// evaluator DP scratch through similarity::EvaluatorCache. Results are
// deterministic regardless of the thread count: top-k ties are broken by
// (distance, trajectory_id, range.start, range.end).
//
// Top-k queries with a sum- or max-aggregating measure run best-first
// (Seidl & Kriegel, SIGMOD 1998; see algo/lower_bounds.h): candidates are
// visited in ascending nearest-endpoint lower bound over the cached SoA
// copies, and each scan partition stops at its first bound above its
// best-kth distance, which is shared atomically across workers and also
// early-abandons the DP inside the per-trajectory search. Pruned results
// are bit-identical to unpruned ones at any thread count;
// QueryOptions::prune turns pruning off for measurement.
#ifndef SIMSUB_ENGINE_ENGINE_H_
#define SIMSUB_ENGINE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "algo/search.h"
#include "algo/topk.h"
#include "geo/mbr.h"
#include "geo/points_store.h"
#include "geo/soa.h"
#include "geo/trajectory.h"
#include "index/inverted_grid.h"
#include "index/rtree.h"
#include "similarity/measure.h"
#include "util/status.h"
#include "util/thread_annotations.h"

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
  /// Candidates never searched because a best-first partition stopped
  /// before them: its next nearest-endpoint bound was already above the
  /// best-kth distance, and every candidate it had left counts here.
  /// Counted within trajectories_scanned. Timing-dependent under
  /// multi-threaded scans (the shared bound tightens as workers progress);
  /// the RESULTS are not.
  int64_t lb_skipped = 0;
  /// Start points whose DP extension scan was abandoned early inside the
  /// per-trajectory search (best-so-far / bailout threshold exceeded).
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

/// Execution knobs for SimSubEngine::Query.
struct QueryOptions {
  int k = 1;
  PruningFilter filter = PruningFilter::kNone;
  /// Number of scan partitions; > 1 runs them on the shared process pool
  /// (util::ThreadPool::Shared()). 1 scans inline on the calling thread.
  int threads = 1;
  /// Caller-owned per-worker evaluator scratch, used by the sequential path
  /// (parallel partitions keep their own). Null allocates a transient cache.
  similarity::EvaluatorCache* scratch = nullptr;
  /// Lower-bound pruning: maintain a best-kth-distance threshold (shared
  /// atomically across scan partitions) and pass it into the search as a
  /// DP bailout. With a sum- or max-aggregating measure the scan also runs
  /// best-first: candidates in ascending nearest-endpoint lower bound,
  /// each partition stopping at its first bound above the threshold.
  /// Results are bit-identical with pruning on or off — only candidates
  /// that provably cannot enter the top-k (strictly worse than the kth
  /// best, so no tie-break can admit them) are skipped. Off, the scan
  /// visits candidates in ordinal order and runs every search in full.
  bool prune = true;
  /// Cooperative cancellation flag (caller-owned, may be flipped from any
  /// thread). Checked between per-trajectory searches in every scan
  /// partition: once set, the scan stops early and the report comes back
  /// with status Cancelled and partial results. Null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Absolute execution deadline. Checked alongside `cancel` between
  /// per-trajectory searches in every scan partition: once the clock
  /// passes it, the scan stops and the report comes back with status
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
  /// Scan partitions per query, as QueryOptions::threads.
  int threads = 1;
  /// As QueryOptions::scratch; reused by every query of the batch.
  similarity::EvaluatorCache* scratch = nullptr;
  /// As QueryOptions::prune.
  bool prune = true;
};

/// An immutable trajectory database with optional index acceleration.
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

  /// Builds the MBR R-tree (idempotent).
  void BuildIndex();
  bool has_index() const { return index_.has_value(); }

  /// Builds the inverted grid index (idempotent); cols x rows cells over
  /// the database extent.
  void BuildInvertedIndex(int cols = 64, int rows = 64);
  bool has_inverted_index() const { return inverted_.has_value(); }

  /// Runs `search` over every candidate data trajectory and returns the k
  /// best subtrajectories (one candidate per data trajectory, as each
  /// trajectory contributes its own most-similar subtrajectory).
  ///
  /// With PruningFilter::kRTree, trajectories whose MBR does not intersect
  /// the query's MBR are pruned — the paper's bounding-box filter, which
  /// may rarely drop true answers. With kInvertedGrid, trajectories sharing
  /// no grid cell with the query are pruned. Results are identical for any
  /// `threads` value.
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
  /// subtrajectories" generalization): exhaustively enumerates every
  /// subtrajectory of every candidate trajectory with the incremental
  /// evaluator and keeps the k best overall — a data trajectory may
  /// contribute several results. `min_size` filters near-duplicate
  /// single-point answers (see algo::TopKExact). `cancel` is the same
  /// cooperative flag as QueryOptions::cancel: checked between per-
  /// trajectory enumerations; once set, the scan stops and the report comes
  /// back with status Cancelled and partial results. `deadline` mirrors
  /// QueryOptions::deadline: checked in the same enumeration loop; past
  /// it, the report comes back DeadlineExceeded with partial results.
  QueryReport QueryTopKSubtrajectories(
      std::span<const geo::Point> query,
      const similarity::SimilarityMeasure& measure, int k,
      PruningFilter filter = PruningFilter::kNone, int min_size = 1,
      const std::atomic<bool>* cancel = nullptr,
      std::chrono::steady_clock::time_point deadline =
          std::chrono::steady_clock::time_point::max()) const;

  /// Cached per-trajectory MBRs (built at construction — tiny, and shared
  /// by the index builders and callers of algo::MbrLowerBound).
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
    return EnsureSoa().TrajectoryView(static_cast<size_t>(ordinal));
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

  /// Lazily-built owning SoA store (CSV/in-memory construction path only).
  /// Heap-held so the engine stays movable (util::Mutex is neither movable
  /// nor copyable). `store` is written exactly once, under `mu`, and then
  /// published through the `ready` flag: writers release-store `ready`
  /// after filling `store`, readers acquire-load it before touching
  /// `store`, so the post-publication unlocked reads are race-free.
  struct SoaCache {
    util::Mutex mu;
    std::atomic<bool> ready{false};
    geo::PointsStore store SIMSUB_GUARDED_BY(mu);

    /// Unlocked access for readers that observed `ready` (acquire). The
    /// analysis cannot see the atomic publication, hence the suppression;
    /// the safety argument lives on the members above.
    const geo::PointsStore& published() const
        SIMSUB_NO_THREAD_SAFETY_ANALYSIS {
      return store;
    }
  };

  /// Returns the mapped store when one backs the engine; otherwise builds
  /// the owning store on first use (double-checked under SoaCache::mu).
  const geo::PointsStore& EnsureSoa() const;

  std::vector<geo::Trajectory> database_;
  std::vector<geo::Mbr> mbrs_;  // one per trajectory
  geo::CorpusStats corpus_stats_;
  /// Zero-copy SoA columns over a mapped snapshot (null for the in-memory
  /// construction path; shares ownership of the file mapping).
  std::shared_ptr<const geo::PointsStore> store_;
  std::unique_ptr<SoaCache> soa_;  // lazy; see TrajectorySoa
  std::optional<index::RTree> index_;
  std::optional<index::InvertedGridIndex> inverted_;
};

}  // namespace simsub::engine

#endif  // SIMSUB_ENGINE_ENGINE_H_
