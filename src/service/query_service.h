// The persistent serving layer over SimSubEngine: a fixed worker pool, a
// declarative async request API (QuerySpec -> std::future<QueryReport>), a
// batch API, per-worker reusable evaluator scratch, and per-query planning.
//
// SimSubEngine::Query answers one query; under database-level traffic
// (ROADMAP north star, paper Section 6.2) the caller used to pay thread
// spawning and DP-scratch allocation per query. QueryService amortizes all
// of it: workers live as long as the service, each worker owns one
// similarity::EvaluatorCache whose DP rows persist across trajectories,
// queries, and batches, the planner picks the pruning filter per query
// instead of hardcoding one per call site, and resolved (measure, search)
// pairs are cached per service so a QuerySpec costs two registry lookups
// only on its first use.
//
// Determinism: a SubmitBatch() over specs resolves to exactly what running
// each spec through RunOne() sequentially returns (same entries,
// bit-identical distances), regardless of worker count or how many
// dispatcher threads submitted — the engine's top-k order is total, the
// planner is a pure function of the query and database statistics, and
// resolved searches are immutable (every algorithm, "random-s" included, is
// a pure function of its data and query).
//
// Threading contract: every public method is safe to call from multiple
// application threads concurrently — Submit/SubmitBatch/RunOne/stats may
// all overlap. Statistics counters are atomic (stats() is safe to read
// during a running batch), pool workers own their scratch slot by worker
// index, and foreign calling threads lease scratch from a mutex-guarded
// pool. Calling RunOne from inside one of the service's own pool tasks is
// safe: it runs inline on that worker's scratch slot. Blocking on a
// Submit() future from inside a pool task is NOT safe (the task would wait
// on work queued behind itself).
#ifndef SIMSUB_SERVICE_QUERY_SERVICE_H_
#define SIMSUB_SERVICE_QUERY_SERVICE_H_

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "algo/search.h"
#include "engine/engine.h"
#include "service/planner.h"
#include "service/query_spec.h"
#include "similarity/measure.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace simsub::data {
class CorpusSnapshot;
}  // namespace simsub::data

namespace simsub::service {

struct ServiceOptions {
  /// Worker pool width; 0 = hardware concurrency.
  int threads = 0;
  /// Indexes built at construction (the planner only considers built ones).
  bool build_rtree = true;
  bool build_inverted_grid = true;
};

/// Cumulative serving statistics (a coherent-enough snapshot of relaxed
/// atomic counters; safe to take while batches are running).
struct ServiceStats {
  /// Requests that executed to completion (status OK).
  int64_t queries_served = 0;
  int64_t batches_served = 0;
  /// Requests answered without running: expired in the queue, cancelled
  /// before/while running, or rejected by spec validation / the registries.
  int64_t deadline_expired = 0;
  int64_t cancelled = 0;
  int64_t rejected = 0;
  /// Requests that started executing and came back with a non-OK status
  /// other than Cancelled/DeadlineExceeded (those count above).
  int64_t failed = 0;
  /// QuerySpec resolutions: cache hits vs full registry constructions.
  int64_t spec_cache_hits = 0;
  int64_t spec_cache_misses = 0;
  /// Evaluator scratch reuses vs fresh allocations across all workers.
  int64_t evaluator_reuses = 0;
  int64_t evaluator_allocs = 0;
  /// Queries per planner outcome, indexed by PruningFilter value.
  int64_t plans_none = 0;
  int64_t plans_rtree = 0;
  int64_t plans_grid = 0;
  /// Cumulative lower-bound cascade counters across all served queries
  /// (see engine::QueryReport::lb_skipped / dp_abandoned).
  int64_t lb_skipped = 0;
  int64_t dp_abandoned = 0;
};

class QueryService {
 public:
  /// Takes ownership of the engine and builds the configured indexes.
  QueryService(engine::SimSubEngine engine, ServiceOptions options = {});

  /// Serves directly over an opened columnar snapshot (data/snapshot.h):
  /// the engine materializes its AoS database from the mapped columns, SoA
  /// reads stay zero-copy over the mapping, and the planner consumes the
  /// persisted corpus statistics instead of a fresh collection pass. The
  /// snapshot object may be dropped after construction.
  explicit QueryService(const data::CorpusSnapshot& snapshot,
                        ServiceOptions options = {});

  // Self-referential (planner -> engine, tasks -> this): pin the address.
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  const engine::SimSubEngine& engine() const { return engine_; }
  const QueryPlanner& planner() const { return planner_; }
  util::ThreadPool& pool() { return *pool_; }

  /// Enqueues one declarative request; the future resolves to its report
  /// once a worker has executed (or refused) it. Never throws for bad
  /// specs: unknown measure/algorithm names, invalid parameters, empty
  /// points or k <= 0 come back as an InvalidArgument-status report, an
  /// expired deadline as DeadlineExceeded, a tripped cancel flag as
  /// Cancelled. `spec.points`, `spec.cancel` (when set) and
  /// `spec.algorithm_options.rls_policy` (when set — it is a raw pointer
  /// read on the worker at resolve time, not deep-copied) must outlive the
  /// future's resolution; the rest of the spec is taken by value and moved
  /// through to the worker (pass a temporary and nothing is copied).
  std::future<engine::QueryReport> Submit(QuerySpec spec);

  /// Calls Submit for every spec — one pool task per spec — and returns
  /// the futures in order (futures[i] answers specs[i]); counts one batch
  /// in stats().batches_served. Results are bit-identical to calling RunOne
  /// on each spec sequentially, whatever the worker count, and every spec
  /// keeps its own outcome: a refusal, fault, cancellation or deadline hits
  /// that spec alone. Specs are not grouped into shared scans: with a task
  /// per spec an idle worker takes any queued spec, so a batch drains in
  /// about its total work over the worker count instead of waiting on its
  /// largest group.
  std::vector<std::future<engine::QueryReport>> SubmitBatch(
      std::span<const QuerySpec> specs);

  /// Resolves and executes one spec inline on the calling thread (no pool
  /// hop, queue_seconds == 0); the reference semantics for Submit.
  engine::QueryReport RunOne(const QuerySpec& spec);

  /// Snapshot of the cumulative counters. Safe to call at any time,
  /// including while batches are running on other threads.
  ServiceStats stats() const SIMSUB_EXCLUDES(scratch_mu_);

  /// Number of distinct (measure, algorithm) pairs currently cached.
  size_t resolved_cache_size() const SIMSUB_EXCLUDES(resolved_mu_);

  /// Cap on distinct cached (measure, algorithm) resolutions; reaching it
  /// flushes the cache (guards knob-sweeping clients — every distinct
  /// option value is its own entry — without an LRU). Specs carrying an
  /// in-memory SearchOptions::rls_policy pointer are never cached at all:
  /// a freed-and-reused address must not serve a stale policy.
  static constexpr size_t kMaxResolvedSpecs = 256;

 private:
  /// A resolved (measure, search) pair, immutable once constructed and
  /// shared by every request with the same measure/algorithm configuration.
  /// `search` is null for "topk-sub", which the engine drives by the
  /// measure alone (SimSubEngine::QueryTopKSubtrajectories).
  struct Resolved {
    std::unique_ptr<similarity::SimilarityMeasure> measure;
    std::unique_ptr<algo::SubtrajectorySearch> search;
  };

  /// Relaxed atomic twins of ServiceStats (see stats()).
  struct AtomicStats {
    std::atomic<int64_t> queries_served{0};
    std::atomic<int64_t> batches_served{0};
    std::atomic<int64_t> deadline_expired{0};
    std::atomic<int64_t> cancelled{0};
    std::atomic<int64_t> rejected{0};
    std::atomic<int64_t> failed{0};
    std::atomic<int64_t> spec_cache_hits{0};
    std::atomic<int64_t> spec_cache_misses{0};
    /// Indexed by PruningFilter value (none, rtree, grid).
    std::atomic<int64_t> plans[3]{};
    std::atomic<int64_t> lb_skipped{0};
    std::atomic<int64_t> dp_abandoned{0};
  };

  /// Validates + resolves through the per-service cache.
  [[nodiscard]] util::Result<std::shared_ptr<const Resolved>> ResolveSpec(
      const QuerySpec& spec) SIMSUB_EXCLUDES(resolved_mu_);

  /// The whole request lifecycle minus queueing, shared by Submit,
  /// SubmitBatch and RunOne: refusal (failpoint, cancel, queue deadline,
  /// validation, resolution), planning and execution, and the stats count
  /// of the outcome. `submitted` is when the request entered the service
  /// (Submit time, or now for RunOne).
  engine::QueryReport ServeSpec(
      const QuerySpec& spec,
      std::chrono::steady_clock::time_point submitted);

  /// Plans the spec and runs it through the engine with one
  /// engine::QueryOptions for either entry point. `deadline` is the
  /// absolute execution deadline derived from spec.deadline_ms (anchored at
  /// submit time; time_point::max() when the spec sets none) and is
  /// enforced inside the engine scan, not just in the queue.
  engine::QueryReport ExecuteSpec(
      const QuerySpec& spec, const Resolved& resolved,
      similarity::EvaluatorCache* scratch,
      std::chrono::steady_clock::time_point deadline);

  /// Scratch for the calling thread: the worker's own slot on a pool
  /// thread, otherwise a leased cache returned by the RAII lease below.
  similarity::EvaluatorCache* AcquireCallerScratch()
      SIMSUB_EXCLUDES(scratch_mu_);
  void ReleaseCallerScratch(similarity::EvaluatorCache* scratch)
      SIMSUB_EXCLUDES(scratch_mu_);
  struct ScratchLease;

  engine::SimSubEngine engine_;
  QueryPlanner planner_;
  std::unique_ptr<util::ThreadPool> pool_;
  /// One cache per pool worker, indexed by ThreadPool::WorkerIndex(); pool
  /// workers run one task at a time, so each slot stays single-threaded.
  std::vector<similarity::EvaluatorCache> worker_scratch_;
  /// Leased caches for foreign calling threads (RunOne from N dispatcher
  /// threads at once): `caller_scratch_` owns every cache ever created
  /// (stable addresses; also the stats() enumeration), `free_` holds the
  /// currently leasable ones.
  mutable util::Mutex scratch_mu_;
  std::vector<std::unique_ptr<similarity::EvaluatorCache>> caller_scratch_
      SIMSUB_GUARDED_BY(scratch_mu_);
  std::vector<similarity::EvaluatorCache*> caller_scratch_free_
      SIMSUB_GUARDED_BY(scratch_mu_);

  mutable util::Mutex resolved_mu_;
  std::unordered_map<std::string, std::shared_ptr<const Resolved>> resolved_
      SIMSUB_GUARDED_BY(resolved_mu_);

  AtomicStats stats_;
};

}  // namespace simsub::service

#endif  // SIMSUB_SERVICE_QUERY_SERVICE_H_
