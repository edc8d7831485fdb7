// The persistent serving layer over SimSubEngine: a fixed worker pool, a
// declarative async request API (QuerySpec -> std::future<QueryReport>), a
// batch API, per-query planning, and live serving counters.
//
// SimSubEngine::Query answers one query; under database-level traffic
// (ROADMAP north star, paper Section 6.2) the caller used to pay thread
// spawning per query. QueryService amortizes it: workers live as long as
// the service, the planner picks the pruning filter per query instead of
// hardcoding one per call site, and resolved (measure, search) pairs are
// cached per service so a QuerySpec costs two registry lookups only on its
// first use. Each executed request owns one similarity::EvaluatorCache on
// its stack, whose DP rows persist across the trajectories it scans.
//
// Determinism: a SubmitBatch() over specs resolves to exactly what running
// each spec through RunOne() sequentially returns (same entries,
// bit-identical distances, and the same trajectories_scanned and
// lb_skipped), regardless of worker count, how many dispatcher threads
// submitted, or how many workers helped each scan — the engine commits a
// scan's candidates in visit order whoever searched them, its top-k order
// is total, the planner is a pure function of the query and database
// statistics, and resolved searches are immutable (every algorithm,
// "random-s" included, is a pure function of its data and query). Only
// dp_abandoned depends on timing.
//
// Threading contract: every public method is safe to call from multiple
// application threads concurrently — Submit/SubmitBatch/RunOne/stats may
// all overlap. A request submitted through Submit or SubmitBatch executes
// on one pool worker, and idle workers of the same pool may join its scan
// as helpers (engine::QueryOptions::threads, capped at the pool size): a
// helper joins only while that scan runs, steps aside between candidates
// when other tasks are queued, and the request never waits for a helper
// that has not joined, so a busy pool serves every request on one worker
// each. RunOne scans on the calling thread alone. ServiceStats is
// made of util::Counter fields (stats() is safe to read during a running
// batch), and a request's scratch lives and dies with the request, serving
// its own worker only (helpers keep their own). Calling RunOne from inside
// one of the service's own pool tasks is safe: it runs inline on that
// worker. Blocking on a Submit() future from inside a pool task is NOT
// safe (the task would wait on work queued behind itself).
#ifndef SIMSUB_SERVICE_QUERY_SERVICE_H_
#define SIMSUB_SERVICE_QUERY_SERVICE_H_

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
#include "util/counter.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace simsub::data {
class CorpusSnapshot;
}  // namespace simsub::data

namespace simsub::service {

struct ServiceOptions {
  /// Worker pool width; 0 = hardware concurrency.
  int threads = 0;
};

/// The service's live counters, each bumped with a relaxed Add() where its
/// event happens; stats() returns a copy. At quiescence every request that
/// came back with a report, through Submit, SubmitBatch or RunOne, counts
/// exactly once: queries_served + deadline_expired + cancelled + rejected +
/// failed == reports returned.
struct ServiceStats {
  /// Requests that executed to completion (status OK).
  util::Counter queries_served;
  util::Counter batches_served;
  /// Requests answered without running: expired in the queue, cancelled
  /// before/while running, or rejected by spec validation / the registries.
  util::Counter deadline_expired;
  util::Counter cancelled;
  util::Counter rejected;
  /// Requests that started executing and came back with a non-OK status
  /// other than Cancelled/DeadlineExceeded (those count above).
  util::Counter failed;
  /// QuerySpec resolutions: cache hits vs full registry constructions.
  util::Counter spec_cache_hits;
  util::Counter spec_cache_misses;
  /// Evaluator scratch reuses vs fresh allocations, summed over every
  /// executed request's own cache (scan helpers' caches are not counted).
  util::Counter evaluator_reuses;
  util::Counter evaluator_allocs;
  /// Served queries per planner outcome (engine::PruningFilter).
  util::Counter plans_none;
  util::Counter plans_rtree;
  util::Counter plans_grid;
  /// Cumulative lower-bound cascade counters across all served queries
  /// (see engine::QueryReport::lb_skipped / dp_abandoned).
  util::Counter lb_skipped;
  util::Counter dp_abandoned;
};

class QueryService {
 public:
  /// Takes ownership of the engine; it builds the R-tree and the inverted
  /// grid on the first query whose plan needs each, so set-up builds
  /// neither.
  QueryService(engine::SimSubEngine engine, ServiceOptions options = {});

  /// Serves directly over an opened columnar snapshot (data/snapshot.h):
  /// the engine materializes its AoS database from the mapped columns, SoA
  /// reads stay zero-copy over the mapping, and the planner consumes the
  /// persisted corpus statistics instead of a fresh collection pass. The
  /// snapshot object may be dropped after construction.
  explicit QueryService(const data::CorpusSnapshot& snapshot,
                        ServiceOptions options = {});

  // Pool tasks point back at the service: pin its address.
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
  /// through to the worker (pass a temporary and nothing is copied). Idle
  /// workers may help scan (see the threading contract above). An exception
  /// raised while executing, on the worker or on a helper, resolves the
  /// future with that exception once every helper has stopped.
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
  /// hop, no scan helpers, queue_seconds == 0); the reference semantics for
  /// Submit.
  engine::QueryReport RunOne(const QuerySpec& spec);

  /// Snapshot of the cumulative counters. Safe to call at any time,
  /// including while batches are running on other threads.
  ServiceStats stats() const { return stats_; }

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

  /// Validates + resolves through the per-service cache.
  [[nodiscard]] util::Result<std::shared_ptr<const Resolved>> ResolveSpec(
      const QuerySpec& spec) SIMSUB_EXCLUDES(resolved_mu_);

  /// The whole request lifecycle minus queueing, shared by Submit,
  /// SubmitBatch and RunOne: refusal (failpoint, cancel, queue deadline,
  /// validation, resolution), planning and execution on the request's own
  /// evaluator scratch, and the stats count of the outcome. `submitted` is
  /// when the request entered the service (Submit time, or now for RunOne).
  /// `participants` caps the scan's participants (engine::QueryOptions::
  /// threads): the pool size for requests executing on the pool, whose
  /// idle workers may join, and 1 to scan on the calling thread alone.
  engine::QueryReport ServeSpec(
      const QuerySpec& spec, std::chrono::steady_clock::time_point submitted,
      int participants);

  /// Plans the spec and runs it through the engine with one
  /// engine::QueryOptions for either entry point. `deadline` is the
  /// absolute execution deadline derived from spec.deadline_ms (anchored at
  /// submit time; time_point::max() when the spec sets none) and is
  /// enforced inside the engine scan, not just in the queue.
  engine::QueryReport ExecuteSpec(
      const QuerySpec& spec, const Resolved& resolved,
      similarity::EvaluatorCache* scratch,
      std::chrono::steady_clock::time_point deadline, int participants);

  engine::SimSubEngine engine_;
  QueryPlanner planner_;
  std::unique_ptr<util::ThreadPool> pool_;

  mutable util::Mutex resolved_mu_;
  std::unordered_map<std::string, std::shared_ptr<const Resolved>> resolved_
      SIMSUB_GUARDED_BY(resolved_mu_);

  ServiceStats stats_;
};

}  // namespace simsub::service

#endif  // SIMSUB_SERVICE_QUERY_SERVICE_H_
