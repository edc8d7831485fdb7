#include "service/query_service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "data/snapshot.h"
#include "similarity/registry.h"
#include "util/failpoint.h"
#include "util/status.h"

namespace simsub::service {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double SecondsSince(std::chrono::steady_clock::time_point from,
                    std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Cache key of a spec's resolvable part: measure + measure options +
/// algorithm + algorithm options. Doubles print with %.17g (round-trip
/// exact), so two specs share an entry iff they resolve identically.
/// Specs carrying an in-memory rls_policy pointer are never cached (see
/// ResolveSpec): a pointer identity can be reused by a different policy
/// after free, which would serve stale results forever.
std::string SpecKey(const QuerySpec& spec) {
  const similarity::MeasureOptions& m = spec.measure_options;
  const algo::SearchOptions& a = spec.algorithm_options;
  char buf[320];
  std::snprintf(
      buf, sizeof(buf), "|%.17g|%.17g|%.17g|%.17g|%.17g|%d|%d|%d|%llu|%.17g|",
      m.cdtw_band_fraction, m.edr_eps, m.lcss_eps, m.erp_gap.x, m.erp_gap.y,
      a.sizes_xi, a.posd_delay, a.random_s_samples,
      static_cast<unsigned long long>(a.random_s_seed), a.band_fraction);
  return spec.measure + buf + spec.algorithm + "|" + a.rls_policy_path;
}

/// The plans_* counter of a planner outcome.
util::Counter& PlanCounter(ServiceStats& stats, engine::PruningFilter filter) {
  switch (filter) {
    case engine::PruningFilter::kRTree:
      return stats.plans_rtree;
    case engine::PruningFilter::kInvertedGrid:
      return stats.plans_grid;
    case engine::PruningFilter::kNone:
      break;
  }
  return stats.plans_none;
}

}  // namespace

QueryService::QueryService(engine::SimSubEngine engine, ServiceOptions options)
    : engine_(std::move(engine)),
      planner_(engine_.corpus_stats()),
      pool_(std::make_unique<util::ThreadPool>(
          ResolveThreads(options.threads))) {}

QueryService::QueryService(const data::CorpusSnapshot& snapshot,
                           ServiceOptions options)
    : QueryService(engine::SimSubEngine(snapshot), options) {}

util::Result<std::shared_ptr<const QueryService::Resolved>>
QueryService::ResolveSpec(const QuerySpec& spec) {
  SIMSUB_FAILPOINT("service.resolve");
  // An in-memory RLS policy is identified only by its address, which the
  // allocator may hand to a different policy later (ABA): resolve fresh
  // every time instead of risking a stale cache hit. (Path-named policies
  // cache by path; retraining a file in place behaves like any file-backed
  // cache and needs a new path to take effect.)
  const bool cacheable = spec.algorithm_options.rls_policy == nullptr;
  std::string key = cacheable ? SpecKey(spec) : std::string();
  if (cacheable) {
    util::MutexLock lock(resolved_mu_);
    auto it = resolved_.find(key);
    if (it != resolved_.end()) {
      stats_.spec_cache_hits.Add();
      return it->second;
    }
  }
  stats_.spec_cache_misses.Add();

  // Construct outside the lock: registry work (and a possible RLS policy
  // file read) must not serialize every dispatcher.
  auto resolved = std::make_shared<Resolved>();
  auto measure = similarity::MakeMeasure(spec.measure, spec.measure_options);
  if (!measure.ok()) return measure.status();
  resolved->measure = std::move(*measure);
  if (spec.algorithm != "topk-sub") {
    auto search = algo::MakeSearch(spec.algorithm, resolved->measure.get(),
                                   spec.algorithm_options);
    if (!search.ok()) return search.status();
    resolved->search = std::move(*search);
  }

  if (!cacheable) return std::shared_ptr<const Resolved>(std::move(resolved));

  util::MutexLock lock(resolved_mu_);
  // Bound the cache against knob-sweeping clients (every distinct
  // floating-point option mints a new key): at the cap, drop everything
  // and start over. In-flight requests hold their own shared_ptr, so the
  // flush frees nothing that is still executing; the steady-state serving
  // mix is far below the cap and never hits this.
  if (resolved_.size() >= kMaxResolvedSpecs &&
      resolved_.find(key) == resolved_.end()) {
    resolved_.clear();
  }
  auto [it, inserted] = resolved_.emplace(key, std::move(resolved));
  // A racing dispatcher may have inserted first; its entry wins and ours is
  // dropped — both resolve identically, so either answer is correct.
  return it->second;
}

size_t QueryService::resolved_cache_size() const {
  util::MutexLock lock(resolved_mu_);
  return resolved_.size();
}

engine::QueryReport QueryService::ExecuteSpec(
    const QuerySpec& spec, const Resolved& resolved,
    similarity::EvaluatorCache* scratch,
    std::chrono::steady_clock::time_point deadline, int participants) {
  PlanDecision plan;
  if (spec.filter.has_value()) {
    plan.filter = *spec.filter;
    plan.estimated_selectivity = -1.0;
    plan.reason = "explicit filter";
  } else {
    plan = planner_.Plan(spec.points);
  }

  engine::QueryOptions eo;
  eo.k = spec.k;
  eo.filter = plan.filter;
  eo.threads = participants;
  eo.scratch = scratch;
  eo.prune = spec.prune;
  eo.cancel = spec.cancel;
  eo.deadline = deadline;
  engine::QueryReport report =
      resolved.search != nullptr
          ? engine_.Query(spec.points, *resolved.search, eo)
          : engine_.QueryTopKSubtrajectories(spec.points, *resolved.measure,
                                             spec.min_size, eo);
  report.planned_selectivity = plan.estimated_selectivity;
  report.plan_reason = plan.reason;
  return report;
}

engine::QueryReport QueryService::ServeSpec(
    const QuerySpec& spec, std::chrono::steady_clock::time_point submitted,
    int participants) {
  auto started = std::chrono::steady_clock::now();
  engine::QueryReport report;
  report.queue_seconds = SecondsSince(submitted, started);
  // Every refusal answers without running and counts itself in `counter`.
  auto refuse = [&report](util::Status status, util::Counter& counter) {
    report.status = std::move(status);
    counter.Add();
    return report;
  };

#if SIMSUB_FAILPOINTS_COMPILED
  // Fault-injection site for the whole submit path: a fired policy refuses
  // the request with a typed error before any validation or engine work.
  if (util::Status fp = util::FailpointFire("service.submit"); !fp.ok()) {
    return refuse(std::move(fp), stats_.failed);
  }
#endif

  if (spec.cancel != nullptr &&
      spec.cancel->load(std::memory_order_relaxed)) {
    return refuse(util::Status::Cancelled("request cancelled in queue"),
                  stats_.cancelled);
  }
  // Absolute deadline anchored at submit time. It is enforced in two
  // places: here (the request expired while queued — cheapest possible
  // refusal) and inside the engine scan via ExecuteSpec (the request
  // started on time but ran long — stops at per-trajectory granularity
  // with partial results). Both come back as DeadlineExceeded.
  const auto deadline = DeadlineAfter(submitted, spec.deadline_ms);
  if (started >= deadline) {
    return refuse(
        util::Status::DeadlineExceeded(
            "deadline expired after " +
            std::to_string(report.queue_seconds * 1e3) +
            " ms in queue (deadline " + std::to_string(spec.deadline_ms) +
            " ms)"),
        stats_.deadline_expired);
  }

  util::Status invalid;
  if (spec.points.empty()) {
    invalid = util::Status::InvalidArgument("spec.points must be non-empty");
  } else if (!std::all_of(spec.points.begin(), spec.points.end(),
                          [](const geo::Point& p) {
                            return std::isfinite(p.x) && std::isfinite(p.y);
                          })) {
    invalid = util::Status::InvalidArgument(
        "spec.points coordinates must be finite");
  } else if (spec.k <= 0) {
    invalid = util::Status::InvalidArgument("spec.k must be > 0, got " +
                                            std::to_string(spec.k));
  } else if (spec.min_size < 1) {
    invalid = util::Status::InvalidArgument(
        "spec.min_size must be >= 1, got " + std::to_string(spec.min_size));
  } else if (!std::isfinite(spec.deadline_ms) || spec.deadline_ms < 0.0) {
    invalid = util::Status::InvalidArgument(
        "spec.deadline_ms must be finite and >= 0");
  }
  if (!invalid.ok()) return refuse(std::move(invalid), stats_.rejected);

  auto resolution = ResolveSpec(spec);
  if (!resolution.ok()) return refuse(resolution.status(), stats_.rejected);
  const Resolved& resolved = **resolution;

#if SIMSUB_FAILPOINTS_COMPILED
  // Simulates a failure between resolution and execution (e.g. the
  // request's scratch allocation).
  if (util::Status fp = util::FailpointFire("service.scratch"); !fp.ok()) {
    return refuse(std::move(fp), stats_.failed);
  }
#endif
  // Request-scoped DP scratch: reused across the trajectories this request
  // scans, shared with no other request.
  similarity::EvaluatorCache scratch;
  const double queue_seconds = report.queue_seconds;
  report = ExecuteSpec(spec, resolved, &scratch, deadline, participants);
  report.queue_seconds = queue_seconds;
  stats_.evaluator_reuses.Add(scratch.reuse_count());
  stats_.evaluator_allocs.Add(scratch.alloc_count());

  switch (report.status.code()) {
    case util::StatusCode::kOk:
      stats_.queries_served.Add();
      PlanCounter(stats_, report.filter_used).Add();
      stats_.lb_skipped.Add(report.lb_skipped);
      stats_.dp_abandoned.Add(report.dp_abandoned);
      break;
    case util::StatusCode::kCancelled:
      stats_.cancelled.Add();
      break;
    case util::StatusCode::kDeadlineExceeded:
      stats_.deadline_expired.Add();
      break;
    default:
      stats_.failed.Add();
      break;
  }
  return report;
}

std::future<engine::QueryReport> QueryService::Submit(QuerySpec spec) {
  auto promise = std::make_shared<std::promise<engine::QueryReport>>();
  std::future<engine::QueryReport> future = promise->get_future();
  auto submitted = std::chrono::steady_clock::now();
  // Move the spec all the way through to the worker: the old
  // by-const-reference signature copied it twice (parameter copy + lambda
  // capture), and a spec carries strings plus the points span — measurable
  // allocation on the hot submit path.
  pool_->Submit([this, promise, submitted, spec = std::move(spec)]() {
    try {
      promise->set_value(ServeSpec(spec, submitted, pool_->size()));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return future;
}

std::vector<std::future<engine::QueryReport>> QueryService::SubmitBatch(
    std::span<const QuerySpec> specs) {
  std::vector<std::future<engine::QueryReport>> futures;
  futures.reserve(specs.size());
  for (const QuerySpec& spec : specs) futures.push_back(Submit(spec));
  stats_.batches_served.Add();
  return futures;
}

engine::QueryReport QueryService::RunOne(const QuerySpec& spec) {
  return ServeSpec(spec, std::chrono::steady_clock::now(), 1);
}

}  // namespace simsub::service
