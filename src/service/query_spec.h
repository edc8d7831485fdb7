// The declarative request object of the serving layer.
//
// A QuerySpec is fully self-describing: it names its similarity measure and
// search algorithm (resolved through similarity::MakeMeasure and
// algo::MakeSearch inside the service, with per-service caching of the
// resolved pairs) and carries every execution knob — k, filter override,
// prune flag, deadline, cancellation — so a single batch can mix measures,
// algorithms and deadlines freely, and a spec round-trips 1:1 from CLI
// flags or a wire request. This replaces the old (span, shared-algorithm,
// knobs) call-site triple, where one SubtrajectorySearch& was wired across
// an entire batch.
#ifndef SIMSUB_SERVICE_QUERY_SPEC_H_
#define SIMSUB_SERVICE_QUERY_SPEC_H_

#include <atomic>
#include <chrono>
#include <optional>
#include <span>
#include <string>

#include "algo/registry.h"
#include "engine/engine.h"
#include "geo/point.h"
#include "similarity/registry.h"

namespace simsub::service {

/// One declarative query. The points span, the cancel flag and the
/// algorithm_options.rls_policy pointer (the latter two when set) must stay
/// valid until the request's future resolves; everything else is copied
/// into the request.
struct QuerySpec {
  /// Query trajectory points (non-empty).
  std::span<const geo::Point> points;

  /// similarity::MakeMeasure name ("dtw", "frechet", "cdtw", ...).
  std::string measure = "dtw";
  similarity::MeasureOptions measure_options;

  /// algo::MakeSearch name ("exacts", "sizes", "pss", "rls-skip", ...), or
  /// the service-level "topk-sub": the subtrajectory-level top-k query
  /// (engine::SimSubEngine::QueryTopKSubtrajectories) driven by the measure
  /// alone, where one data trajectory may contribute several results and
  /// `min_size` filters degenerate near-single-point answers. Both kinds
  /// run through the engine's one scan, so k, filter, prune, the deadline
  /// and the cancel flag mean the same for either.
  std::string algorithm = "exacts";
  algo::SearchOptions algorithm_options;

  /// Number of results (> 0).
  int k = 10;
  /// Minimum subtrajectory size (>= 1); consulted by "topk-sub" only.
  int min_size = 1;

  /// Explicit pruning filter; nullopt lets the planner decide per query.
  std::optional<engine::PruningFilter> filter;
  /// Per-request lower-bound-cascade toggle (results are bit-identical
  /// either way; off is only useful for measurement).
  bool prune = true;

  /// Relative deadline in milliseconds, measured from Submit(). Enforced
  /// end-to-end: a request still queued when it expires is answered with a
  /// DeadlineExceeded report instead of running, and a request that starts
  /// on time but runs past the deadline stops mid-scan at per-trajectory
  /// granularity, returning DeadlineExceeded with the partial results
  /// accumulated so far (see engine::QueryOptions::deadline). Must be
  /// finite and >= 0; 0 = no deadline, and so is a budget beyond the
  /// clock's range (see DeadlineAfter).
  double deadline_ms = 0.0;

  /// Caller-owned cooperative cancellation flag, checked before execution
  /// and between per-trajectory searches inside the scan. A tripped flag
  /// yields a Cancelled report (partial results, do not use).
  const std::atomic<bool>* cancel = nullptr;
};

/// The absolute deadline of a request that started at `start` (a
/// steady_clock reading) with a relative budget of `deadline_ms`:
/// time_point::max(), i.e. no deadline, for 0, for a budget the clock
/// cannot represent past `start`, and for the negative, NaN and infinite
/// budgets a service refuses. Never converts an out-of-range double to an
/// integer and never overflows the time_point.
inline std::chrono::steady_clock::time_point DeadlineAfter(
    std::chrono::steady_clock::time_point start, double deadline_ms) {
  using Clock = std::chrono::steady_clock;
  const std::chrono::duration<double, std::milli> budget(deadline_ms);
  // The room comparison runs in double nanoseconds and is false for NaN and
  // +inf; a budget below the room truncates to integer nanoseconds that
  // still fit after `start`.
  if (deadline_ms > 0.0 && budget < Clock::time_point::max() - start) {
    return start + std::chrono::duration_cast<Clock::duration>(budget);
  }
  return Clock::time_point::max();
}

}  // namespace simsub::service

#endif  // SIMSUB_SERVICE_QUERY_SPEC_H_
