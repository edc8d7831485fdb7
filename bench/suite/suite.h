// Shared machinery of simsub_bench: run configuration, outcome and metric
// collection, request construction, reference hashing, and the two passes
// every workload shares — the answer-quality pass (mean approximation ratio,
// DP cost per cell) and, for the service workloads, the per-layer replay.
#ifndef SIMSUB_BENCH_SUITE_SUITE_H_
#define SIMSUB_BENCH_SUITE_SUITE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "similarity/measure.h"
#include "trace.h"
#include "workloads.h"

namespace simsub::suite {

using Clock = std::chrono::steady_clock;

/// Latency limit on a served answer: answers slower than this do not count
/// towards goodput.
inline constexpr double kLatencyLimitMs = 100.0;
/// Per-request deadline of the serving workloads.
inline constexpr double kDeadlineMs = 250.0;
/// Set-up runs back to back at least kMinSetups times, and again until
/// kSetupBudgetSeconds have passed; setup_s is the median. The serving and
/// batch set-ups take milliseconds, and a median of three such short
/// intervals moves 20-36% between runs on a shared machine.
inline constexpr int kMinSetups = 3;
inline constexpr double kSetupBudgetSeconds = 1.0;
/// Calling threads for the in-process reference answers.
inline constexpr int kReferenceThreads = 4;

/// Time of ClockSampler's kernel at the reference clock: about its fastest
/// on the 4-vCPU Xeon VM the bounds were measured on.
inline constexpr double kReferenceKernelUs = 55.0;

/// Measures how fast the machine runs while a workload runs. The host of a
/// shared VM moves its clock in steps of a few percent, by up to 40% and
/// for stretches of seconds to minutes, and a slow stretch often covers a
/// whole run. A background thread times a fixed kernel every 50 ms for as
/// long as the sampler lives. The kernel is a serial chain of scalar
/// floating-point steps, like the DP rows the workloads run, compiled in
/// this directory only, so changes to the program under test cannot move
/// it. It takes about 0.5% of one core.
class ClockSampler {
 public:
  ClockSampler();
  ~ClockSampler();
  ClockSampler(const ClockSampler&) = delete;
  ClockSampler& operator=(const ClockSampler&) = delete;

  /// The factor that turns a time measured over [from, to] into time at
  /// the reference clock: kReferenceKernelUs over the median kernel time
  /// sampled in that interval, or the sample nearest to it when none fell
  /// inside. Below 1 when the machine ran slower than the reference.
  double ToReference(Clock::time_point from, Clock::time_point to) const;

 private:
  void Loop();

  mutable std::mutex mu_;
  std::vector<std::pair<Clock::time_point, double>> samples_;  // by mu_
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct RunConfig {
  WorkloadDef def;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: an untraced phase of seconds/2, then a traced phase of
  /// seconds/2 that feeds the per-layer metrics.
  bool traced = false;
  /// Flip one reference answer (self-test: the run must then fail).
  bool corrupt_reference = false;
  /// Directory for the run's scratch files (snapshot, policy).
  std::string workdir = ".";
};

/// Outcome of one run: request accounting plus every metric measured,
/// keyed by its BENCHMARK.json name.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Answers that differ from the in-process reference, in any pass; those
  /// of the measured phases also count in `failed`.
  int64_t mismatched = 0;
  std::map<std::string, double> metrics;

  void Set(const std::string& name, double value) { metrics[name] = value; }
};

/// Sets ok_ratio, the share of a measured phase's attempts answered OK and
/// equal to the reference: 1 - (shed + deadline + transport errors +
/// abandoned + unsent + mismatched) / attempted. It is the complement of a
/// failure ratio, so that it is never 0 and a relative bound applies.
void SetOkRatio(int64_t attempted, int64_t failed, RunResult* result);

/// Sets setup_s at the reference clock from the measured set-up time
/// (ClockSampler::ToReference over the set-ups), and prints both.
void SetSetup(double to_reference, double measured_s, RunResult* result);

/// Sets p50_ms and p99_ms, and qps when the loop is closed, at the
/// reference clock from the measured values of a phase, and prints both.
/// An open loop's qps is set by its offered rate, not by the clock.
void SetPhaseTimings(double to_reference, double p50_ms, double p99_ms,
                     std::optional<double> closed_loop_qps, RunResult* result);

/// The workloads. Their end-to-end timings (setup_s, p50_ms, p99_ms, and
/// qps of the closed loops) are reported at the reference clock of
/// `clock`, and each run prints the measured values and the factor.
RunResult RunServe(const RunConfig& config, const ClockSampler& clock,
                   trace::Recorder& recorder);
RunResult RunBatch(const RunConfig& config, const ClockSampler& clock,
                   trace::Recorder& recorder);
RunResult RunPairs(const RunConfig& config, const ClockSampler& clock,
                   trace::Recorder& recorder);

/// Prints the run's inputs: sizes and the request-stream hash.
void AnnounceInputs(const RunConfig& config, const Inputs& inputs);

/// Prints the serving capacity C of serve_steady's request pool (2 workers
/// over the mean inline RunOne time, median of 5 repetitions).
int MeasureCapacity(const std::string& workdir);

// --- Statistics ------------------------------------------------------------

/// Nearest-rank quantile (0 for an empty sample).
double Percentile(std::vector<double> values, double q);

/// Samples per window of WindowedPercentile: enough that a p99 has ten
/// samples beyond it.
inline constexpr size_t kWindowSamples = 1000;

/// The median, over consecutive windows of kWindowSamples samples (in time
/// order; the last window takes the remainder), of each window's
/// q-quantile. A slowdown of the shared machine that lasts part of a run
/// then moves one window, not the reported value. Below two windows it is
/// the plain quantile.
double WindowedPercentile(const std::vector<double>& in_time_order, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
double Seconds(Clock::duration d);
double Millis(Clock::duration d);
/// Whether set-up runs once more after `done` repetitions, the first of
/// which began at `first_began` (see kMinSetups).
bool AnotherSetup(size_t done, Clock::time_point first_began);
/// Peak resident set size of this process.
double PeakRssMb();

// --- Requests and references ------------------------------------------------

/// The request for `item`: its spec template over its query, kTopK
/// results, planner-chosen filter unless `filter` is given.
service::QuerySpec MakeSpec(const WorkloadDef& def, const Inputs& inputs,
                            const Item& item, const std::string& policy_path,
                            std::optional<engine::PruningFilter> filter,
                            double deadline_ms);

/// FNV-1a over an answer's entries (ids, ranges, distance bit patterns).
uint64_t HashResults(const engine::QueryReport& report);

/// In-process reference answers: QueryService::RunOne on every spec, run
/// from `threads` calling threads. Returns the reports in spec order.
std::vector<engine::QueryReport> ReferenceAnswers(
    service::QueryService& service, std::vector<service::QuerySpec> specs,
    int threads);

/// A scratch file path under the run's workdir, unique per process.
std::string ScratchPath(const RunConfig& config, const char* stem);

// --- Shared passes -----------------------------------------------------------

/// One answer to score: the returned range of `data` for `query`, and the
/// distance the program reported for it.
struct ScoredAnswer {
  int spec = 0;
  std::span<const geo::Point> data;
  std::span<const geo::Point> query;
  geo::SubRange range;
  double distance = 0.0;
  /// False for RLS-Skip, whose reported distance is a simplified-prefix
  /// estimate rather than the range's distance.
  bool distance_exact = true;
};

/// Scores every answer against the exact optimum of its pair with
/// eval::EvaluateRank: sets mean_ar and similarity.ns_per_cell.<measure>
/// (EvaluateRank time over its n(n+1)/2 * |query| DP cells). An exact
/// answer whose reported distance is not the distance of its range is a
/// mismatch.
void QualityPass(const WorkloadDef& def,
                 const std::vector<ScoredAnswer>& answers,
                 trace::Recorder& recorder, RunResult* result);

/// Top-1 answers of the reference reports, for QualityPass.
std::vector<ScoredAnswer> TopAnswers(
    const WorkloadDef& def, const Inputs& inputs,
    const std::vector<engine::QueryReport>& reports);

/// Per-report layer counters (engine keep/skip/abandon ratios, planner
/// shares and selectivity error) over the answers of a measured phase.
void ReportCounters(const std::vector<engine::QueryReport>& reports,
                    int64_t corpus_size, RunResult* result);

/// Service cache hit ratios over a measured phase, from the stats taken
/// before and after it.
void ServiceCounters(const service::ServiceStats& before,
                     const service::ServiceStats& after, RunResult* result);

/// Replays a sample of a service workload's requests straight through the
/// layers under the service — registries, planner, wire codec, engine,
/// lower bounds, per-candidate search — with a span around every call, and
/// sets the per-layer metrics those calls measure. Engine answers that
/// differ from the reference count as mismatches.
void ReplayLayers(const RunConfig& config, const Inputs& inputs,
                  const std::vector<service::QuerySpec>& specs,
                  const std::vector<engine::QueryReport>& reference,
                  const service::QueryService& service,
                  trace::Recorder& recorder, RunResult* result);

}  // namespace simsub::suite

#endif  // SIMSUB_BENCH_SUITE_SUITE_H_
