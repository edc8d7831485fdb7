// batch_exact: one caller issues QueryService::SubmitBatch with one full
// tile per spec key, waits for every answer, and repeats — a closed loop
// over the batch API with the filter forced to none (the exact-answer full
// scan), so the engine's tiled scan, its lower-bound cascade and the DP
// kernels do the work while network, planner and index are bypassed.
#include <cstdio>
#include <thread>

#include "suite.h"

namespace simsub::suite {
namespace {

// Completion poll interval: well under the answers' latency (tens of ms),
// and cheap for the single caller thread.
constexpr auto kPollInterval = std::chrono::microseconds(100);

struct BatchPhase {
  std::vector<double> latency_ms;  // per answered spec: submit -> ready
  std::vector<double> batch_ms;    // per batch: submit -> last answer
  std::vector<double> lag_ms;      // per batch: previous batch done -> submit
  std::vector<double> submit_us;   // per batch: SubmitBatch call
  std::vector<double> queue_ms;
  std::vector<double> exec_ms;
  std::vector<engine::QueryReport> reports;  // answered, results dropped
  int64_t attempted = 0;
  int64_t mismatched = 0;
  double elapsed_s = 0.0;
};

BatchPhase RunBatchPhase(const Inputs& inputs, double seconds, size_t first_batch,
                         service::QueryService& service,
                         const std::vector<service::QuerySpec>& specs,
                         const std::vector<uint64_t>& reference,
                         trace::Recorder& recorder) {
  BatchPhase phase;
  const auto start = Clock::now();
  auto previous_done = start;
  // At least one batch; then batches until the phase length has passed.
  for (size_t b = first_batch;
       b == first_batch || Seconds(Clock::now() - start) < seconds; ++b) {
    const std::vector<int>& batch = inputs.batches[b % inputs.batches.size()];
    std::vector<service::QuerySpec> batch_specs;
    for (int item : batch) batch_specs.push_back(specs[static_cast<size_t>(item)]);

    const auto submitted = Clock::now();
    std::vector<std::future<engine::QueryReport>> futures =
        service.SubmitBatch(batch_specs);
    const auto returned = Clock::now();
    phase.attempted += static_cast<int64_t>(batch.size());
    phase.lag_ms.push_back(Millis(submitted - previous_done));
    phase.submit_us.push_back(Millis(returned - submitted) * 1e3);

    const uint64_t trace_id = recorder.NewId();
    std::vector<bool> done(futures.size(), false);
    size_t remaining = futures.size();
    std::vector<std::pair<Clock::time_point, size_t>> completions;
    while (remaining > 0) {
      for (size_t i = 0; i < futures.size(); ++i) {
        if (done[i] || futures[i].wait_for(std::chrono::seconds(0)) !=
                           std::future_status::ready) {
          continue;
        }
        const auto ready = Clock::now();
        done[i] = true;
        --remaining;
        completions.push_back({ready, i});
        engine::QueryReport report = futures[i].get();
        const auto item = static_cast<size_t>(batch[i]);
        if (!report.status.ok()) continue;
        if (HashResults(report) != reference[item]) {
          ++phase.mismatched;
          continue;
        }
        phase.latency_ms.push_back(Millis(ready - submitted));
        phase.queue_ms.push_back(report.queue_seconds * 1e3);
        phase.exec_ms.push_back(report.seconds * 1e3);
        report.results.clear();
        phase.reports.push_back(std::move(report));
      }
      if (remaining > 0) std::this_thread::sleep_for(kPollInterval);
    }
    previous_done = Clock::now();
    phase.batch_ms.push_back(Millis(previous_done - submitted));

    if (recorder.enabled()) {
      const uint64_t root = recorder.RecordInterval("batch.request", trace_id, 0,
                                                    submitted, previous_done);
      recorder.RecordInterval("QueryService::SubmitBatch", trace_id, root,
                              submitted, returned);
      for (const auto& [ready, i] : completions) {
        const auto& spec = batch_specs[i];
        recorder.RecordInterval("batch.query", trace_id, root, submitted, ready,
                                {trace::Str("measure", spec.measure),
                                 trace::Str("algorithm", spec.algorithm)});
      }
    }
  }
  phase.elapsed_s = Seconds(previous_done - start);
  return phase;
}

void AddPhase(const BatchPhase& phase, RunResult* result) {
  result->attempted += phase.attempted;
  result->failed += phase.attempted - static_cast<int64_t>(phase.latency_ms.size());
  result->mismatched += phase.mismatched;
}

}  // namespace

RunResult RunBatch(const RunConfig& config, const ClockSampler& clock,
                   trace::Recorder& recorder) {
  const WorkloadDef& def = config.def;
  RunResult result;
  const Inputs inputs = MakeInputs(def, config.seed);
  AnnounceInputs(config, inputs);

  // Set-up: engine over the in-memory corpus, then the service (pool,
  // indexes). The corpus copy the engine takes ownership of is made first,
  // outside the timed region.
  std::unique_ptr<service::QueryService> service;
  std::vector<double> setup_s;
  const auto setup_began = Clock::now();
  while (AnotherSetup(setup_s.size(), setup_began)) {
    service.reset();
    std::vector<geo::Trajectory> database = inputs.corpus.trajectories;
    const uint64_t trace_id = recorder.NewId();
    const auto t0 = Clock::now();
    engine::SimSubEngine engine(std::move(database));
    const auto t1 = Clock::now();
    service::ServiceOptions options;
    options.threads = def.service_threads;
    service = std::make_unique<service::QueryService>(std::move(engine), options);
    const auto t2 = Clock::now();
    const uint64_t root = recorder.RecordInterval("setup", trace_id, 0, t0, t2);
    recorder.RecordInterval("engine::SimSubEngine", trace_id, root, t0, t1);
    recorder.RecordInterval("service::QueryService", trace_id, root, t1, t2);
    setup_s.push_back(Seconds(t2 - t0));
  }
  SetSetup(clock.ToReference(setup_began, Clock::now()), Median(setup_s), &result);
  result.Set("service.build_s", Median(setup_s));

  std::vector<service::QuerySpec> specs;
  for (const Item& item : inputs.items) {
    specs.push_back(MakeSpec(def, inputs, item, "", engine::PruningFilter::kNone, 0.0));
  }
  const std::vector<engine::QueryReport> reference =
      ReferenceAnswers(*service, specs, kReferenceThreads);
  std::vector<uint64_t> hashes;
  for (const engine::QueryReport& r : reference) {
    if (!r.status.ok()) ++result.mismatched;
    hashes.push_back(HashResults(r));
  }
  if (config.corrupt_reference) hashes.front() ^= 1;

  recorder.set_enabled(false);
  // Warm-up: one batch (first use of every worker's evaluator scratch).
  BatchPhase warmup =
      RunBatchPhase(inputs, 0.0, 0, *service, specs, hashes, recorder);
  result.mismatched += warmup.mismatched;

  const bool traced = config.traced;
  const double measured_s = traced ? config.seconds / 2 : config.seconds;
  const auto phase_began = Clock::now();
  BatchPhase untraced =
      RunBatchPhase(inputs, measured_s, 1, *service, specs, hashes, recorder);
  AddPhase(untraced, &result);
  SetOkRatio(untraced.attempted,
             untraced.attempted - static_cast<int64_t>(untraced.latency_ms.size()),
             &result);
  std::printf("phase: %lld specs in %zu batches, %zu latency samples\n",
              static_cast<long long>(untraced.attempted), untraced.lag_ms.size(),
              untraced.latency_ms.size());
  // The caller waits for the whole batch, so the median is taken over batch
  // round trips. Per-answer latencies cluster by tile (a tile's answers all
  // complete together), which puts their median on the edge between two
  // tiles; the tail is taken over the answers (>= 1000 per run).
  SetPhaseTimings(clock.ToReference(phase_began, Clock::now()),
                  Percentile(untraced.batch_ms, 0.5),
                  WindowedPercentile(untraced.latency_ms, 0.99),
                  static_cast<double>(untraced.latency_ms.size()) / untraced.elapsed_s,
                  &result);

  if (traced) {
    recorder.set_enabled(true);
    const service::ServiceStats before = service->stats();
    BatchPhase phase =
        RunBatchPhase(inputs, measured_s, 1, *service, specs, hashes, recorder);
    const service::ServiceStats after = service->stats();
    AddPhase(phase, &result);
    result.Set("loadgen.offered_qps",
               static_cast<double>(phase.attempted) / phase.elapsed_s);
    result.Set("loadgen.send_lag_ms.p50", Percentile(phase.lag_ms, 0.5));
    result.Set("loadgen.send_lag_ms.p99", Percentile(phase.lag_ms, 0.99));
    result.Set("service.queue_ms.p50", Percentile(phase.queue_ms, 0.5));
    result.Set("service.queue_ms.p99", Percentile(phase.queue_ms, 0.99));
    result.Set("service.exec_ms.p50", Percentile(phase.exec_ms, 0.5));
    result.Set("service.exec_ms.p99", Percentile(phase.exec_ms, 0.99));
    result.Set("service.submit_batch_us", Mean(phase.submit_us));
    ServiceCounters(before, after, &result);
    ReportCounters(phase.reports, def.corpus_size, &result);
    const double untraced_p50 = Percentile(untraced.latency_ms, 0.5);
    if (untraced_p50 > 0) {
      result.Set("trace.overhead_ratio",
                 Percentile(phase.latency_ms, 0.5) / untraced_p50);
    }
  }

  QualityPass(def, TopAnswers(def, inputs, reference), recorder, &result);
  if (traced) {
    ReplayLayers(config, inputs, specs, reference, *service, recorder, &result);
  }
  service.reset();
  result.Set("peak_rss_mb", PeakRssMb());
  return result;
}

}  // namespace simsub::suite
