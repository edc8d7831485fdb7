// Database-level serving throughput: a batch of queries through the
// service::QueryService (persistent worker pool, planner-chosen pruning,
// per-request evaluator scratch) versus the same queries issued the naive
// way — one sequential full-scan SimSubEngine::Query(threads=1) per call,
// the status quo before the service layer existed.
//
// Checks two acceptance properties and exits non-zero when either fails:
//   1. the batch path is at least --min_speedup times faster end-to-end;
//   2. SubmitBatch results are bit-identical to serving the same specs
//      sequentially through QueryService::RunOne (determinism under
//      concurrency).
// The pruned service path may return different (approximate) answers than
// the full-scan baseline — that recall difference is reported, not asserted
// (it is the same trade the paper makes for its bounding-box filter).
//
// Emits machine-readable BENCH_service.json (see bench/README.md for the
// schema).
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "common.h"
#include "data/generator.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "geo/simd_dispatch.h"
#include "service/query_service.h"
#include "similarity/registry.h"
#include "util/stats.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  using namespace simsub;

  int trajectories = 400;
  int queries = 64;
  int k = 10;
  int threads = 0;
  std::string measure_name = "dtw";
  double min_speedup = 2.0;
  std::string out = "BENCH_service.json";
  util::FlagSet flags(
      "Service throughput: QueryService batch vs naive sequential queries");
  flags.AddInt("trajectories", &trajectories, "database size");
  flags.AddInt("queries", &queries, "batch size");
  flags.AddInt("k", &k, "results per query");
  flags.AddInt("threads", &threads, "pool width (0 = hardware)");
  flags.AddString("measure", &measure_name, "similarity measure");
  flags.AddDouble("min_speedup", &min_speedup,
                  "fail when batch speedup is below this (0 disables)");
  flags.AddString("out", &out, "JSON output path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  bench::PrintBanner(
      "bench_service_throughput",
      "Section 6.2-style database throughput behind the service layer",
      "trajectories=" + std::to_string(trajectories) +
          " queries=" + std::to_string(queries) + " k=" + std::to_string(k) +
          " measure=" + measure_name);

  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, trajectories, 9100);
  // Localized query slices (the paper's G1 length group): the selectivity
  // spread makes the planner's per-query choice matter.
  auto workload = data::SampleWorkloadWithQueryLength(
      dataset, queries, data::LengthGroup{30, 45, "G1"}, 9101);
  auto measure = similarity::MakeMeasure(measure_name);
  if (!measure.ok()) {
    std::fprintf(stderr, "%s\n", measure.status().ToString().c_str());
    return 1;
  }
  algo::ExactS exact(measure->get());

  // ---- Baseline: the pre-service hot path. Fresh engine usage, no index,
  // one sequential full-scan query at a time.
  engine::SimSubEngine baseline_engine(dataset.trajectories);
  std::vector<engine::QueryReport> baseline_reports;
  engine::QueryOptions baseline_options;
  baseline_options.k = k;
  baseline_options.threads = 1;
  util::Stopwatch timer;
  for (const auto& pair : workload) {
    baseline_reports.push_back(
        baseline_engine.Query(pair.query.View(), exact, baseline_options));
  }
  double baseline_seconds = timer.ElapsedSeconds();

  // ---- Service: same database and algorithm behind the serving layer.
  service::ServiceOptions service_options;
  service_options.threads = threads;
  service::QueryService service(
      engine::SimSubEngine(std::move(dataset.trajectories)), service_options);

  std::vector<service::QuerySpec> batch;
  batch.reserve(workload.size());
  for (const auto& pair : workload) {
    service::QuerySpec spec;
    spec.points = pair.query.View();
    spec.measure = measure_name;
    spec.algorithm = "exacts";
    spec.k = k;
    batch.push_back(spec);
  }

  timer.Restart();
  std::vector<engine::QueryReport> batch_reports;
  batch_reports.reserve(batch.size());
  for (auto& future : service.SubmitBatch(batch)) {
    batch_reports.push_back(future.get());
  }
  double batch_seconds = timer.ElapsedSeconds();
  // Snapshot before the reference run so the counters describe the batch.
  service::ServiceStats stats = service.stats();

  // Reference run for the determinism check: the same specs, one at a
  // time, on the calling thread.
  std::vector<engine::QueryReport> sequential_reports;
  for (const auto& spec : batch) {
    sequential_reports.push_back(service.RunOne(spec));
  }

  bool identical = true;
  for (size_t i = 0; i < batch_reports.size() && identical; ++i) {
    const auto& a = batch_reports[i];
    const auto& b = sequential_reports[i];
    identical = a.status.ok() && b.status.ok() &&
                a.results.size() == b.results.size() &&
                a.filter_used == b.filter_used &&
                a.trajectories_scanned == b.trajectories_scanned;
    for (size_t j = 0; identical && j < a.results.size(); ++j) {
      identical = a.results[j].trajectory_id == b.results[j].trajectory_id &&
                  a.results[j].range == b.results[j].range &&
                  a.results[j].distance == b.results[j].distance;
    }
  }

  // Top-1 recall of the pruned service path against the full-scan baseline.
  int top1_matches = 0;
  for (size_t i = 0; i < batch_reports.size(); ++i) {
    if (!batch_reports[i].results.empty() &&
        !baseline_reports[i].results.empty() &&
        batch_reports[i].results.front().distance ==
            baseline_reports[i].results.front().distance) {
      ++top1_matches;
    }
  }

  std::vector<double> latencies_ms;
  for (const auto& r : batch_reports) latencies_ms.push_back(r.seconds * 1e3);
  double p50 = util::Quantile(latencies_ms, 0.5);
  double p99 = util::Quantile(latencies_ms, 0.99);
  double n = static_cast<double>(batch_reports.size());
  double baseline_qps = baseline_seconds > 0 ? n / baseline_seconds : 0.0;
  double batch_qps = batch_seconds > 0 ? n / batch_seconds : 0.0;
  double speedup = batch_seconds > 0 ? baseline_seconds / batch_seconds : 0.0;

  std::printf("baseline (sequential full scan): %8.1f ms  %7.1f q/s\n",
              baseline_seconds * 1e3, baseline_qps);
  std::printf("service  (batch, planned):       %8.1f ms  %7.1f q/s\n",
              batch_seconds * 1e3, batch_qps);
  std::printf("speedup %.2fx | p50 %.2f ms | p99 %.2f ms | pool=%d\n", speedup,
              p50, p99, service.pool().size());
  std::printf("plans: none=%lld rtree=%lld grid=%lld | scratch reuse %lld/%lld "
              "| batch==sequential: %s | top-1 matches full scan: %d/%d\n",
              static_cast<long long>(stats.plans_none),
              static_cast<long long>(stats.plans_rtree),
              static_cast<long long>(stats.plans_grid),
              static_cast<long long>(stats.evaluator_reuses),
              static_cast<long long>(stats.evaluator_allocs),
              identical ? "yes" : "NO", top1_matches,
              static_cast<int>(batch_reports.size()));

  std::FILE* json = std::fopen(out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"service_throughput\",\n"
               "  \"config\": {\"trajectories\": %d, \"queries\": %d, "
               "\"k\": %d, \"measure\": \"%s\", \"pool_threads\": %d, "
               "\"isa\": \"%s\"},\n"
               "  \"baseline\": {\"seconds\": %.6f, \"qps\": %.2f},\n"
               "  \"service\": {\"seconds\": %.6f, \"qps\": %.2f, "
               "\"p50_ms\": %.3f, \"p99_ms\": %.3f},\n"
               "  \"speedup\": %.3f,\n"
               "  \"plans\": {\"none\": %lld, \"rtree\": %lld, \"grid\": "
               "%lld},\n"
               "  \"evaluator_scratch\": {\"reused\": %lld, \"allocated\": "
               "%lld},\n"
               "  \"batch_identical_to_sequential\": %s,\n"
               "  \"top1_matches_full_scan\": %d\n"
               "}\n",
               trajectories, static_cast<int>(n), k, measure_name.c_str(),
               service.pool().size(), simsub::geo::ActiveIsaName(),
               baseline_seconds, baseline_qps,
               batch_seconds, batch_qps, p50, p99, speedup,
               static_cast<long long>(stats.plans_none),
               static_cast<long long>(stats.plans_rtree),
               static_cast<long long>(stats.plans_grid),
               static_cast<long long>(stats.evaluator_reuses),
               static_cast<long long>(stats.evaluator_allocs),
               identical ? "true" : "false", top1_matches);
  std::fclose(json);
  std::printf("wrote %s\n", out.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: SubmitBatch differs from sequential execution\n");
    return 1;
  }
  if (min_speedup > 0 && speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: speedup %.2fx below required %.2fx\n", speedup,
                 min_speedup);
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
