// simsub_bench — the benchmark of record for SimSub serving.
//
//   simsub_bench --workload=<name> --seed=<u64> --seconds=<s>
//                [--trace=<spans.json>] [--workdir=<dir>] [--smoke]
//                [--corrupt_reference]
//   simsub_bench --capacity [--workdir=<dir>]
//
// One workload per process, every input built from --seed. The run checks
// every answer against an in-process reference and prints each metric by
// name with its unit; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Without --trace the
// metrics are the end-to-end ones; with --trace they are the per-layer
// ones, and the spans are written to the given file as Chrome trace-event
// JSON. The exit code is non-zero when any answer mismatches.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "geo/simd_dispatch.h"
#include "suite.h"

namespace {

using namespace simsub;
using namespace simsub::suite;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks the names of every result).
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"qps", "1/s"},        {"p50_ms", "ms"},
    {"p99_ms", "ms"},        {"ok_ratio", "ratio"}, {"mean_ar", "ratio"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"loadgen.offered_qps", "1/s"},
    {"loadgen.send_lag_ms.p50", "ms"},
    {"loadgen.send_lag_ms.p99", "ms"},
    {"net.client_query_ms.p50", "ms"},
    {"net.client_query_ms.p99", "ms"},
    {"net.transport_ms.p50", "ms"},
    {"net.transport_ms.p99", "ms"},
    {"net.encode_query_us", "us"},
    {"net.report_codec_us", "us"},
    {"net.report_bytes", "bytes"},
    {"net.shed_ratio", "ratio"},
    {"net.retries_per_request", "ratio"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.exec_ms.p50", "ms"},
    {"service.exec_ms.p99", "ms"},
    {"service.submit_batch_us", "us"},
    {"service.spec_cache_hit_ratio", "ratio"},
    {"service.evaluator_reuse_ratio", "ratio"},
    {"service.resolve_us", "us"},
    {"service.build_s", "s"},
    {"service.plan_us", "us"},
    {"service.plan_share.none", "ratio"},
    {"service.plan_share.rtree", "ratio"},
    {"service.plan_share.grid", "ratio"},
    {"service.selectivity_error", "ratio"},
    {"engine.keep_ratio", "ratio"},
    {"engine.lb_skip_ratio", "ratio"},
    {"engine.dp_abandoned_per_query", "count"},
    {"engine.query_ms.p50", "ms"},
    {"engine.prune_speedup", "ratio"},
    {"engine.batch_speedup", "ratio"},
    {"algo.search_us_per_candidate", "us"},
    {"algo.lb_us_per_candidate", "us"},
    {"algo.lb_tightness", "ratio"},
    {"algo.abandoned_ratio", "ratio"},
    {"similarity.ns_per_cell.dtw", "ns"},
    {"similarity.ns_per_cell.frechet", "ns"},
    {"rl.search_us.rls", "us"},
    {"rl.search_us.rls_skip", "us"},
    {"rl.skip_ratio", "ratio"},
    {"rl.train_s", "s"},
    {"data.snapshot_write_s", "s"},
    {"data.snapshot_open_s", "s"},
    {"trace.overhead_ratio", "ratio"},
};

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace;
  std::string workdir = ".";
  bool smoke = false;
  bool corrupt_reference = false;
  bool capacity = false;
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: simsub_bench --workload=<name> --seed=<u64> "
               "--seconds=<s> [--trace=<spans.json>] [--workdir=<dir>] "
               "[--smoke] [--corrupt_reference]\n       simsub_bench --capacity "
               "[--workdir=<dir>]\nworkloads:",
               error);
  for (const WorkloadDef& def : Workloads()) std::fprintf(stderr, " %s", def.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (arg != "--smoke" && arg != "--corrupt_reference" &&
               arg != "--capacity") {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      flags.workload = value;
    } else if (arg == "--seed") {
      flags.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      flags.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(flags.seconds > 0 && flags.seconds <= 600)) {
        Usage("--seconds takes a number in (0, 600]");
      }
    } else if (arg == "--trace") {
      flags.trace = value;
    } else if (arg == "--workdir") {
      flags.workdir = value;
    } else if (arg == "--smoke") {
      flags.smoke = true;
    } else if (arg == "--corrupt_reference") {
      flags.corrupt_reference = true;
    } else if (arg == "--capacity") {
      flags.capacity = true;
    } else {
      Usage(("unknown flag " + arg).c_str());
    }
  }
  return flags;
}

std::string FormatNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

void WriteTrace(const std::string& path, const trace::Recorder& recorder) {
  const std::vector<trace::SpanRecord> spans = recorder.Spans();
  std::ofstream out(path, std::ios::binary);
  out << trace::ChromeJson(spans);
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::printf("trace: %zu spans -> %s\n", spans.size(), path.c_str());
  std::printf("%-34s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const trace::NameTotals& t : trace::TotalsByName(spans)) {
    std::printf("%-34s %9lld %12.3f %12.3f\n", t.name.c_str(),
                static_cast<long long>(t.count),
                static_cast<double>(t.total_ns) * 1e-6,
                static_cast<double>(t.self_ns) * 1e-6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.capacity) return MeasureCapacity(flags.workdir);
  const WorkloadDef* def = FindWorkload(flags.workload);
  if (def == nullptr) Usage(("unknown workload '" + flags.workload + "'").c_str());

  RunConfig config;
  config.def = flags.smoke ? SmokeVariant(*def) : *def;
  config.seed = flags.seed;
  config.seconds = flags.seconds;
  config.traced = !flags.trace.empty();
  config.corrupt_reference = flags.corrupt_reference;
  config.workdir = flags.workdir;

  std::printf("workload %s seed %llu seconds %.3g%s%s isa %s\n",
              config.def.name.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, flags.smoke ? " smoke" : "",
              config.traced ? " traced" : "", geo::ActiveIsaName());

  trace::Recorder recorder(config.traced);
  RunResult result;
  {
    const ClockSampler clock;
    switch (config.def.loop) {
      case LoopKind::kOpen:
        result = RunServe(config, clock, recorder);
        break;
      case LoopKind::kClosedBatch:
        result = RunBatch(config, clock, recorder);
        break;
      case LoopKind::kPairs:
        result = RunPairs(config, clock, recorder);
        break;
    }
  }

  std::set<std::string> known;
  for (const MetricDef& m : kEndToEnd) known.insert(m.name);
  for (const MetricDef& m : kPerLayer) known.insert(m.name);
  for (const auto& [name, value] : result.metrics) {
    if (known.count(name) == 0) {
      std::fprintf(stderr, "internal error: unlisted metric %s\n", name.c_str());
      return 1;
    }
  }

  if (config.traced) WriteTrace(flags.trace, recorder);

  // A layer the workload bypasses did no work: its metrics read 0.
  std::string json = "{\"correct\": ";
  const bool correct = result.mismatched == 0;
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  std::string bypassed;
  bool first = true;
  for (const MetricDef& m : config.traced ? std::span<const MetricDef>(kPerLayer)
                                          : std::span<const MetricDef>(kEndToEnd)) {
    auto found = result.metrics.find(m.name);
    double value = found != result.metrics.end() ? found->second : 0.0;
    if (found == result.metrics.end()) bypassed += std::string(" ") + m.name;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%-34s %16s %s\n", m.name, FormatNumber(value).c_str(), m.unit);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + std::string(m.name) + "\": {\"value\": " + FormatNumber(value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  if (!bypassed.empty()) std::printf("not exercised by %s (0):%s\n",
                                     config.def.name.c_str(), bypassed.c_str());
  std::printf("attempted %lld failed %lld mismatched %lld -> %s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              static_cast<long long>(result.mismatched),
              correct ? "correct" : "MISMATCH");
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
