// serve_steady / serve_peak: open-loop Poisson load over loopback TCP
// against the socket server (default ServerOptions) in front of a
// QueryService opened from a verified snapshot.
//
// Arrivals follow a seeded schedule at a fixed absolute rate. A pool of
// `connections` client threads takes them in order; each request is timed
// from its scheduled arrival, so a stall is charged to every request it
// delays (no coordinated omission), and how late the generator sent is
// reported separately as the send lag.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common.h"
#include "data/snapshot.h"
#include "net/client.h"
#include "net/server.h"
#include "rl/policy_io.h"
#include "similarity/registry.h"
#include "suite.h"

namespace simsub::suite {
namespace {

constexpr double kWarmupSeconds = 0.5;

[[noreturn]] void Fatal(const char* what, const util::Status& status) {
  std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

/// The serving stack, rebuilt by every set-up repetition.
struct Stack {
  std::unique_ptr<service::QueryService> service;
  std::unique_ptr<net::Server> server;

  void Reset() {
    server.reset();  // the server holds a reference to the service
    service.reset();
  }
};

struct SetupTimes {
  double total_s = 0.0;
  double write_s = 0.0;
  double open_s = 0.0;
  double build_s = 0.0;
};

/// One set-up from the corpus in memory to a listening server: snapshot
/// write, verified open, service construction (indexes), server start.
SetupTimes BuildStack(const RunConfig& config, const Inputs& inputs,
                      const std::string& snapshot_path,
                      trace::Recorder& recorder, Stack* stack) {
  stack->Reset();
  const auto t0 = Clock::now();
  if (auto st = data::WriteSnapshot(inputs.corpus, snapshot_path); !st.ok()) {
    Fatal("WriteSnapshot", st);
  }
  const auto t1 = Clock::now();
  auto snapshot = data::CorpusSnapshot::Open(snapshot_path);
  if (!snapshot.ok()) Fatal("CorpusSnapshot::Open", snapshot.status());
  const auto t2 = Clock::now();
  service::ServiceOptions options;
  options.threads = config.def.service_threads;
  stack->service = std::make_unique<service::QueryService>(**snapshot, options);
  const auto t3 = Clock::now();
  stack->server = std::make_unique<net::Server>(*stack->service);
  if (auto st = stack->server->Start(); !st.ok()) Fatal("Server::Start", st);
  const auto t4 = Clock::now();

  const uint64_t trace_id = recorder.NewId();
  const uint64_t root = recorder.RecordInterval("setup", trace_id, 0, t0, t4);
  recorder.RecordInterval("data::WriteSnapshot", trace_id, root, t0, t1);
  recorder.RecordInterval("data::CorpusSnapshot::Open", trace_id, root, t1, t2);
  recorder.RecordInterval("service::QueryService", trace_id, root, t2, t3);
  recorder.RecordInterval("net::Server::Start", trace_id, root, t3, t4);
  return {Seconds(t4 - t0), Seconds(t1 - t0), Seconds(t2 - t1), Seconds(t3 - t2)};
}

/// One answered request of an open-loop phase.
struct Sample {
  double due_s = 0.0;       // scheduled arrival, from the phase start
  double latency_ms = 0.0;  // scheduled arrival -> response
  double lag_ms = 0.0;      // scheduled arrival -> send
  double client_ms = 0.0;   // send -> response (net::Client::Query)
  double queue_ms = 0.0;    // service queue wait (from the report)
  double exec_ms = 0.0;     // service execution (from the report)
};

struct Phase {
  std::vector<Sample> answered;              // OK and equal to the reference
  std::vector<engine::QueryReport> reports;  // their reports, results dropped
  int64_t attempted = 0;
  int64_t shed = 0;
  int64_t mismatched = 0;
  int64_t sent = 0;
  int64_t retries = 0;
  double seconds = 0.0;  // scheduled length
  double elapsed_s = 0.0;  // phase start -> last response

  int64_t failed() const {
    return attempted - static_cast<int64_t>(answered.size());
  }
  std::vector<double> Column(double Sample::*field) const {
    std::vector<double> out;
    out.reserve(answered.size());
    for (const Sample& s : answered) out.push_back(s.*field);
    return out;
  }
};

Phase RunOpenPhase(const WorkloadDef& def, int port, const Schedule& schedule,
                   double seconds,
                   const std::vector<service::QuerySpec>& specs,
                   const std::vector<uint64_t>& reference,
                   trace::Recorder& recorder) {
  Phase phase;
  phase.seconds = seconds;
  phase.attempted = static_cast<int64_t>(schedule.arrivals_s.size());
  std::atomic<size_t> next{0};
  std::vector<Phase> local(static_cast<size_t>(def.connections));
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(20);

  auto client_loop = [&](int c) {
    Phase& mine = local[static_cast<size_t>(c)];
    const net::ClientOptions options{.client_id = "suite-" + std::to_string(c)};
    auto connected = net::Client::Connect("127.0.0.1", port, options);
    if (!connected.ok()) return;  // its arrivals go to the other connections
    net::Client client = std::move(*connected);
    for (size_t j = next.fetch_add(1); j < schedule.arrivals_s.size();
         j = next.fetch_add(1)) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(schedule.arrivals_s[j]));
      std::this_thread::sleep_until(due);
      const auto sent = Clock::now();
      // A request already a deadline late can no longer be answered in
      // time: it is abandoned unsent, and counts as attempted and failed.
      if (Millis(sent - due) > kDeadlineMs) continue;
      const int item = schedule.items[j];
      ++mine.sent;
      auto report = client.Query(specs[static_cast<size_t>(item)]);
      const auto done = Clock::now();
      if (recorder.enabled()) {
        const uint64_t trace_id = recorder.NewId();
        const char* status = report.ok() ? report->status.ok() ? "ok" : "refused"
                                         : "transport";
        const uint64_t root = recorder.RecordInterval(
            "loadgen.request", trace_id, 0, due, done,
            {trace::Num("item", item),
             trace::Str("algorithm", specs[static_cast<size_t>(item)].algorithm)});
        recorder.RecordInterval("loadgen.send_lag", trace_id, root, due, sent);
        std::vector<trace::Attr> attrs = {trace::Str("status", status)};
        if (report.ok()) {
          attrs.push_back(trace::Num("queue_ms", report->queue_seconds * 1e3));
          attrs.push_back(trace::Num("exec_ms", report->seconds * 1e3));
          attrs.push_back(
              trace::Str("filter", engine::PruningFilterName(report->filter_used)));
        }
        recorder.RecordInterval("net::Client::Query", trace_id, root, sent, done,
                                std::move(attrs));
      }
      if (!report.ok()) {
        // The client's retry budget is spent: replace the connection.
        mine.retries += client.stats().retries;
        auto again = net::Client::Connect("127.0.0.1", port, options);
        if (!again.ok()) return;
        client = std::move(*again);
        continue;
      }
      if (!report->status.ok()) {
        if (report->status.code() == util::StatusCode::kResourceExhausted) ++mine.shed;
        continue;
      }
      if (HashResults(*report) != reference[static_cast<size_t>(item)]) {
        ++mine.mismatched;
        continue;
      }
      Sample s;
      s.due_s = schedule.arrivals_s[j];
      s.latency_ms = Millis(done - due);
      s.lag_ms = Millis(sent - due);
      s.client_ms = Millis(done - sent);
      s.queue_ms = report->queue_seconds * 1e3;
      s.exec_ms = report->seconds * 1e3;
      mine.answered.push_back(s);
      report->results.clear();
      mine.reports.push_back(std::move(*report));
    }
    mine.retries += client.stats().retries;
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < def.connections; ++c) clients.emplace_back(client_loop, c);
  for (std::thread& t : clients) t.join();
  phase.elapsed_s = Seconds(Clock::now() - start);

  for (Phase& l : local) {
    phase.answered.insert(phase.answered.end(), l.answered.begin(), l.answered.end());
    for (auto& r : l.reports) phase.reports.push_back(std::move(r));
    phase.shed += l.shed;
    phase.mismatched += l.mismatched;
    phase.sent += l.sent;
    phase.retries += l.retries;
  }
  return phase;
}

void AddPhase(const Phase& phase, RunResult* result) {
  result->attempted += phase.attempted;
  result->failed += phase.failed();
  result->mismatched += phase.mismatched;
}

/// Goodput and latency of a measured phase; the latencies at the reference
/// clock (`to_reference`, over the phase).
void SetEndToEnd(Phase& phase, double to_reference, RunResult* result) {
  int64_t good = 0;
  for (const Sample& s : phase.answered) good += s.latency_ms <= kLatencyLimitMs;
  std::sort(phase.answered.begin(), phase.answered.end(),
            [](const Sample& a, const Sample& b) { return a.due_s < b.due_s; });
  const std::vector<double> latency = phase.Column(&Sample::latency_ms);
  result->Set("qps", static_cast<double>(good) / phase.elapsed_s);
  SetOkRatio(phase.attempted, phase.failed(), result);
  std::printf("phase: %lld scheduled, %zu answered, %lld good (<= %.0f ms); "
              "latency over %zu samples in %zu windows\n",
              static_cast<long long>(phase.attempted), phase.answered.size(),
              static_cast<long long>(good), kLatencyLimitMs, latency.size(),
              std::max<size_t>(1, latency.size() / kWindowSamples));
  SetPhaseTimings(to_reference, WindowedPercentile(latency, 0.5),
                  WindowedPercentile(latency, 0.99), std::nullopt, result);
}

/// Per-layer numbers of the traced phase.
void SetLayers(const Phase& phase, const service::ServiceStats& before,
               const service::ServiceStats& after, int64_t corpus_size,
               RunResult* result) {
  result->Set("loadgen.offered_qps",
              static_cast<double>(phase.attempted) / phase.seconds);
  result->Set("loadgen.send_lag_ms.p50", Percentile(phase.Column(&Sample::lag_ms), 0.5));
  result->Set("loadgen.send_lag_ms.p99", Percentile(phase.Column(&Sample::lag_ms), 0.99));
  std::vector<double> client = phase.Column(&Sample::client_ms);
  std::vector<double> transport;
  for (const Sample& s : phase.answered) {
    transport.push_back(s.client_ms - s.queue_ms - s.exec_ms);
  }
  result->Set("net.client_query_ms.p50", Percentile(client, 0.5));
  result->Set("net.client_query_ms.p99", Percentile(client, 0.99));
  result->Set("net.transport_ms.p50", Percentile(transport, 0.5));
  result->Set("net.transport_ms.p99", Percentile(transport, 0.99));
  result->Set("net.shed_ratio", static_cast<double>(phase.shed) /
                                    static_cast<double>(phase.attempted));
  result->Set("net.retries_per_request",
              phase.sent > 0 ? static_cast<double>(phase.retries) /
                                   static_cast<double>(phase.sent)
                             : 0.0);
  result->Set("service.queue_ms.p50", Percentile(phase.Column(&Sample::queue_ms), 0.5));
  result->Set("service.queue_ms.p99", Percentile(phase.Column(&Sample::queue_ms), 0.99));
  result->Set("service.exec_ms.p50", Percentile(phase.Column(&Sample::exec_ms), 0.5));
  result->Set("service.exec_ms.p99", Percentile(phase.Column(&Sample::exec_ms), 0.99));
  ServiceCounters(before, after, result);
  ReportCounters(phase.reports, corpus_size, result);
}

/// The RLS-Skip policy of the dtw/rls-skip spec, written where the
/// service's registry can load it by path.
std::string WritePolicy(const RunConfig& config, const Inputs& inputs,
                        RunResult* result) {
  auto dtw = similarity::MakeMeasure("dtw");
  if (!dtw.ok()) Fatal("MakeMeasure", dtw.status());
  auto start = Clock::now();
  rl::TrainedPolicy policy = bench::TrainPolicy(
      dtw->get(), inputs.corpus, config.def.train_episodes,
      bench::DefaultEnvOptions("dtw", 3), DeriveSeed(kDatasetSeed, 7));
  if (result != nullptr) result->Set("rl.train_s", Seconds(Clock::now() - start));
  const std::string path = ScratchPath(config, "policy.txt");
  if (auto st = rl::SavePolicyToFile(policy, path); !st.ok()) {
    Fatal("SavePolicyToFile", st);
  }
  return path;
}

}  // namespace

RunResult RunServe(const RunConfig& config, const ClockSampler& clock,
                   trace::Recorder& recorder) {
  const WorkloadDef& def = config.def;
  RunResult result;
  const Inputs inputs = MakeInputs(def, config.seed);
  AnnounceInputs(config, inputs);
  const std::string policy_path = WritePolicy(config, inputs, &result);
  const std::string snapshot_path = ScratchPath(config, "corpus.snap");

  Stack stack;
  std::vector<SetupTimes> setups;
  const auto setup_began = Clock::now();
  while (AnotherSetup(setups.size(), setup_began)) {
    setups.push_back(BuildStack(config, inputs, snapshot_path, recorder, &stack));
  }
  auto median_of = [&setups](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) values.push_back(s.*field);
    return Median(values);
  };
  SetSetup(clock.ToReference(setup_began, Clock::now()), median_of(&SetupTimes::total_s),
           &result);
  result.Set("data.snapshot_write_s", median_of(&SetupTimes::write_s));
  result.Set("data.snapshot_open_s", median_of(&SetupTimes::open_s));
  result.Set("service.build_s", median_of(&SetupTimes::build_s));

  std::vector<service::QuerySpec> specs;
  for (const Item& item : inputs.items) {
    specs.push_back(MakeSpec(def, inputs, item, policy_path, std::nullopt, kDeadlineMs));
  }
  const std::vector<engine::QueryReport> reference =
      ReferenceAnswers(*stack.service, specs, kReferenceThreads);
  std::vector<uint64_t> hashes;
  for (const engine::QueryReport& r : reference) {
    if (!r.status.ok()) ++result.mismatched;
    hashes.push_back(HashResults(r));
  }
  if (config.corrupt_reference) hashes.front() ^= 1;

  const int port = stack.server->port();
  const bool traced = config.traced;
  recorder.set_enabled(false);
  const double warmup_s = std::min(kWarmupSeconds, config.seconds / 4);
  Phase warmup = RunOpenPhase(def, port, MakeSchedule(def, inputs, config.seed, 9, warmup_s),
                              warmup_s, specs, hashes, recorder);
  result.mismatched += warmup.mismatched;

  const double measured_s = traced ? config.seconds / 2 : config.seconds;
  const auto phase_began = Clock::now();
  Phase untraced = RunOpenPhase(def, port,
                                MakeSchedule(def, inputs, config.seed, 0, measured_s),
                                measured_s, specs, hashes, recorder);
  AddPhase(untraced, &result);
  SetEndToEnd(untraced, clock.ToReference(phase_began, Clock::now()), &result);
  if (traced) {
    recorder.set_enabled(true);
    const service::ServiceStats before = stack.service->stats();
    Phase phase = RunOpenPhase(def, port,
                               MakeSchedule(def, inputs, config.seed, 1, measured_s),
                               measured_s, specs, hashes, recorder);
    const service::ServiceStats after = stack.service->stats();
    AddPhase(phase, &result);
    SetLayers(phase, before, after, def.corpus_size, &result);
    const double untraced_p50 = Percentile(untraced.Column(&Sample::latency_ms), 0.5);
    if (untraced_p50 > 0) {
      result.Set("trace.overhead_ratio",
                 Percentile(phase.Column(&Sample::latency_ms), 0.5) / untraced_p50);
    }
  }

  QualityPass(def, TopAnswers(def, inputs, reference), recorder, &result);
  if (traced) {
    ReplayLayers(config, inputs, specs, reference, *stack.service, recorder, &result);
  }
  if (!stack.server->Drain(std::chrono::seconds(5))) {
    std::fprintf(stderr, "server drain timed out\n");
  }
  stack.Reset();
  std::remove(snapshot_path.c_str());
  std::remove(policy_path.c_str());
  result.Set("peak_rss_mb", PeakRssMb());
  return result;
}

int MeasureCapacity(const std::string& workdir) {
  RunConfig config;
  config.def = *FindWorkload("serve_steady");
  config.workdir = workdir;
  const Inputs inputs = MakeInputs(config.def, config.seed);
  const std::string policy_path = WritePolicy(config, inputs, nullptr);
  const std::string snapshot_path = ScratchPath(config, "corpus.snap");
  trace::Recorder recorder(false);
  Stack stack;
  BuildStack(config, inputs, snapshot_path, recorder, &stack);
  std::vector<service::QuerySpec> specs;
  for (const Item& item : inputs.items) {
    specs.push_back(MakeSpec(config.def, inputs, item, policy_path, std::nullopt, 0.0));
  }
  std::vector<double> mean_s;
  std::vector<double> spec_s(config.def.specs.size());
  for (int rep = 0; rep < 5; ++rep) {
    auto start = Clock::now();
    for (size_t i = 0; i < specs.size(); ++i) {
      auto t = Clock::now();
      (void)stack.service->RunOne(specs[i]);
      spec_s[static_cast<size_t>(inputs.items[i].spec)] += Seconds(Clock::now() - t);
    }
    mean_s.push_back(Seconds(Clock::now() - start) / static_cast<double>(specs.size()));
  }
  for (size_t s = 0; s < spec_s.size(); ++s) {
    std::printf("%s/%s: mean %.3f ms\n", config.def.specs[s].measure.c_str(),
                config.def.specs[s].algorithm.c_str(),
                spec_s[s] * 1e3 * static_cast<double>(spec_s.size()) /
                    (5.0 * static_cast<double>(specs.size())));
  }
  const double capacity = config.def.service_threads / Median(mean_s);
  std::printf("mean inline RunOne %.3f ms -> C = %.1f q/s (0.25 C = %.1f, 0.5 C = %.1f)\n",
              Median(mean_s) * 1e3, capacity, 0.25 * capacity, 0.5 * capacity);
  stack.Reset();
  std::remove(snapshot_path.c_str());
  std::remove(policy_path.c_str());
  return 0;
}

}  // namespace simsub::suite
