// Open-loop load generator against the real socket server (net/server.h):
// the latency-under-load experiment that closed-loop benches cannot run.
//
// A closed-loop driver (bench_service_mixed) waits for each response before
// sending the next request, so it can never offer more load than the
// server absorbs — overload behavior is invisible. This bench schedules
// arrivals from independent per-client Poisson processes (their
// superposition is Poisson at the offered rate) and measures response time
// from the SCHEDULED arrival, not the send — the open-loop discipline that
// avoids coordinated omission: a response that rode behind a slow
// predecessor is charged its full wait.
//
// Two phases against a live simsub server on a loopback ephemeral port:
//   underload (0.5x measured capacity): no shedding expected, tail latency
//     is the baseline;
//   overload  (2.0x measured capacity): the server's admission control
//     (bounded in-flight window, net/server.h) must shed the excess with
//     ResourceExhausted so the SERVED tail stays bounded — without
//     shedding, open-loop overload grows the queue (and p99) without
//     limit for as long as the phase lasts.
//
// Emits BENCH_loadgen.json (suite "loadgen", gated by tools/check_bench.py):
//   * deadline_headroom = deadline_ms / overload served-p99 — collapses if
//     shedding or end-to-end deadline enforcement breaks;
//   * identity bit: a remote query must equal the in-process answer bit
//     for bit (the codec must not perturb a double);
//   * overload_shed_occurred: admission control actually engaged.
// Each phase also checks the accounting law: every scheduled arrival ends
// as exactly one of served, shed, deadline_expired, abandoned or errors (a
// client that loses its connection counts all its remaining arrivals as
// errors). The bench exits non-zero when a phase breaks it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "data/generator.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "geo/simd_dispatch.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace {

using namespace simsub;

struct PhaseResult {
  double offered_qps = 0.0;
  /// Arrivals the clients' Poisson schedules drew. Every one must end as
  /// exactly one of the five outcomes below (the loadgen accounting law,
  /// checked by RunPhase into `accounted`).
  int64_t scheduled = 0;
  int64_t served = 0;
  int64_t shed = 0;
  int64_t deadline_expired = 0;
  int64_t abandoned = 0;
  int64_t errors = 0;
  int64_t requests = 0;
  int64_t retries = 0;
  bool accounted = true;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
};

/// One simulated client: an independent Poisson arrival process over one
/// connection. Response time is measured from the scheduled arrival.
struct ClientTrace {
  int64_t scheduled = 0;
  std::vector<double> served_ms;
  int64_t shed = 0;
  int64_t deadline_expired = 0;
  int64_t abandoned = 0;
  int64_t errors = 0;
  int64_t requests = 0;
  /// Transport retries the self-healing client spent (net::ClientStats):
  /// ~0 on a healthy loopback, so the per-request rate is gated with an
  /// absolute ceiling in tools/check_bench.py.
  int64_t retries = 0;
};

/// Arrival times (seconds from the phase start) of one client's Poisson
/// process: exponential inter-arrival -ln(U)/rate, fixed up front by the
/// seed.
std::vector<double> ArrivalSchedule(double rate, double duration_s,
                                    uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> arrivals;
  for (double t = -std::log(1.0 - rng.Uniform()) / rate; t < duration_s;
       t += -std::log(1.0 - rng.Uniform()) / rate) {
    arrivals.push_back(t);
  }
  return arrivals;
}

void RunClient(int port, int index, double rate_per_client, double duration_s,
               const service::QuerySpec& base_spec, uint64_t seed,
               ClientTrace* trace) {
  const std::vector<double> arrivals =
      ArrivalSchedule(rate_per_client, duration_s, seed);
  trace->scheduled = static_cast<int64_t>(arrivals.size());
  auto client = net::Client::Connect(
      "127.0.0.1", port, {.client_id = "loadgen-" + std::to_string(index)});
  if (!client.ok()) {
    // No connection, so every scheduled arrival is lost.
    trace->errors += trace->scheduled;
    return;
  }
  auto start = std::chrono::steady_clock::now();
  for (size_t a = 0; a < arrivals.size(); ++a) {
    // Actual send times slip behind the schedule when the connection is
    // busy, and that slip is charged to the response.
    auto scheduled =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(arrivals[a]));
    // A real open-loop client with a deadline abandons a request it cannot
    // even send until half its deadline is gone — sending it would only
    // measure this client's own backlog, which the server never sees and
    // no admission control can shed.
    auto give_up =
        scheduled + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            0.5 * base_spec.deadline_ms));
    if (std::chrono::steady_clock::now() > give_up) {
      ++trace->abandoned;
      continue;
    }
    std::this_thread::sleep_until(scheduled);
    ++trace->requests;
    auto report = client->Query(base_spec);
    auto now = std::chrono::steady_clock::now();
    if (!report.ok()) {
      ++trace->errors;
      // The client's own retry budget is spent: replace it (banking its
      // counters first); a dead server fails every replacement fast.
      trace->retries += client->stats().retries;
      auto again = net::Client::Connect(
          "127.0.0.1", port,
          {.client_id = "loadgen-" + std::to_string(index)});
      if (!again.ok()) {
        // Every later arrival is lost with the connection.
        trace->errors += static_cast<int64_t>(arrivals.size() - a - 1);
        return;
      }
      *client = std::move(*again);
      continue;
    }
    double response_ms =
        std::chrono::duration<double, std::milli>(now - scheduled).count();
    switch (report->status.code()) {
      case util::StatusCode::kOk:
        trace->served_ms.push_back(response_ms);
        break;
      case util::StatusCode::kResourceExhausted:
        ++trace->shed;
        break;
      case util::StatusCode::kDeadlineExceeded:
        ++trace->deadline_expired;
        break;
      default:
        ++trace->errors;
        break;
    }
  }
  trace->retries += client->stats().retries;
}

PhaseResult RunPhase(int port, int clients, double offered_qps,
                     double duration_s, const service::QuerySpec& spec,
                     uint64_t seed) {
  std::vector<ClientTrace> traces(static_cast<size_t>(clients));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  double rate_per_client = offered_qps / clients;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back(RunClient, port, c, rate_per_client, duration_s,
                         std::cref(spec), seed + static_cast<uint64_t>(c),
                         &traces[static_cast<size_t>(c)]);
  }
  for (auto& w : workers) w.join();

  PhaseResult result;
  result.offered_qps = offered_qps;
  std::vector<double> served;
  for (const auto& t : traces) {
    result.scheduled += t.scheduled;
    served.insert(served.end(), t.served_ms.begin(), t.served_ms.end());
    result.shed += t.shed;
    result.deadline_expired += t.deadline_expired;
    result.abandoned += t.abandoned;
    result.errors += t.errors;
    result.requests += t.requests;
    result.retries += t.retries;
  }
  result.served = static_cast<int64_t>(served.size());
  result.p50_ms = util::Quantile(served, 0.5);
  result.p99_ms = util::Quantile(served, 0.99);
  result.p999_ms = util::Quantile(served, 0.999);
  const int64_t outcomes = result.served + result.shed +
                           result.deadline_expired + result.abandoned +
                           result.errors;
  result.accounted = outcomes == result.scheduled;
  if (!result.accounted) {
    std::fprintf(stderr,
                 "FAIL: loadgen accounting: %lld scheduled arrivals != %lld "
                 "served + shed + deadline_expired + abandoned + errors\n",
                 static_cast<long long>(result.scheduled),
                 static_cast<long long>(outcomes));
  }
  return result;
}

void PrintPhase(const char* name, const PhaseResult& r) {
  std::printf(
      "%-9s offered %7.1f q/s: scheduled %5lld, served %5lld (p50 %6.2f ms, "
      "p99 %7.2f ms, p99.9 %7.2f ms), shed %5lld, deadline %4lld, "
      "abandoned %4lld, errors %lld\n",
      name, r.offered_qps, static_cast<long long>(r.scheduled),
      static_cast<long long>(r.served), r.p50_ms,
      r.p99_ms, r.p999_ms, static_cast<long long>(r.shed),
      static_cast<long long>(r.deadline_expired),
      static_cast<long long>(r.abandoned), static_cast<long long>(r.errors));
}

}  // namespace

int main(int argc, char** argv) {
  int trajectories = 300;
  int clients = 16;
  int threads = 2;
  int k = 10;
  double phase_seconds = 3.0;
  double deadline_ms = 250.0;
  bool quick = false;
  std::string out = "BENCH_loadgen.json";
  util::FlagSet flags(
      "Open-loop Poisson load against the socket server: tail latency "
      "under overload with admission control");
  flags.AddInt("trajectories", &trajectories, "database size");
  flags.AddInt("clients", &clients, "concurrent connections");
  flags.AddInt("threads", &threads, "service worker pool width");
  flags.AddInt("k", &k, "results per query");
  flags.AddDouble("phase_seconds", &phase_seconds, "duration of each phase");
  flags.AddDouble("deadline_ms", &deadline_ms, "per-request deadline");
  flags.AddBool("quick", &quick, "CI workload: smaller corpus, shorter phases");
  flags.AddString("out", &out, "JSON output path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (quick) {
    trajectories = 150;
    clients = 12;
    threads = 2;
    phase_seconds = 1.5;
  }

  bench::PrintBanner(
      "bench_loadgen",
      "open-loop serving tail latency: shedding keeps p99 bounded at 2x "
      "capacity",
      "trajectories=" + std::to_string(trajectories) +
          " clients=" + std::to_string(clients) +
          " threads=" + std::to_string(threads) +
          " deadline_ms=" + std::to_string(static_cast<int>(deadline_ms)) +
          (quick ? " (quick)" : ""));

  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, trajectories, 9800);
  auto workload = data::SampleWorkloadWithQueryLength(
      dataset, 8, data::LengthGroup{30, 45, "G1"}, 9801);

  service::ServiceOptions service_options;
  service_options.threads = threads;
  service::QueryService service(
      engine::SimSubEngine(std::move(dataset.trajectories)), service_options);

  // The load query: full scan (no pruning filter) so every request costs
  // real work — a grid-pruned query is too cheap to ever saturate two
  // workers from a loopback client fleet.
  service::QuerySpec spec;
  spec.points = workload.front().query.View();
  spec.measure = "dtw";
  spec.algorithm = "pss";
  spec.k = k;
  spec.filter = engine::PruningFilter::kNone;
  spec.deadline_ms = deadline_ms;

  // Measured capacity: mean inline execution over a few warm runs.
  service::QuerySpec probe = spec;  // same work, no deadline
  probe.deadline_ms = 0.0;
  util::Stopwatch capacity_timer;
  constexpr int kProbes = 6;
  for (int i = 0; i < kProbes; ++i) {
    engine::QueryReport r = service.RunOne(probe);
    if (!r.status.ok()) {
      std::fprintf(stderr, "probe query failed: %s\n",
                   r.status.ToString().c_str());
      return 1;
    }
  }
  double mean_exec_s = capacity_timer.ElapsedSeconds() / kProbes;
  double capacity_qps = threads / mean_exec_s;
  std::printf("mean exec %.2f ms -> measured capacity ~%.1f q/s (%d workers)\n",
              mean_exec_s * 1e3, capacity_qps, threads);

  net::ServerOptions server_options;
  server_options.port = 0;
  server_options.max_connections = clients + 4;
  // Default in-flight window (2x workers). A wider window admits more
  // slow (served) requests per connection, pushing the per-client average
  // round trip past the inter-arrival gap — each connection's own queue
  // then grows for the whole phase and the open-loop tail explodes. The
  // tight window keeps sheds cheap and connections on schedule.
  net::Server server(service, server_options);
  if (auto st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Identity: the served answer must be the in-process answer, bit for bit.
  bool identical = false;
  {
    auto client =
        net::Client::Connect("127.0.0.1", server.port(), {.client_id = "id"});
    if (client.ok()) {
      auto remote = client->Query(probe);
      engine::QueryReport local = service.RunOne(probe);
      identical = remote.ok() && remote->status.ok() && local.status.ok() &&
                  remote->results.size() == local.results.size();
      for (size_t i = 0; identical && i < local.results.size(); ++i) {
        identical =
            remote->results[i].trajectory_id == local.results[i].trajectory_id &&
            remote->results[i].range == local.results[i].range &&
            remote->results[i].distance == local.results[i].distance;
      }
    }
  }

  PhaseResult underload = RunPhase(server.port(), clients,
                                   0.5 * capacity_qps, phase_seconds, spec,
                                   4242);
  PrintPhase("underload", underload);
  PhaseResult overload = RunPhase(server.port(), clients, 2.0 * capacity_qps,
                                  phase_seconds, spec, 8484);
  PrintPhase("overload", overload);

  net::ServerStats sstats = server.stats();
  bool drained = server.Drain(std::chrono::seconds(10));

  bool shed_occurred = overload.shed > 0;
  // Gated quantities are dimensionless so the gate survives slower CI
  // runners. At 2x offered load at most half the requests can be served,
  // so a working admission controller sheds >= ~0.5 of them; a broken one
  // sheds 0. And the served p99 staying inside the deadline under overload
  // is the whole point of bounding the queue — open-loop backlog with no
  // shedding blows past any deadline within a phase.
  int64_t overload_total =
      overload.served + overload.shed + overload.deadline_expired;
  double overload_shed_ratio =
      overload_total > 0
          ? static_cast<double>(overload.shed) / overload_total
          : 0.0;
  bool p99_within_deadline =
      overload.served > 0 && overload.p99_ms < deadline_ms;
  double deadline_headroom =
      overload.p99_ms > 0 ? deadline_ms / overload.p99_ms : 0.0;
  // Transport-retry rate across both phases: on a healthy loopback the
  // self-healing client should never need its retry budget, so the gate
  // bounds this at ~0 (ceiling in tools/check_bench.py).
  int64_t total_requests = underload.requests + overload.requests;
  int64_t total_retries = underload.retries + overload.retries;
  double retries_per_request =
      total_requests > 0
          ? static_cast<double>(total_retries) / total_requests
          : 0.0;
  std::printf(
      "overload shed ratio %.2f | deadline headroom %.2fx (deadline %.0f ms "
      "/ overload p99 %.2f ms) | remote==local: %s | sheds %lld | "
      "retries/request %.4f | drained: %s\n",
      overload_shed_ratio, deadline_headroom, deadline_ms, overload.p99_ms,
      identical ? "yes" : "NO",
      static_cast<long long>(sstats.shed_inflight + sstats.shed_quota),
      retries_per_request, drained ? "clean" : "TIMEOUT");

  std::FILE* json = std::fopen(out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  auto phase_json = [json](const char* name, const PhaseResult& r) {
    std::fprintf(
        json,
        "  \"%s\": {\"offered_qps\": %.2f, \"served\": %lld, \"shed\": %lld, "
        "\"deadline_expired\": %lld, \"abandoned\": %lld, \"errors\": %lld, "
        "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f},\n",
        name, r.offered_qps, static_cast<long long>(r.served),
        static_cast<long long>(r.shed),
        static_cast<long long>(r.deadline_expired),
        static_cast<long long>(r.abandoned),
        static_cast<long long>(r.errors), r.p50_ms, r.p99_ms, r.p999_ms);
  };
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"loadgen\",\n"
               "  \"config\": {\"trajectories\": %d, \"clients\": %d, "
               "\"threads\": %d, \"k\": %d, \"phase_seconds\": %.2f, "
               "\"deadline_ms\": %.1f, \"quick\": %s, \"isa\": \"%s\"},\n"
               "  \"capacity_qps\": %.2f,\n",
               trajectories, clients, threads, k, phase_seconds, deadline_ms,
               quick ? "true" : "false", simsub::geo::ActiveIsaName(), capacity_qps);
  phase_json("underload", underload);
  phase_json("overload", overload);
  std::fprintf(json,
               "  \"overload_shed_ratio\": %.3f,\n"
               "  \"deadline_headroom\": %.3f,\n"
               "  \"retries_per_request\": %.4f,\n"
               "  \"identical_to_local\": %s,\n"
               "  \"overload_shed_occurred\": %s,\n"
               "  \"overload_p99_within_deadline\": %s,\n"
               "  \"drained_clean\": %s\n"
               "}\n",
               overload_shed_ratio, deadline_headroom, retries_per_request,
               identical ? "true" : "false", shed_occurred ? "true" : "false",
               p99_within_deadline ? "true" : "false",
               drained ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", out.c_str());

  if (!identical) {
    std::fprintf(stderr, "FAIL: remote results differ from local\n");
    return 1;
  }
  if (!underload.accounted || !overload.accounted) return 1;
  if (!shed_occurred) {
    std::fprintf(stderr,
                 "FAIL: 2x-capacity overload produced no shedding — "
                 "admission control did not engage\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
