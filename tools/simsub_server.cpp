// simsub network server: the socket front end (net/server.h) over a
// service::QueryService, speaking the length-prefixed binary protocol of
// net/wire.h.
//
//   simsub_server --snapshot=city.snap --port=7447 --threads=8
//   simsub_server --data=city.csv --kind=porto --port=7447
//   simsub_server --generate=1000 --port=0          # synthetic database
//   simsub_server --smoke                           # loopback self-test
//
// Admission control is on by default: a bounded in-flight window (2x the
// worker count unless --max_inflight says otherwise) sheds excess load
// with ResourceExhausted reports instead of queueing without limit, and
// --quota_qps enables per-client token buckets. SIGTERM / SIGINT drain
// gracefully: stop accepting, finish in-flight requests, dump final stats,
// exit. --smoke starts the server on an ephemeral loopback port, drives it
// with an in-process client (query round-trip, identity vs the in-process
// service, statz, graceful drain), and exits nonzero on any mismatch —
// the tier-1 end-to-end check of the whole wire stack.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "data/dataset.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "util/flags.h"
#include "util/io.h"

namespace {

using namespace simsub;

std::atomic<bool> g_shutdown{false};

void OnSignal(int) { g_shutdown.store(true, std::memory_order_release); }

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int SmokeFail(const char* what) {
  std::fprintf(stderr, "smoke FAILED: %s\n", what);
  return 1;
}

/// Loopback self-test: everything a tier-1 test needs from the wire stack
/// in one process — round-trip, remote==local identity, statz, drain.
int RunSmoke(service::QueryService& service, net::Server& server,
             const geo::Trajectory& query) {
  auto client = net::Client::Connect("127.0.0.1", server.port(),
                                     {.client_id = "smoke"});
  if (!client.ok()) return Fail(client.status());

  service::QuerySpec spec;
  spec.points = query.View();
  spec.measure = "dtw";
  spec.algorithm = "pss";
  spec.k = 5;
  spec.deadline_ms = 30'000.0;

  auto remote = client->Query(spec);
  if (!remote.ok()) return Fail(remote.status());
  if (!remote->status.ok()) return Fail(remote->status);
  if (remote->results.empty()) return SmokeFail("remote query: no results");

  // The served answer must be the in-process answer, bit for bit — the
  // codec must not perturb a single double.
  engine::QueryReport local = service.RunOne(spec);
  if (!local.status.ok()) return Fail(local.status);
  if (local.results.size() != remote->results.size()) {
    return SmokeFail("remote/local result count mismatch");
  }
  for (size_t i = 0; i < local.results.size(); ++i) {
    const auto& l = local.results[i];
    const auto& r = remote->results[i];
    if (l.trajectory_id != r.trajectory_id || l.range != r.range ||
        l.distance != r.distance) {
      return SmokeFail("remote/local result mismatch");
    }
  }

  auto statz = client->Statz();
  if (!statz.ok()) return Fail(statz.status());
  if (statz->find("server.queries_answered 1") == std::string::npos) {
    std::fprintf(stderr, "statz dump:\n%s", statz->c_str());
    return SmokeFail("statz missing 'server.queries_answered 1'");
  }

  if (!server.Drain(std::chrono::seconds(10))) {
    return SmokeFail("drain timed out with idle connections");
  }
  std::printf("smoke OK: query round-trip identical to local, statz served, "
              "drain clean (port %d)\n", server.port());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::string data_path;
  std::string kind_name = "porto";
  int generate = 0;
  int64_t seed = 42;
  std::string host = "127.0.0.1";
  int port = 7447;
  int threads = 0;
  int max_connections = 32;
  int max_inflight = 0;
  double quota_qps = 0.0;
  double quota_burst = 0.0;
  int drain_ms = 10'000;
  std::string pid_file;
  bool smoke = false;

  util::FlagSet flags(
      "simsub_server: serve a trajectory database over the binary wire "
      "protocol");
  flags.AddString("snapshot", &snapshot_path,
                  "binary columnar snapshot to serve (overrides --data)");
  flags.AddString("data", &data_path, "database CSV to serve");
  flags.AddString("kind", &kind_name, "porto | harbin | sports");
  flags.AddInt("generate", &generate,
               "serve a synthetic database of this many trajectories "
               "(overrides --data/--snapshot; for tests and benches)");
  flags.AddInt("seed", &seed, "generator seed (with --generate)");
  flags.AddString("host", &host, "bind address");
  flags.AddInt("port", &port, "TCP port (0 = ephemeral, printed on start)");
  flags.AddInt("threads", &threads, "service worker pool width (0 = cores)");
  flags.AddInt("max_connections", &max_connections, "live connection cap");
  flags.AddInt("max_inflight", &max_inflight,
               "in-flight query window before load-shedding "
               "(0 = 2x worker count)");
  flags.AddDouble("quota_qps", &quota_qps,
                  "per-client sustained queries/second (0 = quotas off)");
  flags.AddDouble("quota_burst", &quota_burst,
                  "per-client token bucket depth (0 = same as rate; "
                  "minimum 1)");
  flags.AddInt("drain_ms", &drain_ms, "graceful drain budget on SIGTERM");
  flags.AddString("pid_file", &pid_file,
                  "write the server pid here once listening; removed on a "
                  "clean drain (for process supervisors)");
  flags.AddBool("smoke", &smoke,
                "loopback self-test: generate a small database, serve it on "
                "an ephemeral port, verify the wire stack, exit");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  if (max_connections < 1) {
    return Fail(util::Status::InvalidArgument(
        "--max_connections must be >= 1, got " +
        std::to_string(max_connections)));
  }

  if (smoke) {
    generate = generate > 0 ? generate : 64;
    port = 0;
    host = "127.0.0.1";
  }

  // Build the database: synthetic, snapshot, or CSV. The engine needs at
  // least one trajectory; an empty file is refused here.
  auto nothing_to_serve = [](const std::string& path) {
    return Fail(util::Status::InvalidArgument("no trajectories to serve in " +
                                              path));
  };
  geo::Trajectory first_query;  // kept for --smoke before the engine eats it
  std::optional<service::QueryService> service;
  service::ServiceOptions service_options;
  service_options.threads = threads;
  if (generate > 0) {
    auto kind = data::DatasetKindFromName(kind_name);
    if (!kind.ok()) return Fail(kind.status());
    data::Dataset dataset = data::GenerateDataset(
        *kind, generate, static_cast<uint64_t>(seed));
    first_query = dataset.trajectories.front();
    service.emplace(engine::SimSubEngine(std::move(dataset.trajectories)),
                    service_options);
  } else if (!snapshot_path.empty()) {
    // Sweep the snapshot directory first: a writer that crashed mid-write
    // leaves orphaned temp files (and possibly a corrupt snapshot) behind;
    // quarantine them instead of tripping over them.
    auto recovered = data::RecoverSnapshotDir(util::io::DirName(snapshot_path));
    if (recovered.ok()) {
      for (const std::string& q : recovered->quarantined) {
        std::fprintf(stderr, "snapshot recovery: quarantined %s\n", q.c_str());
      }
    } else {
      std::fprintf(stderr, "snapshot recovery skipped: %s\n",
                   recovered.status().ToString().c_str());
    }
    auto snapshot = data::CorpusSnapshot::Open(snapshot_path);
    if (!snapshot.ok()) return Fail(snapshot.status());
    if ((*snapshot)->trajectory_count() == 0) {
      return nothing_to_serve(snapshot_path);
    }
    service.emplace(**snapshot, service_options);
  } else if (!data_path.empty()) {
    auto kind = data::DatasetKindFromName(kind_name);
    if (!kind.ok()) return Fail(kind.status());
    auto dataset = data::LoadCsv(data_path, kind_name, *kind);
    if (!dataset.ok()) return Fail(dataset.status());
    if (dataset->trajectories.empty()) return nothing_to_serve(data_path);
    service.emplace(engine::SimSubEngine(std::move(dataset->trajectories)),
                    service_options);
  } else {
    return Fail(util::Status::InvalidArgument(
        "no database: pass --snapshot, --data, or --generate"));
  }

  net::ServerOptions server_options;
  server_options.host = host;
  server_options.port = port;
  server_options.max_connections = max_connections;
  server_options.max_inflight = max_inflight;
  server_options.quota_qps = quota_qps;
  server_options.quota_burst = quota_burst;
  net::Server server(*service, server_options);
  if (auto st = server.Start(); !st.ok()) return Fail(st);
  std::printf("simsub_server listening on %s:%d (%lld trajectories, %d "
              "workers, max_inflight=%d)\n",
              host.c_str(), server.port(),
              static_cast<long long>(service->engine().database().size()),
              service->pool().size(), max_inflight);
  std::fflush(stdout);

  // Written only after the listening socket is live, so a supervisor that
  // sees the file can immediately signal the pid it names.
  if (!pid_file.empty()) {
    if (auto st = util::io::WriteStringToFile(
            pid_file, std::to_string(static_cast<long long>(::getpid())) + "\n");
        !st.ok()) {
      return Fail(st);
    }
  }

  if (smoke) return RunSmoke(*service, server, first_query);

  // Serve until SIGTERM/SIGINT, then drain gracefully: stop accepting,
  // finish in-flight requests, dump final stats.
  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  while (!g_shutdown.load(std::memory_order_acquire)) {
    ::poll(nullptr, 0, 200);
  }
  std::printf("shutdown signal: draining (budget %d ms)...\n", drain_ms);
  std::fflush(stdout);
  bool drained = server.Drain(std::chrono::milliseconds(drain_ms));
  std::printf("%s\n%s", drained ? "drained clean" : "drain timed out",
              server.StatzText().c_str());
  if (drained && !pid_file.empty()) {
    if (auto st = util::io::RemoveFile(pid_file); !st.ok()) return Fail(st);
  }
  return 0;
}
