// simsub command-line tool: generate datasets, ingest them into binary
// columnar snapshots, train RLS policies, and run SimSub queries without
// writing any C++.
//
//   simsub_cli generate --kind=porto --count=1000 --out=city.csv
//   simsub_cli ingest   --data=city.csv --kind=porto --out=city.snap
//   simsub_cli train    --data=city.csv --kind=porto --measure=dtw
//                       --episodes=8000 --skip=3 --out=policy.txt
//   simsub_cli query    --data=city.csv --kind=porto --measure=dtw
//                       --algo=rls --policy=policy.txt --query_id=17 --topk=5
//   simsub_cli query    --snapshot=city.snap --batch --batch_size=64
//                       --threads=8 --plan=auto --algo=pss --deadline_ms=50
//
// Every query is one declarative service::QuerySpec (--algo is any
// algo::MakeSearch name plus "topk-sub"), served the same way in every
// mode: --plan, --deadline_ms and --prune mean the same everywhere, and
// --threads sizes the service pool of both local modes. By default an
// in-process QueryService of --threads workers answers the spec (Submit;
// idle workers join its scan); --batch serves a sampled workload of specs
// through SubmitBatch and prints throughput plus queueing vs execution
// tail latency; --connect sends the spec to a running simsub_server. With
// --snapshot the database comes from a mmap'd columnar snapshot (see
// data/snapshot.h) instead of a CSV parse: the engine's SoA reads are
// zero-copy over the mapping and the MBR cache and planner statistics
// load from the persisted sections.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "geo/simd_dispatch.h"
#include "net/client.h"
#include "rl/policy_io.h"
#include "rl/trainer.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "similarity/registry.h"
#include "util/flags.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace {

using namespace simsub;

int Fail(const util::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Refuses a flag value below its minimum before any library call sees it.
util::Status CheckAtLeast(const char* flag, int64_t value, int64_t min) {
  if (value >= min) return util::Status::OK();
  return util::Status::InvalidArgument("--" + std::string(flag) +
                                       " must be >= " + std::to_string(min) +
                                       ", got " + std::to_string(value));
}

/// Splits "host:port" (dotted-quad host) for --connect flags.
util::Result<std::pair<std::string, int>> ParseHostPort(
    const std::string& addr) {
  size_t colon = addr.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == addr.size()) {
    return util::Status::InvalidArgument("expected host:port, got " + addr);
  }
  int port = 0;
  try {
    port = std::stoi(addr.substr(colon + 1));
  } catch (...) {
    return util::Status::InvalidArgument("unparseable port in " + addr);
  }
  return std::make_pair(addr.substr(0, colon), port);
}

int RunGenerate(int argc, char** argv) {
  std::string kind_name = "porto";
  int count = 1000;
  int64_t seed = 42;
  std::string out = "dataset.csv";
  util::FlagSet flags("simsub_cli generate: synthesize a trajectory dataset");
  flags.AddString("kind", &kind_name, "porto | harbin | sports");
  flags.AddInt("count", &count, "number of trajectories");
  flags.AddInt("seed", &seed, "generator seed");
  flags.AddString("out", &out, "output CSV path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  if (auto st = CheckAtLeast("count", count, 1); !st.ok()) return Fail(st);

  auto kind = data::DatasetKindFromName(kind_name);
  if (!kind.ok()) return Fail(kind.status());
  data::Dataset dataset =
      data::GenerateDataset(*kind, count, static_cast<uint64_t>(seed));
  if (auto st = data::SaveCsv(dataset, out); !st.ok()) return Fail(st);
  std::printf("wrote %zu trajectories (%lld points) to %s\n",
              dataset.trajectories.size(),
              static_cast<long long>(dataset.TotalPoints()), out.c_str());
  return 0;
}

util::Result<data::Dataset> LoadDataset(const std::string& path,
                                        const std::string& kind_name) {
  auto kind = data::DatasetKindFromName(kind_name);
  if (!kind.ok()) return kind.status();
  return data::LoadCsv(path, kind_name, *kind);
}

int RunIngest(int argc, char** argv) {
  std::string data_path = "dataset.csv";
  std::string kind_name = "porto";
  std::string out = "dataset.snap";
  util::FlagSet flags(
      "simsub_cli ingest: convert a trajectory CSV into a binary columnar "
      "snapshot (mmap-able by 'query --snapshot')");
  flags.AddString("data", &data_path, "input CSV path");
  flags.AddString("kind", &kind_name, "porto | harbin | sports");
  flags.AddString("out", &out, "output snapshot path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);

  util::Stopwatch timer;
  auto dataset = LoadDataset(data_path, kind_name);
  if (!dataset.ok()) return Fail(dataset.status());
  double load_s = timer.ElapsedSeconds();

  util::Stopwatch write_timer;
  if (auto st = data::WriteSnapshot(*dataset, out); !st.ok()) return Fail(st);
  double write_s = write_timer.ElapsedSeconds();

  // Re-open what we just wrote: proves the snapshot verifies end-to-end and
  // reports the persisted statistics.
  auto snapshot = data::CorpusSnapshot::Open(out);
  if (!snapshot.ok()) return Fail(snapshot.status());
  std::printf(
      "ingested %zu trajectories (%lld points) from %s\n"
      "  csv parse %.2f s, snapshot write %.2f s -> %s\n",
      (*snapshot)->trajectory_count(),
      static_cast<long long>((*snapshot)->total_points()), data_path.c_str(),
      load_s, write_s, out.c_str());
  const geo::CorpusStats& stats = (*snapshot)->stats();
  std::printf("  extent [%.1f, %.1f] x [%.1f, %.1f], mean traj mbr %.1f x %.1f\n",
              stats.extent.min_x, stats.extent.max_x, stats.extent.min_y,
              stats.extent.max_y, stats.mean_trajectory_width,
              stats.mean_trajectory_height);
  return 0;
}

int RunTrain(int argc, char** argv) {
  std::string data_path = "dataset.csv";
  std::string kind_name = "porto";
  std::string measure_name = "dtw";
  std::string out = "policy.txt";
  int episodes = 8000;
  int skip = 0;
  int64_t seed = 42;
  util::FlagSet flags("simsub_cli train: train an RLS/RLS-Skip policy");
  flags.AddString("data", &data_path, "training dataset CSV");
  flags.AddString("kind", &kind_name, "porto | harbin | sports");
  flags.AddString("measure", &measure_name, "dtw | frechet | erp | ...");
  flags.AddInt("episodes", &episodes, "training episodes");
  flags.AddInt("skip", &skip, "skip actions k (0 = plain RLS)");
  flags.AddInt("seed", &seed, "training seed");
  flags.AddString("out", &out, "output policy path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  for (const util::Status& st :
       {CheckAtLeast("episodes", episodes, 1), CheckAtLeast("skip", skip, 0)}) {
    if (!st.ok()) return Fail(st);
  }

  auto dataset = LoadDataset(data_path, kind_name);
  if (!dataset.ok()) return Fail(dataset.status());
  if (dataset->trajectories.empty()) {
    return Fail(util::Status::InvalidArgument("no trajectories to train on in " +
                                              data_path));
  }
  auto measure = similarity::MakeMeasure(measure_name);
  if (!measure.ok()) return Fail(measure.status());

  rl::RlsTrainOptions options;
  options.episodes = episodes;
  options.seed = static_cast<uint64_t>(seed);
  options.env.skip_count = skip;
  // Skip variants train with a discount closer to 1 (see DESIGN.md §5.8).
  options.dqn.gamma = skip > 0 ? 0.99 : 0.95;
  rl::RlsTrainer trainer(measure->get(), options);
  std::printf("training %s on %zu trajectories (%d episodes)...\n",
              skip > 0 ? "RLS-Skip" : "RLS", dataset->trajectories.size(),
              episodes);
  rl::TrainedPolicy policy =
      trainer.Train(dataset->trajectories, dataset->trajectories);
  std::printf("trained in %.1f s (%lld gradient steps)\n",
              trainer.report().train_seconds,
              trainer.report().gradient_steps);
  if (auto st = rl::SavePolicyToFile(policy, out); !st.ok()) return Fail(st);
  std::printf("policy written to %s\n", out.c_str());
  return 0;
}

/// Copies trajectory `id` out of the database (from the snapshot's columns
/// when one is open): the service consumes the database itself.
util::Result<geo::Trajectory> FindTrajectory(
    const data::CorpusSnapshot* snapshot, const data::Dataset& dataset,
    int64_t id) {
  if (snapshot != nullptr) {
    const std::vector<int64_t>& ids = snapshot->ids();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) return snapshot->MaterializeTrajectory(i);
    }
  } else {
    for (const geo::Trajectory& t : dataset.trajectories) {
      if (t.id() == id) return t;
    }
  }
  return util::Status::NotFound("no trajectory with id " + std::to_string(id));
}

/// Prints one answered query, local or remote: a summary line, then one
/// "  trajectory" line per result. A non-OK report fails the run.
int PrintReport(const engine::QueryReport& report,
                const service::QuerySpec& spec, const std::string& via) {
  if (!report.status.ok()) return Fail(report.status);
  std::printf(
      "%s/%s via %s: %.1f ms exec + %.1f ms queued (plan=%s, %lld scanned, "
      "%lld pruned, %lld lb-skipped, %lld dp-abandoned)\n",
      spec.algorithm.c_str(), spec.measure.c_str(), via.c_str(),
      report.seconds * 1e3, report.queue_seconds * 1e3,
      engine::PruningFilterName(report.filter_used),
      static_cast<long long>(report.trajectories_scanned),
      static_cast<long long>(report.trajectories_pruned),
      static_cast<long long>(report.lb_skipped),
      static_cast<long long>(report.dp_abandoned));
  for (const auto& hit : report.results) {
    std::printf("  trajectory %6lld  range [%4lld, %4lld]  distance %.3f\n",
                static_cast<long long>(hit.trajectory_id),
                static_cast<long long>(hit.range.start),
                static_cast<long long>(hit.range.end), hit.distance);
  }
  return 0;
}

int RunQuery(int argc, char** argv) {
  std::string data_path = "dataset.csv";
  std::string snapshot_path;
  std::string kind_name = "porto";
  std::string measure_name = "dtw";
  std::string algo_name = "exacts";
  std::string policy_path;
  int64_t query_id = 0;
  int topk = 5;
  int threads = 1;
  bool prune = true;
  bool batch = false;
  int batch_size = 16;
  int64_t batch_seed = 7;
  double deadline_ms = 0.0;
  std::string plan = "auto";
  std::string connect;
  std::string client_id = "cli";
  util::FlagSet flags("simsub_cli query: top-k similar subtrajectory search");
  flags.AddString("data", &data_path, "database CSV");
  flags.AddString("snapshot", &snapshot_path,
                  "binary columnar snapshot (from 'ingest'); overrides "
                  "--data and serves the database over a mmap'd store");
  flags.AddString("kind", &kind_name, "porto | harbin | sports");
  flags.AddString("measure", &measure_name, "dtw | frechet | erp | ...");
  flags.AddString("algo", &algo_name,
                  "exacts | sizes | pss | pos | pos-d | simtra | random-s | "
                  "spring | ucr | rls | rls-skip | topk-sub");
  flags.AddString("algorithm", &algo_name, "alias for --algo");
  flags.AddString("policy", &policy_path,
                  "trained policy (for --algo=rls / rls-skip)");
  flags.AddInt("query_id", &query_id, "trajectory id used as the query");
  flags.AddInt("topk", &topk, "number of results");
  flags.AddInt("threads", &threads,
               "service worker pool size (>= 1); one scan takes up to this "
               "many participants");
  flags.AddBool("prune", &prune,
                "lower-bound pruning cascade (results are identical either "
                "way; --prune=false measures the unpruned scan)");
  flags.AddBool("batch", &batch,
                "serve a sampled query batch through the QueryService's "
                "async SubmitBatch");
  flags.AddInt("batch_size", &batch_size, "queries per batch (with --batch)");
  flags.AddInt("batch_seed", &batch_seed, "batch sampling seed");
  flags.AddDouble("deadline_ms", &deadline_ms,
                  "per-request deadline, enforced in the queue and mid-scan: "
                  "a request past it returns DeadlineExceeded (0 = none)");
  flags.AddString("plan", &plan,
                  "pruning filter: auto (the planner picks per query) | "
                  "none | rtree | grid");
  flags.AddString("connect", &connect,
                  "serve the query remotely through a running simsub_server "
                  "at host:port; --data/--snapshot supplies only the query "
                  "trajectory, the server's database answers");
  flags.AddString("client_id", &client_id,
                  "client identity for the server's per-client quotas "
                  "(with --connect)");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  if (!connect.empty() && batch) {
    return Fail(util::Status::InvalidArgument(
        "--connect serves one query per call; --batch is local-only"));
  }
  for (const util::Status& st : {CheckAtLeast("threads", threads, 1),
                                 CheckAtLeast("batch_size", batch_size, 0)}) {
    if (!st.ok()) return Fail(st);
  }

  // Every request is one declarative QuerySpec, served the same way in
  // every mode: the service (local or behind --connect) resolves the
  // measure and algorithm names, plans the filter unless --plan names one,
  // and enforces k, the deadline and the prune flag.
  service::QuerySpec spec;
  spec.measure = measure_name;
  spec.algorithm = algo_name;
  spec.algorithm_options.rls_policy_path = policy_path;
  spec.k = topk;
  if (plan == "none") {
    spec.filter = engine::PruningFilter::kNone;
  } else if (plan == "rtree") {
    spec.filter = engine::PruningFilter::kRTree;
  } else if (plan == "grid") {
    spec.filter = engine::PruningFilter::kInvertedGrid;
  } else if (plan != "auto") {
    return Fail(util::Status::InvalidArgument("unknown plan: " + plan));
  }
  spec.prune = prune;
  spec.deadline_ms = deadline_ms;

  auto kind = data::DatasetKindFromName(kind_name);
  if (!kind.ok()) return Fail(kind.status());
  std::shared_ptr<const data::CorpusSnapshot> snapshot;
  data::Dataset dataset;  // CSV path only; the snapshot path stays columnar
  if (!snapshot_path.empty()) {
    auto opened = data::CorpusSnapshot::Open(snapshot_path);
    if (!opened.ok()) return Fail(opened.status());
    snapshot = *opened;
  } else {
    auto loaded = data::LoadCsv(data_path, kind_name, *kind);
    if (!loaded.ok()) return Fail(loaded.status());
    dataset = std::move(*loaded);
  }

  // Take the queries out before the service consumes the database. The
  // snapshot paths materialize only the queries from the columns, never
  // the whole corpus.
  std::vector<data::WorkloadPair> workload;
  geo::Trajectory query;
  if (batch) {
    const size_t corpus = snapshot != nullptr ? snapshot->trajectory_count()
                                              : dataset.trajectories.size();
    if (corpus < 2) {
      return Fail(util::Status::InvalidArgument(
          "--batch samples pairs of distinct trajectories and needs at "
          "least 2, got " + std::to_string(corpus)));
    }
    const auto seed = static_cast<uint64_t>(batch_seed);
    workload = snapshot != nullptr
                   ? data::SampleWorkload(*snapshot, batch_size, seed)
                   : data::SampleWorkload(dataset, batch_size, seed);
  } else {
    auto found = FindTrajectory(snapshot.get(), dataset, query_id);
    if (!found.ok()) return Fail(found.status());
    query = std::move(*found);
    spec.points = query.View();
  }

  if (!connect.empty()) {
    auto host_port = ParseHostPort(connect);
    if (!host_port.ok()) return Fail(host_port.status());
    auto client = net::Client::Connect(host_port->first, host_port->second,
                                       {.client_id = client_id});
    if (!client.ok()) return Fail(client.status());
    auto report = client->Query(spec);
    if (!report.ok()) return Fail(report.status());
    return PrintReport(*report, spec, connect);
  }

  // QueryService pins its address (self-referential planner/pool), so
  // construct the chosen variant in place.
  service::ServiceOptions service_options;
  service_options.threads = threads;
  std::optional<service::QueryService> service;
  if (snapshot != nullptr) {
    service.emplace(*snapshot, service_options);
  } else {
    service.emplace(engine::SimSubEngine(std::move(dataset.trajectories)),
                    service_options);
  }
  if (!batch) {
    // The request runs on one pool worker; idle workers join its scan.
    return PrintReport(service->Submit(spec).get(), spec,
                       "local pool of " + std::to_string(threads));
  }

  std::vector<service::QuerySpec> specs(workload.size(), spec);
  for (size_t i = 0; i < workload.size(); ++i) {
    specs[i].points = workload[i].query.View();
  }
  util::Stopwatch timer;
  std::vector<std::future<engine::QueryReport>> futures =
      service->SubmitBatch(specs);
  std::vector<engine::QueryReport> reports;
  reports.reserve(futures.size());
  for (auto& f : futures) reports.push_back(f.get());
  double wall = timer.ElapsedSeconds();

  std::vector<double> latencies_ms;
  for (size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    if (!r.status.ok()) {
      std::printf("query %3zu (id %5lld): %s (queued %.2f ms)\n", i,
                  static_cast<long long>(workload[i].query.id()),
                  r.status.ToString().c_str(), r.queue_seconds * 1e3);
      continue;
    }
    latencies_ms.push_back(r.seconds * 1e3);
    std::printf(
        "query %3zu (id %5lld): plan=%-5s scanned %5lld pruned %5lld "
        "queued %6.2f ms exec %8.2f ms  best d=%.3f\n",
        i, static_cast<long long>(workload[i].query.id()),
        engine::PruningFilterName(r.filter_used),
        static_cast<long long>(r.trajectories_scanned),
        static_cast<long long>(r.trajectories_pruned),
        r.queue_seconds * 1e3, r.seconds * 1e3,
        r.results.empty() ? -1.0 : r.results.front().distance);
  }
  service::ServiceStats stats = service->stats();
  std::printf(
      "batch of %zu specs (%s/%s, pool=%d): %.1f ms wall, %.1f q/s, "
      "exec p50 %.2f ms, p99 %.2f ms\n",
      reports.size(), algo_name.c_str(), measure_name.c_str(),
      service->pool().size(), wall * 1e3,
      wall > 0 ? static_cast<double>(reports.size()) / wall : 0.0,
      util::Quantile(latencies_ms, 0.5), util::Quantile(latencies_ms, 0.99));
  std::printf(
      "served %lld, deadline-expired %lld, rejected %lld; plans: none=%lld "
      "rtree=%lld grid=%lld; evaluator scratch: %lld reused / %lld "
      "allocated\n",
      static_cast<long long>(stats.queries_served),
      static_cast<long long>(stats.deadline_expired),
      static_cast<long long>(stats.rejected),
      static_cast<long long>(stats.plans_none),
      static_cast<long long>(stats.plans_rtree),
      static_cast<long long>(stats.plans_grid),
      static_cast<long long>(stats.evaluator_reuses),
      static_cast<long long>(stats.evaluator_allocs));
  if (stats.rejected > 0) {
    // Invalid specs (unknown measure/algorithm, bad parameters, missing
    // policy) are per-request report statuses, but a batch that rejected
    // anything must still fail the process for scripts keying off the
    // exit code. Deadline expiry is an expected under-load outcome and
    // does not fail the run.
    std::fprintf(stderr, "error: %lld of %zu requests were rejected\n",
                 static_cast<long long>(stats.rejected), reports.size());
    return 1;
  }
  return 0;
}

int RunStatz(int argc, char** argv) {
  std::string connect = "127.0.0.1:7447";
  util::FlagSet flags(
      "simsub_cli statz: dump a running simsub_server's statistics");
  flags.AddString("connect", &connect, "server address (host:port)");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  auto host_port = ParseHostPort(connect);
  if (!host_port.ok()) return Fail(host_port.status());
  auto client = net::Client::Connect(host_port->first, host_port->second);
  if (!client.ok()) return Fail(client.status());
  auto statz = client->Statz();
  if (!statz.ok()) return Fail(statz.status());
  std::fputs(statz->c_str(), stdout);
  return 0;
}

// Prints the SIMD dispatch decision for this host: which ISA tier the
// kernels will run under, and the best tier the CPU supports. Lets CI and
// operators confirm a SIMSUB_ISA override (or its clamping) without running
// a query.
int RunIsa(int argc, char** argv) {
  util::FlagSet flags(
      "simsub_cli isa: print the runtime SIMD kernel dispatch decision");
  if (auto st = flags.Parse(argc, argv); !st.ok()) return Fail(st);
  const char* override_env = std::getenv("SIMSUB_ISA");
  std::printf("active:    %s\n", geo::ActiveIsaName());
  std::printf("supported: %s\n", geo::IsaTierName(geo::BestSupportedIsa()));
  std::printf("override:  %s\n",
              override_env != nullptr && override_env[0] != '\0' ? override_env
                                                                 : "(none)");
  return 0;
}

void PrintUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s <subcommand> [flags]\n"
               "\n"
               "subcommands:\n"
               "  generate  synthesize a trajectory dataset and write it as CSV\n"
               "  ingest    convert a CSV dataset into a binary columnar snapshot\n"
               "  train     train an RLS/RLS-Skip policy on a dataset\n"
               "  query     run a top-k similar subtrajectory search\n"
               "            (--connect=host:port serves it via simsub_server)\n"
               "  statz     dump a running simsub_server's statistics\n"
               "  isa       print the runtime SIMD kernel dispatch decision\n"
               "\n"
               "run '%s <subcommand> --help' for the subcommand's flags\n",
               argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  std::string subcommand = argv[1];
  if (subcommand == "--help" || subcommand == "-h" || subcommand == "help") {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  // Shift argv so the subcommand's FlagSet sees only its own flags.
  int sub_argc = argc - 1;
  char** sub_argv = argv + 1;
  if (subcommand == "generate") return RunGenerate(sub_argc, sub_argv);
  if (subcommand == "ingest") return RunIngest(sub_argc, sub_argv);
  if (subcommand == "train") return RunTrain(sub_argc, sub_argv);
  if (subcommand == "query") return RunQuery(sub_argc, sub_argv);
  if (subcommand == "statz") return RunStatz(sub_argc, sub_argv);
  if (subcommand == "isa") return RunIsa(sub_argc, sub_argv);
  std::fprintf(stderr, "unknown subcommand: %s\n", subcommand.c_str());
  PrintUsage(stderr, argv[0]);
  return 1;
}
