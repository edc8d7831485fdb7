// Cold-start comparison for the persistence layer: parsing a trajectory CSV
// versus opening a binary columnar snapshot of the same corpus
// (data/snapshot.h), plus the end-to-end time until a query-ready
// SimSubEngine exists on each path.
//
// Three load variants are timed on the same corpus:
//   csv_load        — data::LoadCsv text parse (the pre-snapshot cold start)
//   open_verified   — CorpusSnapshot::Open, mmap + checksum pass (default)
//   open_unverified — CorpusSnapshot::Open with verify_checksum = false
//                     (pure mmap: O(1), pages fault in on first query)
//
// and both engines answer the same pruned top-k workload, asserting
// bit-identical results (exits non-zero otherwise). Emits
// BENCH_snapshot.json (schema in bench/README.md). Defaults size the corpus
// at 100k trajectories (~6M points); --quick shrinks it for CI smoke runs.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "algo/exacts.h"
#include "common.h"
#include "data/dataset.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "geo/simd_dispatch.h"
#include "similarity/dtw.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

using namespace simsub;

int64_t FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int trajectories = 100000;
  std::string kind_name = "porto";
  int queries = 2;
  int k = 10;
  int64_t seed = 20260730;
  bool keep_files = false;
  std::string out = "BENCH_snapshot.json";
  util::FlagSet flags(
      "Snapshot cold-start baseline: CSV parse vs mmap'd columnar snapshot "
      "open, and engine-ready time on both paths");
  flags.AddBool("quick", &quick, "shrink the corpus for CI smoke runs");
  flags.AddInt("trajectories", &trajectories, "corpus size");
  flags.AddString("kind", &kind_name, "porto | harbin | sports");
  flags.AddInt("queries", &queries, "pruned top-k queries to cross-check");
  flags.AddInt("k", &k, "top-k");
  flags.AddInt("seed", &seed, "generator/workload seed");
  flags.AddBool("keep_files", &keep_files, "keep the temporary csv/snapshot");
  flags.AddString("out", &out, "JSON output path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (quick) trajectories = 2000;

  auto kind = data::DatasetKindFromName(kind_name);
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
    return 1;
  }

  bench::PrintBanner("bench_snapshot_load",
                     "storage-layer cold start: CSV vs columnar snapshot",
                     "trajectories=" + std::to_string(trajectories) +
                         " kind=" + kind_name + (quick ? " (quick)" : ""));

  const std::string csv_path = "snapshot_bench.csv";
  const std::string snap_path = "snapshot_bench.snap";

  // ---- Build the corpus files. The snapshot is written from the CSV-loaded
  // dataset (exactly the CLI `ingest` flow), so both load paths decode the
  // same coordinate bits and the engines must agree exactly.
  std::printf("generating %d trajectories...\n", trajectories);
  data::Dataset generated = data::GenerateDataset(
      *kind, trajectories, static_cast<uint64_t>(seed));
  if (auto st = data::SaveCsv(generated, csv_path); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  generated.trajectories.clear();
  generated.trajectories.shrink_to_fit();

  util::Stopwatch csv_timer;
  auto csv_dataset = data::LoadCsv(csv_path, kind_name, *kind);
  double csv_load_s = csv_timer.ElapsedSeconds();
  if (!csv_dataset.ok()) {
    std::fprintf(stderr, "%s\n", csv_dataset.status().ToString().c_str());
    return 1;
  }
  if (auto st = data::WriteSnapshot(*csv_dataset, snap_path); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const int64_t csv_bytes = FileSize(csv_path);
  const int64_t snap_bytes = FileSize(snap_path);

  // ---- Load timings (page cache warm for both files: this measures parse
  // and verification work, not disk).
  util::Stopwatch open_timer;
  auto snapshot = data::CorpusSnapshot::Open(snap_path);
  double open_verified_s = open_timer.ElapsedSeconds();
  if (!snapshot.ok()) {
    std::fprintf(stderr, "%s\n", snapshot.status().ToString().c_str());
    return 1;
  }
  data::SnapshotOpenOptions unverified;
  unverified.verify_checksum = false;
  util::Stopwatch raw_timer;
  auto snapshot_raw = data::CorpusSnapshot::Open(snap_path, unverified);
  double open_unverified_s = raw_timer.ElapsedSeconds();
  if (!snapshot_raw.ok()) {
    std::fprintf(stderr, "snapshot re-open failed\n");
    return 1;
  }

  // ---- Engine-ready timings. Copy the CSV dataset first so the workload
  // can still sample queries from it afterwards; the copy is not timed.
  std::vector<geo::Trajectory> csv_trajectories = csv_dataset->trajectories;
  util::Stopwatch csv_engine_timer;
  engine::SimSubEngine csv_engine(std::move(csv_trajectories));
  double csv_engine_ctor_s = csv_engine_timer.ElapsedSeconds();
  util::Stopwatch snap_engine_timer;
  engine::SimSubEngine snap_engine(**snapshot);
  double snap_engine_ctor_s = snap_engine_timer.ElapsedSeconds();

  // ---- Cross-check: both engines answer the same pruned workload with
  // bit-identical top-k entries.
  auto workload = data::SampleWorkloadWithQueryLength(
      *csv_dataset, queries, data::LengthGroup{30, 45, "G1"},
      static_cast<uint64_t>(seed) + 1);
  similarity::DtwMeasure dtw;
  algo::ExactS exact(&dtw);
  bool identical = true;
  double csv_query_s = 0.0;
  double snap_query_s = 0.0;
  for (const auto& pair : workload) {
    engine::QueryOptions qo;
    qo.k = k;
    util::Stopwatch q1;
    engine::QueryReport a = csv_engine.Query(pair.query.View(), exact, qo);
    csv_query_s += q1.ElapsedSeconds();
    util::Stopwatch q2;
    engine::QueryReport b = snap_engine.Query(pair.query.View(), exact, qo);
    snap_query_s += q2.ElapsedSeconds();
    identical = identical && a.results.size() == b.results.size();
    for (size_t i = 0; identical && i < a.results.size(); ++i) {
      identical = a.results[i].trajectory_id == b.results[i].trajectory_id &&
                  a.results[i].range == b.results[i].range &&
                  a.results[i].distance == b.results[i].distance;
    }
  }

  const double speedup_verified =
      open_verified_s > 0 ? csv_load_s / open_verified_s : 0.0;
  const double speedup_unverified =
      open_unverified_s > 0 ? csv_load_s / open_unverified_s : 0.0;
  const double csv_ready_s = csv_load_s + csv_engine_ctor_s;
  const double snap_ready_s = open_verified_s + snap_engine_ctor_s;
  const double speedup_ready = snap_ready_s > 0 ? csv_ready_s / snap_ready_s
                                                : 0.0;

  std::printf("file sizes:      csv %8.1f MB | snapshot %8.1f MB\n",
              static_cast<double>(csv_bytes) / 1e6,
              static_cast<double>(snap_bytes) / 1e6);
  std::printf("csv parse:       %10.1f ms\n", csv_load_s * 1e3);
  std::printf("open (verified): %10.1f ms  (%.1fx vs csv)\n",
              open_verified_s * 1e3, speedup_verified);
  std::printf("open (no verify):%10.3f ms  (%.0fx vs csv)\n",
              open_unverified_s * 1e3, speedup_unverified);
  std::printf("engine ready:    csv %8.1f ms | snapshot %8.1f ms (%.1fx)\n",
              csv_ready_s * 1e3, snap_ready_s * 1e3, speedup_ready);
  std::printf("pruned top-%d x%d: csv %.1f ms | snapshot %.1f ms | "
              "identical: %s\n",
              k, static_cast<int>(workload.size()), csv_query_s * 1e3,
              snap_query_s * 1e3, identical ? "yes" : "NO");

  std::FILE* json = std::fopen(out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(
      json,
      "{\n"
      "  \"bench\": \"snapshot_load\",\n"
      "  \"config\": {\"trajectories\": %d, \"kind\": \"%s\", "
      "\"queries\": %d, \"k\": %d, \"quick\": %s, \"isa\": \"%s\"},\n"
      "  \"files\": {\"csv_bytes\": %lld, \"snapshot_bytes\": %lld},\n"
      "  \"load\": {\"csv_load_seconds\": %.6f, "
      "\"open_verified_seconds\": %.6f, \"open_unverified_seconds\": %.6f,\n"
      "           \"speedup_verified\": %.3f, \"speedup_unverified\": %.3f},\n"
      "  \"engine_ready\": {\"csv_seconds\": %.6f, \"snapshot_seconds\": %.6f, "
      "\"speedup\": %.3f},\n"
      "  \"queries\": {\"csv_seconds\": %.6f, \"snapshot_seconds\": %.6f, "
      "\"identical_results\": %s}\n"
      "}\n",
      trajectories, kind_name.c_str(), static_cast<int>(workload.size()), k,
      quick ? "true" : "false", simsub::geo::ActiveIsaName(),
      static_cast<long long>(csv_bytes),
      static_cast<long long>(snap_bytes), csv_load_s, open_verified_s,
      open_unverified_s, speedup_verified,
      speedup_unverified, csv_ready_s, snap_ready_s, speedup_ready,
      csv_query_s, snap_query_s, identical ? "true" : "false");
  std::fclose(json);
  std::printf("wrote %s\n", out.c_str());

  if (!keep_files) {
    std::remove(csv_path.c_str());
    std::remove(snap_path.c_str());
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: snapshot engine results differ from CSV engine\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
