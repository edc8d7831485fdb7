// Kernel-level perf baseline: scalar AoS similarity kernels vs the SoA
// two-pass kernels (geo/soa.h), and the engine's top-k scan with the
// lower-bound pruning cascade on vs off.
//
// Four tiers are measured:
//   1. distance-row primitives — the sqrt-per-element row fill that
//      dominates every DP evaluator, AoS scalar vs SoA vectorized;
//   2. the DTW evaluator — the pre-SoA per-cell implementation (replicated
//      below verbatim) vs the production DtwEvaluator, streaming a long
//      trajectory through Start/Extend; then the start row alone, Start at
//      every stream point (the scalar row's fused sqrt + add loop vs the
//      dispatched two-pass row, bit-identity checked); then the DTW suffix
//      pass (PSS's and the RL state's backward pass) as that Start/Extend
//      row chain vs BackwardPass, which fills several staggered rows per
//      SIMD vector;
//   3. end-to-end engine top-k — SimSubEngine::Query with
//      QueryOptions::prune off vs on (1 thread and hardware threads),
//      asserting the results are bit-identical and reporting the prune
//      counters (lb_skipped, dp_abandoned);
//   4. the batch API — the same pruned workload through one
//      SimSubEngine::QueryBatch call (single-threaded, so the reported
//      qps_per_core is literally queries per second per core), asserting
//      bit-identity against the one-at-a-time reports. QueryBatch runs one
//      Query per view, so the speedup reads about 1.0x: the tier checks
//      that the batch API costs nothing over the plain loop.
//
// The SoA kernels dispatch through the runtime ISA tiers
// (geo/simd_dispatch.h); the selected tier is recorded in the JSON config
// as "isa", and check_bench.py refuses to compare runs across tiers.
//
// Emits machine-readable BENCH_kernels.json (see bench/README.md for the
// schema); exits non-zero if pruned and unpruned engine results differ.
// Run a Release build; --quick shrinks the workload for CI smoke tests.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "algo/exacts.h"
#include "common.h"
#include "data/generator.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "geo/simd_dispatch.h"
#include "geo/soa.h"
#include "geo/trajectory.h"
#include "similarity/dtw.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace {

using namespace simsub;

std::vector<geo::Point> RandomPoints(util::Rng& rng, int n, double extent) {
  std::vector<geo::Point> pts;
  pts.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    pts.emplace_back(rng.Uniform(-extent, extent), rng.Uniform(-extent, extent));
  }
  return pts;
}

// The pre-SoA DtwEvaluator, kept verbatim as the scalar baseline: AoS
// geo::Distance per cell inside the recurrence, initializer-list std::min.
// The optimize attribute restores the pre-PR codegen (errno-preserving
// sqrt, no autovectorization) that the project-wide -fno-math-errno flag
// would otherwise grant this baseline too.
#if defined(__GNUC__) && !defined(__clang__)
#define SCALAR_BASELINE_CODEGEN \
  __attribute__((optimize("math-errno", "no-tree-vectorize")))
#else
#define SCALAR_BASELINE_CODEGEN
#endif

class ScalarDtwEvaluator {
 public:
  explicit ScalarDtwEvaluator(std::span<const geo::Point> query)
      : query_(query), row_(query.size()), scratch_(query.size()) {}

  SCALAR_BASELINE_CODEGEN double Start(const geo::Point& p) {
    double acc = 0.0;
    for (size_t j = 0; j < query_.size(); ++j) {
      acc += geo::Distance(p, query_[j]);
      row_[j] = acc;
    }
    return row_.back();
  }

  const std::vector<double>& row() const { return row_; }

  SCALAR_BASELINE_CODEGEN double Extend(const geo::Point& p) {
    scratch_[0] = row_[0] + geo::Distance(p, query_[0]);
    for (size_t j = 1; j < query_.size(); ++j) {
      double best = std::min({row_[j - 1], row_[j], scratch_[j - 1]});
      scratch_[j] = geo::Distance(p, query_[j]) + best;
    }
    row_.swap(scratch_);
    return row_.back();
  }

 private:
  std::span<const geo::Point> query_;
  std::vector<double> row_;
  std::vector<double> scratch_;
};

struct RowBenchResult {
  double scalar_ns = 0.0;  // per element
  double soa_ns = 0.0;
  double speedup() const { return soa_ns > 0 ? scalar_ns / soa_ns : 0.0; }
};

// Times one row-fill variant; the checksum defeats dead-code elimination.
template <typename Fill>
double TimeRowFill(int iters, int m, Fill&& fill, double* checksum) {
  util::Stopwatch timer;
  double acc = 0.0;
  for (int it = 0; it < iters; ++it) acc += fill(it);
  *checksum += acc;
  return timer.ElapsedSeconds() * 1e9 / (static_cast<double>(iters) * m);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int query_len = 256;
  int row_iters = 20000;
  int stream_len = 4000;
  int stream_iters = 40;
  int trajectories = 300;
  int queries = 12;
  int k = 10;
  std::string out = "BENCH_kernels.json";
  util::FlagSet flags(
      "Kernel baseline: scalar vs SoA similarity kernels, pruned vs unpruned "
      "engine top-k");
  flags.AddBool("quick", &quick, "shrink the workload for CI smoke runs");
  flags.AddInt("query_len", &query_len, "query length m for the kernels");
  flags.AddInt("row_iters", &row_iters, "distance-row fill iterations");
  flags.AddInt("stream_len", &stream_len, "trajectory length for tier 2");
  flags.AddInt("stream_iters", &stream_iters, "tier-2 stream repetitions");
  flags.AddInt("trajectories", &trajectories, "engine database size");
  flags.AddInt("queries", &queries, "engine query count");
  flags.AddInt("k", &k, "engine top-k");
  flags.AddString("out", &out, "JSON output path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (quick) {
    query_len = 128;
    row_iters = 2000;
    stream_len = 600;
    stream_iters = 5;
    trajectories = 60;
    queries = 4;
  }

  bench::PrintBanner("bench_kernels",
                     "SoA kernel + pruning-cascade perf baseline",
                     "query_len=" + std::to_string(query_len) +
                         " trajectories=" + std::to_string(trajectories) +
                         " queries=" + std::to_string(queries) + " isa=" +
                         geo::ActiveIsaName() + (quick ? " (quick)" : ""));

  util::Rng rng(20260730);
  std::vector<geo::Point> query = RandomPoints(rng, query_len, 5000.0);
  geo::FlatPoints query_soa{std::span<const geo::Point>(query)};
  std::vector<geo::Point> stream = RandomPoints(rng, row_iters, 5000.0);
  std::vector<double> row(static_cast<size_t>(query_len));
  double checksum = 0.0;

  // ---- Tier 1: distance-row fills. -----------------------------------------
  // The row functions live in another TU (no LTO), so the calls cannot be
  // dead-code-eliminated; one element per iteration feeds the checksum
  // without adding a reduction pass that would mask the fill cost.
  RowBenchResult dist_row;
  dist_row.scalar_ns = TimeRowFill(
      row_iters, query_len,
      [&](int it) {
        geo::DistanceRowScalar(stream[static_cast<size_t>(it)], query,
                               row.data());
        return row[static_cast<size_t>(it) % row.size()];
      },
      &checksum);
  dist_row.soa_ns = TimeRowFill(
      row_iters, query_len,
      [&](int it) {
        geo::DistanceRow(stream[static_cast<size_t>(it)], query_soa.View(),
                         row.data());
        return row[static_cast<size_t>(it) % row.size()];
      },
      &checksum);
  RowBenchResult sq_row;
  sq_row.scalar_ns = TimeRowFill(
      row_iters, query_len,
      [&](int it) {
        geo::SquaredDistanceRowScalar(stream[static_cast<size_t>(it)], query,
                                      row.data());
        return row[static_cast<size_t>(it) % row.size()];
      },
      &checksum);
  sq_row.soa_ns = TimeRowFill(
      row_iters, query_len,
      [&](int it) {
        geo::SquaredDistanceRow(stream[static_cast<size_t>(it)],
                                query_soa.View(), row.data());
        return row[static_cast<size_t>(it) % row.size()];
      },
      &checksum);
  std::printf("distance row: scalar %6.2f ns/elem | soa %6.2f ns/elem | "
              "%.2fx\n",
              dist_row.scalar_ns, dist_row.soa_ns, dist_row.speedup());
  std::printf("squared row:  scalar %6.2f ns/elem | soa %6.2f ns/elem | "
              "%.2fx\n",
              sq_row.scalar_ns, sq_row.soa_ns, sq_row.speedup());

  // ---- Tier 2: DTW evaluator stream. ---------------------------------------
  std::vector<geo::Point> traj = RandomPoints(rng, stream_len, 5000.0);
  similarity::DtwMeasure dtw;
  RowBenchResult dtw_stream;
  {
    util::Stopwatch timer;
    double acc = 0.0;
    for (int it = 0; it < stream_iters; ++it) {
      ScalarDtwEvaluator eval(query);
      acc += eval.Start(traj[0]);
      for (size_t i = 1; i < traj.size(); ++i) acc += eval.Extend(traj[i]);
    }
    checksum += acc;
    dtw_stream.scalar_ns =
        timer.ElapsedSeconds() * 1e9 /
        (static_cast<double>(stream_iters) * stream_len * query_len);
  }
  {
    util::Stopwatch timer;
    double acc = 0.0;
    for (int it = 0; it < stream_iters; ++it) {
      auto eval = dtw.NewEvaluator(query);
      acc += eval->Start(traj[0]);
      for (size_t i = 1; i < traj.size(); ++i) acc += eval->Extend(traj[i]);
    }
    checksum += acc;
    dtw_stream.soa_ns =
        timer.ElapsedSeconds() * 1e9 /
        (static_cast<double>(stream_iters) * stream_len * query_len);
  }
  std::printf("dtw extend:   scalar %6.2f ns/cell | soa %6.2f ns/cell | "
              "%.2fx\n",
              dtw_stream.scalar_ns, dtw_stream.soa_ns, dtw_stream.speedup());

  // Each side of the passes below keeps its fastest of 5 repetitions: a
  // quick-mode repetition takes about a millisecond, which one preemption
  // can double.
  auto fastest_ns_per_cell = [&](auto&& pass) {
    double best_s = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 5; ++rep) {
      util::Stopwatch timer;
      for (int it = 0; it < stream_iters; ++it) pass();
      best_s = std::min(best_s, timer.ElapsedSeconds());
    }
    return best_s * 1e9 /
           (static_cast<double>(stream_iters) * stream_len * query_len);
  };

  // A start row at every stream point: the scalar evaluator's Start
  // (scalar_ns) against DtwEvaluator::Start (soa_ns), which fills the
  // distances vector-wide and then sums them. Every row of the dispatched
  // kernel must equal the scalar row bit for bit.
  RowBenchResult dtw_start;
  bool start_identical = true;
  {
    ScalarDtwEvaluator scalar(query);
    auto eval = dtw.NewEvaluator(query);
    dtw_start.scalar_ns = fastest_ns_per_cell([&] {
      for (const geo::Point& p : traj) checksum += scalar.Start(p);
    });
    dtw_start.soa_ns = fastest_ns_per_cell([&] {
      for (const geo::Point& p : traj) checksum += eval->Start(p);
    });
    for (const geo::Point& p : traj) {
      const double last = scalar.Start(p);
      geo::DtwStartRow(p, query_soa.View(), row.data());
      start_identical = start_identical && row == scalar.row() &&
                        eval->Start(p) == last;
    }
  }
  std::printf("dtw start:    scalar %6.2f ns/cell | soa %6.2f ns/cell | "
              "%.2fx | soa==scalar: %s\n",
              dtw_start.scalar_ns, dtw_start.soa_ns, dtw_start.speedup(),
              start_identical ? "yes" : "NO");

  // The suffix pass over the same trajectory and the reversed query, as
  // ComputeSuffixDistances runs it: the Start/Extend row chain (scalar_ns)
  // against the multi-row BackwardPass (soa_ns).
  RowBenchResult dtw_suffix;
  bool suffix_identical = true;
  {
    std::vector<geo::Point> reversed_query = geo::ReversePoints(query);
    auto eval = dtw.NewEvaluator(reversed_query);
    std::vector<double> chain(traj.size()), multi(traj.size());
    dtw_suffix.scalar_ns = fastest_ns_per_cell([&] {
      chain.back() = eval->Start(traj.back());
      for (size_t i = traj.size() - 1; i-- > 0;) {
        chain[i] = eval->Extend(traj[i]);
      }
      checksum += chain[0];
    });
    dtw_suffix.soa_ns = fastest_ns_per_cell([&] {
      eval->BackwardPass(traj, multi);
      checksum += multi[0];
    });
    suffix_identical = chain == multi;
  }
  std::printf("dtw suffix:   row chain %6.2f ns/cell | multi-row %6.2f "
              "ns/cell | %.2fx | multi-row==row chain: %s\n",
              dtw_suffix.scalar_ns, dtw_suffix.soa_ns, dtw_suffix.speedup(),
              suffix_identical ? "yes" : "NO");

  // ---- Tier 3: engine top-k, pruned vs unpruned. ---------------------------
  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, trajectories, 4242);
  auto workload = data::SampleWorkloadWithQueryLength(
      dataset, queries, data::LengthGroup{30, 45, "G1"}, 4243);
  engine::SimSubEngine engine(std::move(dataset.trajectories));
  algo::ExactS exact(&dtw);
  int hw = static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));

  auto run_all = [&](bool prune, int threads, int64_t* lb_skipped,
                     int64_t* dp_abandoned,
                     std::vector<engine::QueryReport>* reports) {
    util::Stopwatch timer;
    for (const auto& pair : workload) {
      engine::QueryOptions qo;
      qo.k = k;
      qo.threads = threads;
      qo.prune = prune;
      engine::QueryReport r = engine.Query(pair.query.View(), exact, qo);
      if (lb_skipped != nullptr) *lb_skipped += r.lb_skipped;
      if (dp_abandoned != nullptr) *dp_abandoned += r.dp_abandoned;
      if (reports != nullptr) reports->push_back(std::move(r));
    }
    return timer.ElapsedSeconds();
  };

  std::vector<engine::QueryReport> unpruned_reports, pruned_reports;
  double unpruned_s = run_all(false, 1, nullptr, nullptr, &unpruned_reports);
  int64_t lb_skipped = 0, dp_abandoned = 0;
  double pruned_s = run_all(true, 1, &lb_skipped, &dp_abandoned,
                            &pruned_reports);
  double pruned_mt_s = run_all(true, hw, nullptr, nullptr, nullptr);

  bool identical = true;
  for (size_t i = 0; i < unpruned_reports.size() && identical; ++i) {
    const auto& a = unpruned_reports[i].results;
    const auto& b = pruned_reports[i].results;
    identical = a.size() == b.size();
    for (size_t j = 0; identical && j < a.size(); ++j) {
      identical = a[j].trajectory_id == b[j].trajectory_id &&
                  a[j].range == b[j].range && a[j].distance == b[j].distance;
    }
  }

  double engine_speedup = pruned_s > 0 ? unpruned_s / pruned_s : 0.0;
  double engine_speedup_mt = pruned_mt_s > 0 ? unpruned_s / pruned_mt_s : 0.0;
  std::printf("engine top-%d: unpruned %7.1f ms | pruned %7.1f ms (%.2fx) | "
              "pruned %dT %7.1f ms (%.2fx)\n",
              k, unpruned_s * 1e3, pruned_s * 1e3, engine_speedup, hw,
              pruned_mt_s * 1e3, engine_speedup_mt);
  std::printf("prune counters: lb_skipped=%lld dp_abandoned=%lld | "
              "pruned==unpruned: %s\n",
              static_cast<long long>(lb_skipped),
              static_cast<long long>(dp_abandoned), identical ? "yes" : "NO");

  // ---- Tier 4: the batch API. ----------------------------------------------
  // The tier-3 pruned single-thread loop is the sequential baseline; the
  // batched side pushes the whole workload through one QueryBatch call,
  // also single-threaded. QueryBatch is a loop over Query, so the speedup
  // should read about 1.0x, and qps_per_core is exactly queries / seconds
  // on one core. Each side keeps its fastest of 5 alternating repetitions:
  // timed once each, the ratio read 0.78-1.04 on one idle machine.
  std::vector<engine::BatchedQueryView> views;
  views.reserve(workload.size());
  for (const auto& pair : workload) {
    engine::BatchedQueryView v;
    v.points = pair.query.View();
    v.k = k;
    views.push_back(v);
  }
  double sequential_s = std::numeric_limits<double>::infinity();
  double batched_s = std::numeric_limits<double>::infinity();
  std::vector<engine::QueryReport> batched_reports;
  engine::BatchQueryOptions bo;
  bo.threads = 1;
  bo.prune = true;
  for (int rep = 0; rep < 5; ++rep) {
    sequential_s =
        std::min(sequential_s, run_all(true, 1, nullptr, nullptr, nullptr));
    util::Stopwatch timer;
    batched_reports = engine.QueryBatch(views, exact, bo);
    batched_s = std::min(batched_s, timer.ElapsedSeconds());
  }
  bool batched_identical = true;
  for (size_t i = 0; i < pruned_reports.size() && batched_identical; ++i) {
    const auto& a = pruned_reports[i].results;
    const auto& b = batched_reports[i].results;
    batched_identical = a.size() == b.size();
    for (size_t j = 0; batched_identical && j < a.size(); ++j) {
      batched_identical = a[j].trajectory_id == b[j].trajectory_id &&
                          a[j].range == b[j].range &&
                          a[j].distance == b[j].distance;
    }
  }
  double batched_speedup = batched_s > 0 ? sequential_s / batched_s : 0.0;
  double qps_per_core =
      batched_s > 0 ? static_cast<double>(workload.size()) / batched_s : 0.0;
  std::printf("batched top-%d: sequential %7.1f ms | batched %7.1f ms "
              "(%.2fx) | %.2f qps/core | batched==sequential: %s\n",
              k, sequential_s * 1e3, batched_s * 1e3, batched_speedup,
              qps_per_core, batched_identical ? "yes" : "NO");

  std::FILE* json = std::fopen(out.c_str(), "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(
      json,
      "{\n"
      "  \"bench\": \"kernels\",\n"
      "  \"config\": {\"query_len\": %d, \"stream_len\": %d, "
      "\"trajectories\": %d, \"queries\": %d, \"k\": %d, \"quick\": %s, "
      "\"isa\": \"%s\"},\n"
      "  \"distance_row\": {\"scalar_ns_per_elem\": %.3f, "
      "\"soa_ns_per_elem\": %.3f, \"speedup\": %.3f},\n"
      "  \"squared_distance_row\": {\"scalar_ns_per_elem\": %.3f, "
      "\"soa_ns_per_elem\": %.3f, \"speedup\": %.3f},\n"
      "  \"dtw_extend\": {\"scalar_ns_per_cell\": %.3f, "
      "\"soa_ns_per_cell\": %.3f, \"speedup\": %.3f},\n"
      "  \"dtw_start\": {\"scalar_ns_per_cell\": %.3f, "
      "\"soa_ns_per_cell\": %.3f, \"speedup\": %.3f, "
      "\"identical_to_scalar\": %s},\n"
      "  \"dtw_suffix\": {\"row_chain_ns_per_cell\": %.3f, "
      "\"multi_row_ns_per_cell\": %.3f, \"speedup\": %.3f},\n"
      "  \"engine_topk\": {\"unpruned_seconds\": %.6f, "
      "\"pruned_seconds\": %.6f, \"pruned_mt_seconds\": %.6f, "
      "\"mt_threads\": %d, \"speedup\": %.3f, \"speedup_mt\": %.3f,\n"
      "                  \"lb_skipped\": %lld, \"dp_abandoned\": %lld, "
      "\"pruned_identical_to_unpruned\": %s},\n"
      "  \"batched\": {\"sequential_seconds\": %.6f, "
      "\"batched_seconds\": %.6f, \"speedup\": %.3f, "
      "\"qps_per_core\": %.3f, \"identical_to_sequential\": %s},\n"
      "  \"checksum\": %.6e\n"
      "}\n",
      query_len, stream_len, trajectories, queries, k,
      quick ? "true" : "false", geo::ActiveIsaName(), dist_row.scalar_ns,
      dist_row.soa_ns, dist_row.speedup(), sq_row.scalar_ns, sq_row.soa_ns,
      sq_row.speedup(), dtw_stream.scalar_ns, dtw_stream.soa_ns,
      dtw_stream.speedup(), dtw_start.scalar_ns, dtw_start.soa_ns,
      dtw_start.speedup(), start_identical ? "true" : "false",
      dtw_suffix.scalar_ns, dtw_suffix.soa_ns,
      dtw_suffix.speedup(), unpruned_s, pruned_s, pruned_mt_s, hw,
      engine_speedup, engine_speedup_mt, static_cast<long long>(lb_skipped),
      static_cast<long long>(dp_abandoned), identical ? "true" : "false",
      sequential_s, batched_s, batched_speedup, qps_per_core,
      batched_identical ? "true" : "false", checksum);
  std::fclose(json);
  std::printf("wrote %s\n", out.c_str());

  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: pruned top-k differs from unpruned results\n");
    return 1;
  }
  if (!start_identical) {
    std::fprintf(stderr, "FAIL: dispatched start row differs from the scalar "
                         "row\n");
    return 1;
  }
  if (!suffix_identical) {
    std::fprintf(stderr,
                 "FAIL: multi-row suffix pass differs from the row chain\n");
    return 1;
  }
  if (!batched_identical) {
    std::fprintf(stderr,
                 "FAIL: batched top-k differs from sequential results\n");
    return 1;
  }
  std::printf("OK\n");
  return 0;
}
