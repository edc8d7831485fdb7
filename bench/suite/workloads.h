// Seeded inputs of the benchmark of record: the four workloads, their
// corpora, query pools, spec mixes, open-loop arrival schedules and
// closed-loop batch streams.
//
// Every request a run sends is derived here from one 64-bit seed, so the
// same seed reproduces the same request stream byte for byte
// (RequestStreamHash). The program under test only ever sees the generated
// inputs. Corpora come from the repository's synthetic Porto generator
// (data/generator.h) with a fixed seed: like the paper's Porto file they are
// one dataset, and so is the serving query pool. The run seed draws the
// requests made against it: the arrival schedule and request order, the
// batch query pool and the (data, query) pairs.
#ifndef SIMSUB_BENCH_SUITE_WORKLOADS_H_
#define SIMSUB_BENCH_SUITE_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "geo/trajectory.h"

namespace simsub::suite {

/// Query lengths (points) of the serve/batch pools: an even profile over
/// [kMinQueryLength, kMaxQueryLength), the paper's G1..G4 span.
inline constexpr int kMinQueryLength = 30;
inline constexpr int kMaxQueryLength = 90;
/// Results per request.
inline constexpr int kTopK = 10;

enum class LoopKind {
  kOpen,         ///< Poisson arrivals at a fixed rate over a connection pool
  kClosedBatch,  ///< one caller: SubmitBatch, wait for all, repeat
  kPairs,        ///< one caller: Search() over (data, query) pairs
};

/// One (measure, algorithm) pair of a workload's spec mix.
struct SpecTemplate {
  std::string measure;
  std::string algorithm;
};

/// Static description of a workload. The sizes are chosen so that a run
/// fits a shared 4-core machine (at most 4 load threads and connections)
/// and every run collects at least 1000 latency samples.
struct WorkloadDef {
  std::string name;
  LoopKind loop = LoopKind::kOpen;
  /// Corpus size in trajectories.
  int corpus_size = 0;
  /// Query pool (serve/batch) or (data, query) pair pool (pairs).
  int pool_size = 0;
  std::vector<SpecTemplate> specs;
  /// Service worker pool width.
  int service_threads = 2;
  /// Open loop: absolute arrival rate and connection-pool size.
  double rate_qps = 0.0;
  int connections = 0;
  /// Closed batch: specs per key in one SubmitBatch.
  int batch_per_key = 0;
  /// RLS policy training episodes (policies are trained at set-up).
  int train_episodes = 0;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadDef>& Workloads();

/// Looks a workload up by name; null when unknown.
const WorkloadDef* FindWorkload(const std::string& name);

/// The same workload shrunk to a ~1 s run on a tiny corpus (self-test).
WorkloadDef SmokeVariant(WorkloadDef def);

/// Independent sub-seed `stream` of `seed` (splitmix64 mixing).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Seed of the fixed dataset: the corpora and the RLS policies trained on
/// them at set-up (a policy is trained once per dataset, as in the paper).
inline constexpr uint64_t kDatasetSeed = 20200601;

/// One distinct request of a serve/batch workload.
struct Item {
  int query = 0;
  int spec = 0;
};

/// One (data, query) pair of the pairs workload; both are corpus ordinals.
struct PairItem {
  int data = 0;
  int query = 0;
  int spec = 0;
};

/// A seeded open-loop schedule: sorted arrival offsets (seconds from the
/// phase start) and the item each arrival requests.
struct Schedule {
  std::vector<double> arrivals_s;
  std::vector<int> items;
};

struct Inputs {
  data::Dataset corpus;
  /// Serve/batch query pool (not part of the corpus).
  std::vector<geo::Trajectory> queries;
  /// Serve/batch distinct requests.
  std::vector<Item> items;
  /// Pairs workload pool.
  std::vector<PairItem> pairs;
  /// Closed batch: one cycle of batches, each a list of item indices.
  std::vector<std::vector<int>> batches;
};

/// Builds every input of `def` from `seed`.
Inputs MakeInputs(const WorkloadDef& def, uint64_t seed);

/// Open-loop arrivals for one phase of `seconds` at def.rate_qps. The count
/// is fixed at round(rate * seconds) and the offsets are uniform order
/// statistics — a Poisson process conditioned on its count, so the offered
/// load of every phase is exact while inter-arrival gaps stay exponential.
/// `phase` separates the schedules of several phases of one run.
Schedule MakeSchedule(const WorkloadDef& def, const Inputs& inputs,
                      uint64_t seed, int phase, double seconds);

/// 64-bit FNV-1a over the bytes of the values fed to it, in order.
class Fnv {
 public:
  void Bytes(const void* data, size_t size);
  template <typename T>
  void Value(const T& value) {
    Bytes(&value, sizeof(value));
  }
  /// Id, size, then every point's x, y and t.
  void Points(const geo::Trajectory& t);
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a over every generated input (corpus, queries, items, pairs,
/// batches) and `schedule`: equal hashes mean identical request streams.
uint64_t RequestStreamHash(const Inputs& inputs, const Schedule& schedule);

}  // namespace simsub::suite

#endif  // SIMSUB_BENCH_SUITE_WORKLOADS_H_
