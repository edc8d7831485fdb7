#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "data/generator.h"
#include "util/random.h"

namespace simsub::suite {
namespace {

// Sub-seed streams of one run seed.
constexpr uint64_t kCorpusStream = 1;
constexpr uint64_t kQueryStream = 2;
constexpr uint64_t kPairStream = 3;
constexpr uint64_t kScheduleStream = 100;  // + phase

// Arrival rates of the two serving workloads, fixed in absolute q/s so that
// a slower or faster build meets the same offered load. C = 405 q/s is the
// serving capacity of the commit that introduced this benchmark: 2 workers
// over the mean inline RunOne time of the whole 1024-request pool (median
// of 5 repetitions on a 4-core Xeon, `simsub_bench --capacity`). C leaves
// out the loopback, codec and load-generator work that shares the 4 cores,
// so the served path saturates well before C: at 0.8 C goodput fell below
// the offered rate. Queueing also multiplies the shared machine's own
// slowdowns: over ten seeds, p99 spread 30% at 0.5 C (200 q/s) against 11%
// at 0.37 C and 7% at 0.25 C in the same stretch of runs. Peak runs at
// 0.37 C, 1.5 times the steady rate.
constexpr double kServeSteadyQps = 100.0;  // 0.25 C
constexpr double kServePeakQps = 150.0;    // 0.37 C

std::vector<SpecTemplate> ServeSpecs() {
  return {{"dtw", "pss"},
          {"dtw", "rls-skip"},
          {"frechet", "exacts"},
          {"frechet", "sizes"}};
}

WorkloadDef Serve(const char* name, double rate_qps) {
  WorkloadDef def;
  def.name = name;
  def.loop = LoopKind::kOpen;
  def.corpus_size = 2'500;
  def.pool_size = 1024;
  def.specs = ServeSpecs();
  def.service_threads = 2;
  def.rate_qps = rate_qps;
  def.connections = 4;
  def.train_episodes = 1000;
  return def;
}

std::vector<WorkloadDef> BuildWorkloads() {
  std::vector<WorkloadDef> defs;
  defs.push_back(Serve("serve_steady", kServeSteadyQps));
  defs.push_back(Serve("serve_peak", kServePeakQps));

  WorkloadDef batch;
  batch.name = "batch_exact";
  batch.loop = LoopKind::kClosedBatch;
  batch.corpus_size = 1'000;
  batch.pool_size = 128;
  batch.specs = {{"dtw", "pss"},
                 {"dtw", "sizes"},
                 {"frechet", "exacts"},
                 {"frechet", "sizes"}};
  batch.service_threads = 4;
  batch.batch_per_key = 8;
  defs.push_back(batch);

  WorkloadDef pairs;
  pairs.name = "pairs_rl";
  pairs.loop = LoopKind::kPairs;
  pairs.corpus_size = 2'000;
  pairs.pool_size = 4096;
  pairs.specs = {{"dtw", "rls"}, {"dtw", "rls-skip"}};
  pairs.train_episodes = 1000;
  defs.push_back(pairs);
  return defs;
}

/// Length of query slot `slot` of `slots`: an even profile over the
/// workload's length range, identical for every seed so that per-seed cost
/// differences come from trajectory shapes, not from query lengths.
int QueryLength(int slot, int slots) {
  return kMinQueryLength +
         (slot * (kMaxQueryLength - kMinQueryLength)) / std::max(slots, 1);
}

/// A Porto-model trip cut to exactly `length` points (the first `length`
/// samples of the first generated trip that is long enough).
geo::Trajectory MakeQuery(util::Rng& rng, int length, int64_t id) {
  const data::TaxiModel model = data::PortoModel();
  while (true) {
    geo::Trajectory trip = data::GenerateTaxiTrajectory(model, rng, id);
    if (trip.size() >= length) return trip.Slice(geo::SubRange(0, length - 1));
  }
}

}  // namespace

void Fnv::Bytes(const void* data, size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ULL;
  }
}

void Fnv::Points(const geo::Trajectory& t) {
  Value(t.id());
  Value(t.size());
  for (const geo::Point& p : t.points()) {
    Value(p.x);
    Value(p.y);
    Value(p.t);
  }
}

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = BuildWorkloads();
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

WorkloadDef SmokeVariant(WorkloadDef def) {
  def.corpus_size = 300;
  def.pool_size = def.loop == LoopKind::kPairs ? 64 : 16;
  def.train_episodes = std::min(def.train_episodes, 40);
  if (def.loop == LoopKind::kOpen) def.rate_qps = 40.0;
  return def;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Inputs MakeInputs(const WorkloadDef& def, uint64_t seed) {
  Inputs in;
  in.corpus = data::GenerateDataset(data::DatasetKind::kPorto, def.corpus_size,
                                    DeriveSeed(kDatasetSeed, kCorpusStream));
  const int spec_count = static_cast<int>(def.specs.size());

  if (def.loop == LoopKind::kPairs) {
    util::Rng rng(DeriveSeed(seed, kPairStream));
    const int64_t n = def.corpus_size;
    in.pairs.reserve(static_cast<size_t>(def.pool_size));
    for (int p = 0; p < def.pool_size; ++p) {
      PairItem item;
      item.data = static_cast<int>(rng.UniformInt(0, n - 1));
      int query = static_cast<int>(rng.UniformInt(0, n - 2));
      item.query = query >= item.data ? query + 1 : query;
      item.spec = p % spec_count;
      in.pairs.push_back(item);
    }
    return in;
  }

  if (def.loop == LoopKind::kOpen) {
    // The serving pool belongs to the dataset, and the run seed draws only
    // the traffic: the arrival times and the order requests are sent in
    // (MakeSchedule). A serving p99 is set by the costliest 1% of the
    // requests: with a pool drawn per seed, the p99 of execution time alone
    // spread 12-14% over ten seeds, and the same seeds read high or low at
    // every rate. Query i serves spec i mod S; each spec sees the full
    // length profile.
    util::Rng rng(DeriveSeed(kDatasetSeed, kQueryStream));
    const int slots = def.pool_size / spec_count;
    for (int i = 0; i < def.pool_size; ++i) {
      in.queries.push_back(MakeQuery(
          rng, QueryLength(i / spec_count, slots), 1'000'000 + i));
      in.items.push_back({i, i % spec_count});
    }
    return in;
  }

  util::Rng rng(DeriveSeed(seed, kQueryStream));
  // Closed batch: every query runs under every spec. Batch b takes, for each
  // key, one query from each of the batch_per_key length strata, so every
  // tile of a batch carries about the same total query length.
  for (int q = 0; q < def.pool_size; ++q) {
    in.queries.push_back(
        MakeQuery(rng, QueryLength(q, def.pool_size), 1'000'000 + q));
    for (int s = 0; s < spec_count; ++s) in.items.push_back({q, s});
  }
  const int per_key = def.batch_per_key;
  const int cycle = def.pool_size / per_key;
  for (int b = 0; b < cycle; ++b) {
    std::vector<int> batch;
    for (int s = 0; s < spec_count; ++s) {
      for (int t = 0; t < per_key; ++t) {
        batch.push_back((t * cycle + b) * spec_count + s);
      }
    }
    in.batches.push_back(std::move(batch));
  }
  return in;
}

Schedule MakeSchedule(const WorkloadDef& def, const Inputs& inputs,
                      uint64_t seed, int phase, double seconds) {
  Schedule schedule;
  if (def.loop != LoopKind::kOpen) return schedule;
  util::Rng rng(DeriveSeed(seed, kScheduleStream + static_cast<uint64_t>(phase)));
  const auto count = static_cast<size_t>(std::llround(def.rate_qps * seconds));
  schedule.arrivals_s.resize(count);
  for (double& at : schedule.arrivals_s) at = rng.Uniform(0.0, seconds);
  std::sort(schedule.arrivals_s.begin(), schedule.arrivals_s.end());
  std::vector<int> order(inputs.items.size());
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(order);
  schedule.items.resize(count);
  for (size_t j = 0; j < count; ++j) schedule.items[j] = order[j % order.size()];
  return schedule;
}

uint64_t RequestStreamHash(const Inputs& inputs, const Schedule& schedule) {
  Fnv fnv;
  for (const geo::Trajectory& t : inputs.corpus.trajectories) fnv.Points(t);
  for (const geo::Trajectory& t : inputs.queries) fnv.Points(t);
  for (const Item& item : inputs.items) {
    fnv.Value(item.query);
    fnv.Value(item.spec);
  }
  for (const PairItem& pair : inputs.pairs) {
    fnv.Value(pair.data);
    fnv.Value(pair.query);
    fnv.Value(pair.spec);
  }
  for (const std::vector<int>& batch : inputs.batches) {
    for (int item : batch) fnv.Value(item);
  }
  for (double at : schedule.arrivals_s) fnv.Value(at);
  for (int item : schedule.items) fnv.Value(item);
  return fnv.hash();
}

}  // namespace simsub::suite
