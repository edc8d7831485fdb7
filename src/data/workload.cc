#include "data/workload.h"

#include <algorithm>

#include "data/snapshot.h"
#include "util/logging.h"
#include "util/random.h"

namespace simsub::data {

namespace {

// The pair draws of both SampleWorkload overloads; `query_at(ordinal)`
// materializes the picked query, so the overloads draw identical workloads.
template <typename QueryAt>
std::vector<WorkloadPair> DrawPairs(size_t corpus_size, int count,
                                    uint64_t seed, const QueryAt& query_at) {
  SIMSUB_CHECK_GE(corpus_size, 2u);
  util::Rng rng(seed);
  std::vector<WorkloadPair> out;
  out.reserve(static_cast<size_t>(count));
  const int64_t n = static_cast<int64_t>(corpus_size);
  for (int i = 0; i < count; ++i) {
    int64_t a = rng.UniformInt(0, n - 1);
    int64_t b = rng.UniformInt(0, n - 2);
    if (b >= a) ++b;  // distinct pair, uniform over ordered pairs
    WorkloadPair pair;
    pair.data_index = static_cast<int>(a);
    pair.query = query_at(static_cast<size_t>(b));
    out.push_back(std::move(pair));
  }
  return out;
}

}  // namespace

std::vector<WorkloadPair> SampleWorkload(const Dataset& dataset, int count,
                                         uint64_t seed) {
  return DrawPairs(dataset.trajectories.size(), count, seed,
                   [&](size_t b) { return dataset.trajectories[b]; });
}

std::vector<WorkloadPair> SampleWorkload(const CorpusSnapshot& snapshot,
                                         int count, uint64_t seed) {
  // Only the picked query ordinals are interleaved out of the columns.
  return DrawPairs(snapshot.trajectory_count(), count, seed, [&](size_t b) {
    return snapshot.MaterializeTrajectory(b);
  });
}

std::vector<LengthGroup> PaperLengthGroups() {
  return {{30, 45, "G1"}, {45, 60, "G2"}, {60, 75, "G3"}, {75, 90, "G4"}};
}

std::vector<WorkloadPair> SampleWorkloadWithQueryLength(
    const Dataset& dataset, int count, const LengthGroup& group,
    uint64_t seed) {
  SIMSUB_CHECK_GE(dataset.trajectories.size(), 2u);
  SIMSUB_CHECK_GT(group.lo, 0);
  SIMSUB_CHECK_GT(group.hi, group.lo);
  util::Rng rng(seed);
  const int64_t n = static_cast<int64_t>(dataset.trajectories.size());

  // Indices of trajectories long enough to yield a query in the group.
  std::vector<int> eligible;
  for (size_t i = 0; i < dataset.trajectories.size(); ++i) {
    if (dataset.trajectories[i].size() >= group.lo) {
      eligible.push_back(static_cast<int>(i));
    }
  }
  SIMSUB_CHECK(!eligible.empty())
      << "no trajectory long enough for query group " << group.label;

  std::vector<WorkloadPair> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    int qidx = eligible[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(eligible.size()) - 1))];
    const geo::Trajectory& source =
        dataset.trajectories[static_cast<size_t>(qidx)];
    int max_len = std::min(source.size(), group.hi - 1);
    int len = static_cast<int>(rng.UniformInt(group.lo, max_len));
    int start = static_cast<int>(rng.UniformInt(0, source.size() - len));
    WorkloadPair pair;
    pair.query = source.Slice(geo::SubRange(start, start + len - 1));
    // Pair with a random *different* data trajectory.
    int64_t d = rng.UniformInt(0, n - 2);
    if (d >= qidx) ++d;
    pair.data_index = static_cast<int>(d);
    out.push_back(std::move(pair));
  }
  return out;
}

}  // namespace simsub::data
