// The request stream of every workload is a pure function of the seed:
// the same seed gives a byte-identical stream, another seed a different one.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "workloads.h"

namespace {

using namespace simsub::suite;

int failures = 0;

void Check(bool ok, const char* what, const std::string& workload) {
  if (!ok) {
    std::fprintf(stderr, "FAIL [%s] %s\n", workload.c_str(), what);
    ++failures;
  }
}

uint64_t StreamHash(const WorkloadDef& def, uint64_t seed) {
  const Inputs inputs = MakeInputs(def, seed);
  return RequestStreamHash(inputs, MakeSchedule(def, inputs, seed, 0, 2.0));
}

}  // namespace

int main() {
  for (const WorkloadDef& def : Workloads()) {
    const uint64_t a = StreamHash(def, 7);
    Check(a == StreamHash(def, 7), "same seed, same request stream", def.name);
    Check(a != StreamHash(def, 8), "different seed, different request stream",
          def.name);

    const Inputs inputs = MakeInputs(def, 7);
    Check(static_cast<int>(inputs.corpus.trajectories.size()) == def.corpus_size,
          "corpus size", def.name);
    switch (def.loop) {
      case LoopKind::kOpen: {
        const Schedule s = MakeSchedule(def, inputs, 7, 0, 2.0);
        Check(s.arrivals_s.size() == static_cast<size_t>(std::llround(def.rate_qps * 2.0)),
              "arrival count is rate x seconds", def.name);
        bool sorted = true;
        for (size_t j = 0; j < s.arrivals_s.size(); ++j) {
          sorted = sorted && s.arrivals_s[j] >= 0.0 && s.arrivals_s[j] < 2.0 &&
                   (j == 0 || s.arrivals_s[j - 1] <= s.arrivals_s[j]);
        }
        Check(sorted, "arrivals sorted within the phase", def.name);
        Check(MakeSchedule(def, inputs, 7, 1, 2.0).arrivals_s != s.arrivals_s,
              "phases have distinct schedules", def.name);
        for (const Item& item : inputs.items) {
          const int length = inputs.queries[static_cast<size_t>(item.query)].size();
          Check(length >= kMinQueryLength && length < kMaxQueryLength,
                "query length within the profile", def.name);
        }
        break;
      }
      case LoopKind::kClosedBatch: {
        std::set<int> seen;
        for (const auto& batch : inputs.batches) {
          Check(batch.size() == def.specs.size() * static_cast<size_t>(def.batch_per_key),
                "one full tile per key", def.name);
          seen.insert(batch.begin(), batch.end());
        }
        Check(seen.size() == inputs.items.size(), "a cycle covers every request",
              def.name);
        break;
      }
      case LoopKind::kPairs:
        Check(static_cast<int>(inputs.pairs.size()) == def.pool_size, "pair count",
              def.name);
        for (const PairItem& p : inputs.pairs) {
          Check(p.data != p.query, "pair of distinct trajectories", def.name);
        }
        break;
    }
  }
  if (failures == 0) std::printf("bench_suite_workloads_test: OK\n");
  return failures == 0 ? 0 : 1;
}
