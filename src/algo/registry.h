// Name-based construction of the SimSub search algorithms, the counterpart
// of similarity::MakeMeasure: a serving request names its algorithm
// ("exacts", "pss", "rls-skip", ...) and the factory builds the
// SubtrajectorySearch, so a declarative service::QuerySpec round-trips from
// CLI flags without any per-algorithm wiring at the call site.
#ifndef SIMSUB_ALGO_REGISTRY_H_
#define SIMSUB_ALGO_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algo/search.h"
#include "rl/trainer.h"
#include "similarity/measure.h"
#include "util/status.h"

namespace simsub::algo {

/// Tuning knobs for algorithms that take parameters. Defaults follow the
/// paper's experiment settings.
struct SearchOptions {
  int sizes_xi = 5;        ///< SizeS size margin (paper Section 6.1).
  int posd_delay = 5;      ///< POS-D split delay D.
  int random_s_samples = 100;  ///< Random-S sampled subtrajectories.
  uint64_t random_s_seed = 42;
  /// Sakoe-Chiba band (fraction of the query length) for "spring"/"ucr".
  double band_fraction = 1.0;
  /// Trained policy for "rls"/"rls-skip": either an in-memory policy (takes
  /// precedence) or a path readable by rl::LoadPolicyFromFile. One of the
  /// two is required for the RLS names; both empty is InvalidArgument.
  const rl::TrainedPolicy* rls_policy = nullptr;
  std::string rls_policy_path;
};

/// Builds a search by name: "exacts" (alias "exact"), "sizes", "pss",
/// "pos", "pos-d", "simtra", "random-s", "spring", "ucr", "rls",
/// "rls-skip". `measure` must outlive the returned search. Returns
/// InvalidArgument for unknown names and invalid parameters (null measure,
/// negative margins, missing RLS policy, a policy whose skip count
/// contradicts the rls/rls-skip name, or a non-DTW measure for the
/// DTW-hardcoded "spring"/"ucr").
///
/// Thread safety: every returned search is immutable and safe to share
/// across threads ("random-s" replays its seed's stream on every call).
[[nodiscard]] util::Result<std::unique_ptr<SubtrajectorySearch>> MakeSearch(
    const std::string& name, const similarity::SimilarityMeasure* measure,
    const SearchOptions& options = {});

/// Names accepted by MakeSearch, for --help text (aliases excluded).
std::vector<std::string> BuiltinSearchNames();

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_REGISTRY_H_
