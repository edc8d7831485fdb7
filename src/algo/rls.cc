#include "algo/rls.h"

#include <algorithm>

#include "util/logging.h"

namespace simsub::algo {

namespace {

std::string AutoName(const rl::EnvOptions& options) {
  if (options.skip_count == 0) return "RLS";
  return options.use_suffix ? "RLS-Skip" : "RLS-Skip+";
}

}  // namespace

RlsSearch::RlsSearch(const similarity::SimilarityMeasure* measure,
                     rl::TrainedPolicy policy, std::string name)
    : measure_(measure), policy_(std::move(policy)), name_(std::move(name)) {
  SIMSUB_CHECK(measure != nullptr);
  SIMSUB_CHECK(policy_.net != nullptr);
  if (name_.empty()) name_ = AutoName(policy_.env_options);
}

SearchResult RlsSearch::DoSearch(std::span<const geo::Point> data,
                                 std::span<const geo::Point> query,
                                 similarity::EvaluatorCache*,
                                 std::optional<double>) const {
  SIMSUB_CHECK(!data.empty());
  SIMSUB_CHECK(!query.empty());
  rl::SplitEnv env(measure_, policy_.env_options);
  env.Reset(data, query);
  const nn::Mlp& net = *policy_.net;
  nn::Mlp::Cache cache;  // reused across all decisions of this search
  while (!env.done()) {
    const std::vector<double>& q = net.Forward(env.state(), &cache);
    int action =
        static_cast<int>(std::max_element(q.begin(), q.end()) - q.begin());
    env.Step(action);
  }
  SearchResult result;
  result.best = env.best_range();
  result.distance = env.best_distance();
  result.distance_exact = env.best_distance_exact();
  result.stats.candidates = env.points_scanned() *
                            (policy_.env_options.use_suffix ? 2 : 1);
  result.stats.splits = env.splits();
  result.stats.points_skipped = env.points_skipped();
  result.stats.start_calls = env.start_calls();
  result.stats.extend_calls = env.extend_calls();
  return result;
}

}  // namespace simsub::algo
