// RLS and RLS-Skip (paper Sections 5.3-5.4): splitting-based search driven
// by a DQN policy learned over the trajectory-splitting MDP. The same class
// covers RLS (k = 0), RLS-Skip (k > 0) and RLS-Skip+ (suffix dropped),
// depending on the EnvOptions baked into the trained policy.
#ifndef SIMSUB_ALGO_RLS_H_
#define SIMSUB_ALGO_RLS_H_

#include <memory>
#include <string>

#include "algo/search.h"
#include "rl/env.h"
#include "rl/trainer.h"
#include "similarity/measure.h"

namespace simsub::algo {

/// Reinforcement-learning based SimSub solver.
class RlsSearch : public SubtrajectorySearch {
 public:
  /// `policy` comes from rl::RlsTrainer::Train. The optional `name`
  /// overrides the automatic "RLS"/"RLS-Skip"/"RLS-Skip+" label.
  RlsSearch(const similarity::SimilarityMeasure* measure,
            rl::TrainedPolicy policy, std::string name = "");

  std::string name() const override { return name_; }

  const rl::EnvOptions& env_options() const { return policy_.env_options; }

  // (see SubtrajectorySearch::Search)
 protected:
  SearchResult DoSearch(std::span<const geo::Point> data,
                        std::span<const geo::Point> query,
                        similarity::EvaluatorCache&,
                        std::optional<double>) const override;

 private:
  const similarity::SimilarityMeasure* measure_;
  rl::TrainedPolicy policy_;
  std::string name_;
};

}  // namespace simsub::algo

#endif  // SIMSUB_ALGO_RLS_H_
