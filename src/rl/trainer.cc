#include "rl/trainer.h"

#include <algorithm>

#include "util/logging.h"
#include "util/stopwatch.h"

namespace simsub::rl {

RlsTrainer::RlsTrainer(const similarity::SimilarityMeasure* measure,
                       RlsTrainOptions options)
    : measure_(measure), options_(options) {
  SIMSUB_CHECK(measure != nullptr);
  SIMSUB_CHECK_GT(options.episodes, 0);
}

TrainedPolicy RlsTrainer::Train(std::span<const geo::Trajectory> data_pool,
                                std::span<const geo::Trajectory> query_pool) {
  SIMSUB_CHECK(!data_pool.empty());
  SIMSUB_CHECK(!query_pool.empty());
  util::Stopwatch timer;
  util::Rng rng(options_.seed);
  SplitEnv env(measure_, options_.env);
  DqnAgent agent(env.state_dim(), env.action_count(), options_.dqn,
                 rng.engine()());
  report_ = TrainReport{};
  report_.episode_returns.reserve(static_cast<size_t>(options_.episodes));
  Experience step;  // reused: its vectors keep their capacity across steps

  for (int episode = 0; episode < options_.episodes; ++episode) {
    const geo::Trajectory& data =
        data_pool[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(data_pool.size()) - 1))];
    const geo::Trajectory& query =
        query_pool[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(query_pool.size()) - 1))];
    if (data.empty() || query.empty()) continue;
    env.Reset(data.View(), query.View());
    double episode_return = 0.0;
    while (!env.done()) {
      step.state = env.state();
      step.action = agent.SelectAction(step.state);
      step.reward = env.Step(step.action);
      episode_return += step.reward;
      step.next_state = env.state();
      step.terminal = env.done();
      agent.Remember(step);
      agent.Learn();
    }
    agent.DecayEpsilon();
    if ((episode + 1) % options_.target_sync_every == 0) {
      agent.SyncTarget();
    }
    report_.episode_returns.push_back(episode_return);
    if (options_.log_every > 0 && (episode + 1) % options_.log_every == 0) {
      double mean = 0.0;
      int window = std::min(options_.log_every,
                            static_cast<int>(report_.episode_returns.size()));
      for (int i = 0; i < window; ++i) {
        mean += report_.episode_returns[report_.episode_returns.size() -
                                        1 - static_cast<size_t>(i)];
      }
      mean /= window;
      SIMSUB_LOG(Info) << "episode " << (episode + 1) << "/"
                       << options_.episodes << " mean return (last " << window
                       << "): " << mean << " eps=" << agent.epsilon();
    }
  }
  report_.train_seconds = timer.ElapsedSeconds();
  report_.gradient_steps = agent.learn_steps();

  TrainedPolicy policy;
  policy.net = agent.ExportPolicy();
  policy.env_options = options_.env;
  return policy;
}

}  // namespace simsub::rl
