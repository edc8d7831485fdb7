#include "rl/dqn.h"

#include <algorithm>

#include "util/logging.h"

namespace simsub::rl {

namespace {

nn::Mlp BuildNet(int state_dim, int action_count, const DqnOptions& options,
                 util::Rng& rng) {
  std::vector<nn::Mlp::LayerSpec> specs = {
      {options.hidden_units, nn::Activation::kRelu},
      {action_count, options.output_activation},
  };
  return nn::Mlp(state_dim, specs, rng);
}

int ArgMax(const std::vector<double>& v) {
  return static_cast<int>(std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace

DqnAgent::DqnAgent(int state_dim, int action_count, DqnOptions options,
                   uint64_t seed)
    : state_dim_(state_dim),
      action_count_(action_count),
      options_(options),
      rng_(seed),
      main_(BuildNet(state_dim, action_count, options, rng_)),
      target_(main_.Clone()),
      optimizer_(&main_.params(),
                 nn::Adam::Options{.learning_rate = options.learning_rate,
                                   .beta1 = 0.9,
                                   .beta2 = 0.999,
                                   .epsilon = 1e-8,
                                   .clip_norm = options.clip_norm}),
      replay_(static_cast<size_t>(options.replay_capacity)),
      epsilon_(options.epsilon_start) {
  SIMSUB_CHECK_GT(state_dim, 0);
  SIMSUB_CHECK_GT(action_count, 1);
}

int DqnAgent::SelectAction(const std::vector<double>& state) {
  if (rng_.Bernoulli(epsilon_)) {
    return static_cast<int>(rng_.UniformInt(0, action_count_ - 1));
  }
  return GreedyAction(state);
}

int DqnAgent::GreedyAction(const std::vector<double>& state) const {
  return ArgMax(main_.ForwardCached(state, &main_cache_));
}

void DqnAgent::Remember(Experience e) { replay_.Add(std::move(e)); }

void DqnAgent::Learn() {
  const size_t batch_size = static_cast<size_t>(options_.batch_size);
  if (replay_.size() < batch_size) return;
  replay_.Sample(batch_size, rng_, &batch_);
  main_.params().ZeroGrad();
  const double inv_batch = 1.0 / static_cast<double>(batch_size);
  for (const Experience* e : batch_) {
    double y = e->reward;
    if (!e->terminal) {
      const std::vector<double>& next_q =
          target_.ForwardCached(e->next_state, &target_cache_);
      if (options_.double_dqn) {
        const std::vector<double>& online_q =
            main_.ForwardCached(e->next_state, &main_cache_);
        y += options_.gamma * next_q[static_cast<size_t>(ArgMax(online_q))];
      } else {
        y += options_.gamma * *std::max_element(next_q.begin(), next_q.end());
      }
    }
    // Squared error on the taken action only, so only its unit is activated:
    // dL/dq_a = 2 (q_a - y) / B.
    const size_t a = static_cast<size_t>(e->action);
    const double q_a = main_.ForwardCached(e->state, &main_cache_, e->action)[a];
    dy_scratch_.assign(static_cast<size_t>(action_count_), 0.0);
    dy_scratch_[a] = 2.0 * (q_a - y) * inv_batch;
    main_.Backward(e->state, &main_cache_, dy_scratch_);
  }
  optimizer_.Step();
}

void DqnAgent::SyncTarget() { target_.CopyFrom(main_); }

void DqnAgent::DecayEpsilon() {
  epsilon_ = std::max(options_.epsilon_min, epsilon_ * options_.epsilon_decay);
}

std::shared_ptr<const nn::Mlp> DqnAgent::ExportPolicy() const {
  return std::make_shared<const nn::Mlp>(main_.Clone());
}

}  // namespace simsub::rl
