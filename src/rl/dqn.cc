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

// The first maximum among the `count` values v[0], v[stride], ... (the
// element std::max_element picks).
int ArgMax(const double* v, int count, size_t stride) {
  int best = 0;
  for (int o = 1; o < count; ++o) {
    const size_t k = static_cast<size_t>(o) * stride;
    if (v[static_cast<size_t>(best) * stride] < v[k]) best = o;
  }
  return best;
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
  SIMSUB_CHECK_EQ(state.size(), static_cast<size_t>(state_dim_));
  return ArgMax(main_.Forward(state, &main_cache_).data(), action_count_, 1);
}

void DqnAgent::Remember(const Experience& e) { replay_.Add(e); }

void DqnAgent::Learn() {
  const size_t batch = static_cast<size_t>(options_.batch_size);
  if (replay_.size() < batch) return;
  replay_.Sample(batch, rng_, &batch_);
  // Feature-major minibatch: column s holds sample s.
  const size_t dim = static_cast<size_t>(state_dim_);
  states_.resize(dim * batch);
  next_states_.resize(dim * batch);
  actions_.resize(batch);
  targets_.resize(batch);
  for (size_t s = 0; s < batch; ++s) {
    const Experience& e = *batch_[s];
    SIMSUB_CHECK_EQ(e.state.size(), dim);
    // A terminal transition's next state is never read: its column is 0.
    SIMSUB_CHECK(e.terminal || e.next_state.size() == dim);
    for (size_t i = 0; i < dim; ++i) {
      states_[i * batch + s] = e.state[i];
      next_states_[i * batch + s] = e.terminal ? 0.0 : e.next_state[i];
    }
    actions_[s] = e.action;
  }
  // y = r, plus the discounted bootstrap for a non-terminal sample. The
  // target network activates every head (the bootstrap max reads them all,
  // as double DQN's online argmax reads every online head); a terminal
  // sample's outputs are computed with the batch and not read.
  const std::vector<double>& next_q = target_.Forward(next_states_, &target_cache_);
  const std::vector<double>& argmax_of =
      options_.double_dqn ? main_.Forward(next_states_, &main_cache_) : next_q;
  for (size_t s = 0; s < batch; ++s) {
    const Experience& e = *batch_[s];
    double y = e.reward;
    if (!e.terminal) {
      const int best = ArgMax(argmax_of.data() + s, action_count_, batch);
      y += options_.gamma * next_q[static_cast<size_t>(best) * batch + s];
    }
    targets_[s] = y;
  }
  // Squared error on the taken action only, so only its unit is activated:
  // dL/dq_a = 2 (q_a - y) / B.
  const std::vector<double>& q = main_.Forward(states_, &main_cache_, actions_);
  const double inv_batch = 1.0 / static_cast<double>(batch);
  dy_.assign(static_cast<size_t>(action_count_) * batch, 0.0);
  for (size_t s = 0; s < batch; ++s) {
    const size_t k = static_cast<size_t>(actions_[s]) * batch + s;
    dy_[k] = 2.0 * (q[k] - targets_[s]) * inv_batch;
  }
  main_.params().ZeroGrad();
  main_.Backward(states_, &main_cache_, dy_);
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
