// Deep-Q-Network agent with experience replay and a periodically synced
// target network (paper Section 5.2, Algorithm 3; Mnih et al. 2013/2015).
#ifndef SIMSUB_RL_DQN_H_
#define SIMSUB_RL_DQN_H_

#include <memory>
#include <vector>

#include "nn/adam.h"
#include "nn/mlp.h"
#include "rl/replay.h"
#include "util/random.h"

namespace simsub::rl {

/// Hyper-parameters; defaults mirror the paper's experimental setup
/// (Section 6.1): 20 ReLU hidden units, sigmoid heads, replay memory 2000,
/// Adam with lr 1e-3, gamma 0.95, epsilon-greedy floor 0.05 / decay 0.99.
struct DqnOptions {
  int hidden_units = 20;
  nn::Activation output_activation = nn::Activation::kSigmoid;
  double gamma = 0.95;
  double learning_rate = 1e-3;
  int batch_size = 32;
  int replay_capacity = 2000;
  double epsilon_start = 1.0;
  double epsilon_min = 0.05;
  double epsilon_decay = 0.99;  // multiplicative, per episode
  /// Gradient-norm clipping (0 disables). Tiny networks train fine without,
  /// but clipping guards against reward spikes on adversarial inputs.
  double clip_norm = 0.0;
  /// Double DQN (van Hasselt et al., 2016): bootstrap with
  /// Q̂(s', argmax_a Q(s', a)) instead of max_a Q̂(s', a), reducing the
  /// max-operator overestimation bias. Off by default (the paper uses
  /// vanilla DQN); exposed for the ablation bench.
  bool double_dqn = false;
};

/// Value-based agent: main network Q(s, a; θ), target network Q̂(s, a; θ⁻).
class DqnAgent {
 public:
  DqnAgent(int state_dim, int action_count, DqnOptions options,
           uint64_t seed);

  int state_dim() const { return state_dim_; }
  int action_count() const { return action_count_; }
  double epsilon() const { return epsilon_; }
  const DqnOptions& options() const { return options_; }

  /// epsilon-greedy action selection against the main network.
  int SelectAction(const std::vector<double>& state);

  /// Pure exploitation (used at evaluation time).
  int GreedyAction(const std::vector<double>& state) const;

  /// Copies a transition into the replay memory.
  void Remember(const Experience& e);

  /// One minibatch gradient step on loss (y - Q(s, a; θ))² with
  /// y = r (terminal) or r + γ max_a' Q̂(s', a'; θ⁻). No-op until the
  /// replay memory holds at least one batch. The sampled minibatch is
  /// gathered feature-major and each network runs once over all of it: one
  /// target forward pass that activates every head (the bootstrap max reads
  /// them all, as double DQN's online argmax reads every online head), one
  /// loss forward pass that activates only each sample's taken action, and
  /// one backward pass that sums the samples in order and stops at the
  /// first layer's parameters. The weights match one pass per sample bit
  /// for bit. Every buffer is agent-owned, so after the first call a step
  /// allocates nothing.
  void Learn();

  /// θ⁻ <- θ (Algorithm 3 line 25; called at the end of each episode).
  void SyncTarget();

  /// epsilon <- max(eps_min, epsilon * decay); call once per episode.
  void DecayEpsilon();

  /// Snapshot of the current greedy policy for use by RlsSearch.
  std::shared_ptr<const nn::Mlp> ExportPolicy() const;

  size_t replay_size() const { return replay_.size(); }
  long long learn_steps() const { return optimizer_.step_count(); }

 private:
  int state_dim_;
  int action_count_;
  DqnOptions options_;
  util::Rng rng_;
  nn::Mlp main_;
  nn::Mlp target_;
  nn::Adam optimizer_;
  ReplayMemory replay_;
  double epsilon_;
  // Reused learning-step buffers; the agent is single-threaded by contract.
  mutable nn::Mlp::Cache main_cache_;
  mutable nn::Mlp::Cache target_cache_;
  std::vector<const Experience*> batch_;
  std::vector<double> states_;       // state_dim x batch, feature-major
  std::vector<double> next_states_;  // state_dim x batch, feature-major
  std::vector<int> actions_;
  std::vector<double> targets_;
  std::vector<double> dy_;  // action_count x batch
};

}  // namespace simsub::rl

#endif  // SIMSUB_RL_DQN_H_
