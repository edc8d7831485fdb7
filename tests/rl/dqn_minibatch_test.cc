// DqnAgent::Learn runs each network once over the whole minibatch; these
// tests hold it to the per-sample learning step, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/mlp.h"
#include "rl/dqn.h"

namespace simsub::rl {
namespace {

// The learning step as one forward/backward pass per sample, written out
// with the network's weights: every sum in index order, the loss's forward
// pass activating only the taken action, and a unit whose
// dL/d(pre-activation) is zero skipped.
struct Reference {
  // Per-layer outputs of one sample. With `only` >= 0 the output layer
  // activates that unit alone and keeps the others' pre-activation values.
  static std::vector<std::vector<double>> Forward(const nn::Mlp& net,
                                                  const std::vector<double>& x,
                                                  int only) {
    std::vector<std::vector<double>> post;
    const std::vector<double>* cur = &x;
    for (size_t l = 0; l < net.layers().size(); ++l) {
      const nn::DenseLayer& layer = net.layers()[l];
      std::vector<double> out(static_cast<size_t>(layer.out));
      for (size_t o = 0; o < out.size(); ++o) {
        double acc = layer.b[o];
        for (size_t i = 0; i < static_cast<size_t>(layer.in); ++i) {
          acc += layer.w[o * static_cast<size_t>(layer.in) + i] * (*cur)[i];
        }
        out[o] = acc;
      }
      const bool last = l + 1 == net.layers().size();
      for (size_t o = 0; o < out.size(); ++o) {
        if (!last || only < 0 || static_cast<int>(o) == only) {
          out[o] = Activate(layer.act, out[o]);
        }
      }
      post.push_back(std::move(out));
      cur = &post.back();
    }
    return post;
  }

  static double Activate(nn::Activation act, double pre) {
    std::vector<double> v = {pre};
    nn::ApplyActivation(act, &v);
    return v[0];
  }

  // Accumulates one sample's gradients into `gw`/`gb` (one entry per layer).
  static void Backward(const nn::Mlp& net, const std::vector<double>& x,
                       const std::vector<std::vector<double>>& post, int only,
                       std::vector<double> grad,
                       std::vector<std::vector<double>>* gw,
                       std::vector<std::vector<double>>* gb) {
    for (size_t l = net.layers().size(); l-- > 0;) {
      const nn::DenseLayer& layer = net.layers()[l];
      const size_t in = static_cast<size_t>(layer.in);
      const std::vector<double>& input = l == 0 ? x : post[l - 1];
      std::vector<double> dinput(in, 0.0);
      const bool last = l + 1 == net.layers().size();
      for (size_t o = 0; o < static_cast<size_t>(layer.out); ++o) {
        double out = post[l][o];
        if (last && static_cast<int>(o) != only) {
          if (grad[o] == 0.0 && !std::isnan(out)) continue;
          out = Activate(layer.act, out);
        }
        const double d = grad[o] * nn::ActivationGradFromOutput(layer.act, out);
        if (d == 0.0) continue;
        for (size_t i = 0; i < in; ++i) {
          (*gw)[l][o * in + i] += d * input[i];
          dinput[i] += d * layer.w[o * in + i];
        }
        (*gb)[l][o] += d;
      }
      grad = std::move(dinput);
    }
  }

  // The gradients of one DQN step on `batch` (DqnAgent::Learn's loss).
  static void Step(const nn::Mlp& main, const nn::Mlp& target,
                   const DqnOptions& options,
                   const std::vector<const Experience*>& batch,
                   std::vector<std::vector<double>>* gw,
                   std::vector<std::vector<double>>* gb) {
    for (const nn::DenseLayer& layer : main.layers()) {
      gw->emplace_back(layer.w.size(), 0.0);
      gb->emplace_back(layer.b.size(), 0.0);
    }
    const double inv_batch = 1.0 / static_cast<double>(batch.size());
    for (const Experience* e : batch) {
      double y = e->reward;
      if (!e->terminal) {
        const std::vector<double> next_q = Forward(target, e->next_state, -1).back();
        const std::vector<double> pick =
            options.double_dqn ? Forward(main, e->next_state, -1).back() : next_q;
        const size_t best = static_cast<size_t>(
            std::max_element(pick.begin(), pick.end()) - pick.begin());
        y += options.gamma * next_q[best];
      }
      const auto post = Forward(main, e->state, e->action);
      const size_t a = static_cast<size_t>(e->action);
      std::vector<double> dy(post.back().size(), 0.0);
      dy[a] = 2.0 * (post.back()[a] - y) * inv_batch;
      Backward(main, e->state, post, e->action, dy, gw, gb);
    }
  }
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Which non-finite state components a replay memory holds.
enum class Hostile { kNone, kNanState, kInfState };

// 40 transitions, every fifth terminal. kNanState puts a NaN component in
// every fourth state and next state: its hidden units are all dead
// (ReLU(NaN) = 0), so each of its first-layer rows has a zero d that must be
// skipped, not multiplied into NaN. kInfState puts +inf in one state, whose
// hidden units reach the heads as inf - inf = NaN pre-activations, read or
// not.
std::vector<Experience> Transitions(int heads, Hostile hostile) {
  util::Rng rng(31);
  std::vector<Experience> out;
  for (int i = 0; i < 40; ++i) {
    Experience e;
    e.state = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    e.action = static_cast<int>(rng.UniformInt(0, heads - 1));
    e.reward = rng.Uniform(-0.5, 0.5);
    e.next_state = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    e.terminal = i % 5 == 0;
    if (hostile == Hostile::kNanState && i % 4 == 1) {
      e.state[1] = std::nan("");
      e.next_state[0] = std::nan("");
    }
    if (hostile == Hostile::kInfState && i % 8 == 3) e.state[2] = HUGE_VAL;
    out.push_back(e);
  }
  return out;
}

bool Finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

TEST(DqnAgentTest, MinibatchStepMatchesPerSampleReferenceBitForBit) {
  for (int heads : {2, 5}) {
    for (bool double_dqn : {false, true}) {
      for (Hostile hostile : {Hostile::kNone, Hostile::kNanState, Hostile::kInfState}) {
        DqnOptions options;  // the paper's sizes: 20 hidden units, batch 32
        options.double_dqn = double_dqn;
        const uint64_t seed = 41;
        DqnAgent agent(3, heads, options, seed);
        // The agent's generator builds the network, then draws the batch.
        util::Rng rng(seed);
        nn::Mlp main(3, {{options.hidden_units, nn::Activation::kRelu},
                         {heads, options.output_activation}},
                     rng);
        ASSERT_TRUE(SameBits(main.layers()[1].w,
                             agent.ExportPolicy()->layers()[1].w));
        const std::vector<Experience> memory = Transitions(heads, hostile);
        for (const Experience& e : memory) agent.Remember(e);
        std::vector<const Experience*> batch;
        bool terminal = false;
        bool finite = true;
        for (int s = 0; s < options.batch_size; ++s) {
          batch.push_back(&memory[static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(memory.size()) - 1))]);
          terminal |= batch.back()->terminal;
          finite &= Finite(batch.back()->state);
        }
        ASSERT_TRUE(terminal);
        ASSERT_EQ(finite, hostile == Hostile::kNone);
        agent.Learn();
        ASSERT_EQ(agent.learn_steps(), 1);

        std::vector<std::vector<double>> gw, gb;
        Reference::Step(main, main, options, batch, &gw, &gb);
        const auto learned = agent.ExportPolicy();
        const int kind = static_cast<int>(hostile);
        for (size_t l = 0; l < gw.size(); ++l) {
          EXPECT_TRUE(SameBits(learned->layers()[l].gw, gw[l]))
              << "heads=" << heads << " double_dqn=" << double_dqn
              << " hostile=" << kind << " layer " << l << " weights";
          EXPECT_TRUE(SameBits(learned->layers()[l].gb, gb[l]))
              << "heads=" << heads << " double_dqn=" << double_dqn
              << " hostile=" << kind << " layer " << l << " biases";
        }
        // A NaN state skips its dead rows, so the gradients stay finite.
        if (hostile == Hostile::kNanState) {
          EXPECT_TRUE(Finite(gw[0]));
        }
      }
    }
  }
}

TEST(DqnAgentTest, TerminalTransitionsNeedNoNextState) {
  // The target of a terminal transition is its reward alone, so its next
  // state is never read and may be left empty.
  DqnOptions options;
  options.batch_size = 4;
  const uint64_t seed = 47;
  DqnAgent agent(3, 2, options, seed);
  util::Rng rng(seed);
  nn::Mlp main(3, {{options.hidden_units, nn::Activation::kRelu},
                   {2, options.output_activation}},
               rng);
  std::vector<Experience> memory = Transitions(2, Hostile::kNone);
  memory.resize(8);
  for (Experience& e : memory) {
    e.terminal = true;
    e.next_state.clear();
    agent.Remember(e);
  }
  std::vector<const Experience*> batch;
  for (int s = 0; s < options.batch_size; ++s) {
    batch.push_back(&memory[static_cast<size_t>(rng.UniformInt(0, 7))]);
  }
  agent.Learn();
  ASSERT_EQ(agent.learn_steps(), 1);
  std::vector<std::vector<double>> gw, gb;
  Reference::Step(main, main, options, batch, &gw, &gb);
  const auto learned = agent.ExportPolicy();
  for (size_t l = 0; l < gw.size(); ++l) {
    EXPECT_TRUE(SameBits(learned->layers()[l].gw, gw[l])) << "layer " << l;
    EXPECT_TRUE(SameBits(learned->layers()[l].gb, gb[l])) << "layer " << l;
  }
}

TEST(DqnAgentTest, MinibatchBackwardMatchesReferenceWithNanBiasOnUnreadUnit) {
  // An unread output unit whose pre-activation is NaN poisons its gradient
  // row in the per-sample pass; the minibatch pass must poison it the same.
  for (int heads : {2, 5}) {
    util::Rng rng(43);
    nn::Mlp net(3, {{20, nn::Activation::kRelu}, {heads, nn::Activation::kSigmoid}},
                rng);
    // Views are w0, b0, w1, b1: poison the last output unit's bias.
    (*net.params().views()[3].value)[static_cast<size_t>(heads - 1)] =
        std::nan("");
    const size_t b = 32;
    const std::vector<Experience> memory = Transitions(heads, Hostile::kNone);
    std::vector<double> x(3 * b), dy(static_cast<size_t>(heads) * b, 0.0);
    std::vector<int> read(b);
    std::vector<const Experience*> batch;
    for (size_t s = 0; s < b; ++s) {
      const Experience& e = memory[s];
      batch.push_back(&e);
      for (size_t i = 0; i < 3; ++i) x[i * b + s] = e.state[i];
      read[s] = e.action % (heads - 1);  // never the poisoned unit
    }
    nn::Mlp::Cache cache;
    const std::vector<double>& q = net.Forward(x, &cache, read);
    for (size_t s = 0; s < b; ++s) {
      const size_t k = static_cast<size_t>(read[s]) * b + s;
      dy[k] = 2.0 * (q[k] - batch[s]->reward) / 32.0;
    }
    net.params().ZeroGrad();
    net.Backward(x, &cache, dy);

    std::vector<std::vector<double>> gw, gb;
    for (const nn::DenseLayer& layer : net.layers()) {
      gw.emplace_back(layer.w.size(), 0.0);
      gb.emplace_back(layer.b.size(), 0.0);
    }
    for (size_t s = 0; s < b; ++s) {
      const auto post = Reference::Forward(net, batch[s]->state, read[s]);
      std::vector<double> dys(static_cast<size_t>(heads), 0.0);
      dys[static_cast<size_t>(read[s])] =
          dy[static_cast<size_t>(read[s]) * b + s];
      Reference::Backward(net, batch[s]->state, post, read[s], dys, &gw, &gb);
    }
    for (size_t l = 0; l < gw.size(); ++l) {
      EXPECT_TRUE(SameBits(net.layers()[l].gw, gw[l])) << "layer " << l;
      EXPECT_TRUE(SameBits(net.layers()[l].gb, gb[l])) << "layer " << l;
    }
    EXPECT_TRUE(std::isnan(net.layers()[1].gb[static_cast<size_t>(heads - 1)]));
  }
}

}  // namespace
}  // namespace simsub::rl
