#include "rl/dqn.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>

#include "data/generator.h"
#include "rl/env.h"
#include "similarity/dtw.h"

// Counts operator new calls while a test turns counting on. Replacing the
// global operators is test-local: only this binary links them.
namespace {
std::atomic<bool> g_count_news{false};
std::atomic<long long> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_news.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace simsub::rl {
namespace {

DqnOptions SmallOptions() {
  DqnOptions o;
  o.hidden_units = 8;
  o.batch_size = 4;
  o.replay_capacity = 64;
  o.epsilon_start = 1.0;
  o.epsilon_min = 0.05;
  o.epsilon_decay = 0.5;
  return o;
}

TEST(DqnAgentTest, GreedyActionIsDeterministic) {
  DqnAgent agent(3, 2, SmallOptions(), 1);
  std::vector<double> s = {0.1, 0.5, 0.7};
  int a1 = agent.GreedyAction(s);
  int a2 = agent.GreedyAction(s);
  EXPECT_EQ(a1, a2);
  EXPECT_GE(a1, 0);
  EXPECT_LT(a1, 2);
}

TEST(DqnAgentTest, EpsilonDecaysToFloor) {
  DqnAgent agent(3, 2, SmallOptions(), 1);
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  for (int i = 0; i < 20; ++i) agent.DecayEpsilon();
  EXPECT_DOUBLE_EQ(agent.epsilon(), 0.05);
}

TEST(DqnAgentTest, LearnIsNoOpUntilBatchAvailable) {
  DqnAgent agent(3, 2, SmallOptions(), 1);
  agent.Learn();
  EXPECT_EQ(agent.learn_steps(), 0);
  Experience e;
  e.state = {0.0, 0.0, 0.0};
  e.action = 0;
  e.reward = 1.0;
  e.next_state = {0.0, 0.0, 0.1};
  e.terminal = false;
  for (int i = 0; i < 3; ++i) agent.Remember(e);
  agent.Learn();
  EXPECT_EQ(agent.learn_steps(), 0);
  agent.Remember(e);
  agent.Learn();
  EXPECT_EQ(agent.learn_steps(), 1);
}

TEST(DqnAgentTest, LearnsBanditPreference) {
  // Single-state bandit: action 1 always yields reward 1, action 0 yields 0.
  // After training, the greedy action must be 1.
  DqnOptions options = SmallOptions();
  options.learning_rate = 0.01;
  options.gamma = 0.0;  // pure bandit
  DqnAgent agent(2, 2, options, 7);
  std::vector<double> s = {0.5, 0.5};
  for (int i = 0; i < 300; ++i) {
    for (int a : {0, 1}) {
      Experience e;
      e.state = s;
      e.action = a;
      e.reward = a == 1 ? 1.0 : 0.0;
      e.next_state = s;
      e.terminal = true;
      agent.Remember(std::move(e));
    }
    agent.Learn();
  }
  EXPECT_EQ(agent.GreedyAction(s), 1);
}

TEST(DqnAgentTest, TargetSyncChangesBootstrapTargets) {
  DqnAgent agent(2, 2, SmallOptions(), 3);
  // Exported policies before/after some learning differ; after SyncTarget
  // the two nets agree (indirect check via ExportPolicy determinism).
  auto p1 = agent.ExportPolicy();
  Experience e;
  e.state = {0.3, 0.3};
  e.action = 0;
  e.reward = 0.5;
  e.next_state = {0.3, 0.4};
  e.terminal = false;
  for (int i = 0; i < 16; ++i) agent.Remember(e);
  for (int i = 0; i < 50; ++i) agent.Learn();
  agent.SyncTarget();
  auto p2 = agent.ExportPolicy();
  std::vector<double> s = {0.3, 0.3};
  auto q1 = p1->Forward(s);
  auto q2 = p2->Forward(s);
  bool changed = false;
  for (size_t i = 0; i < q1.size(); ++i) {
    if (q1[i] != q2[i]) changed = true;
  }
  EXPECT_TRUE(changed) << "learning must move the policy";
}

TEST(DqnAgentTest, SelectActionExploresUnderFullEpsilon) {
  DqnOptions options = SmallOptions();
  options.epsilon_start = 1.0;
  DqnAgent agent(2, 4, options, 5);
  std::vector<double> s = {0.1, 0.9};
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) seen.insert(agent.SelectAction(s));
  EXPECT_EQ(seen.size(), 4u) << "epsilon=1 must explore all actions";
}

TEST(DqnAgentTest, DoubleDqnAlsoLearnsBanditPreference) {
  DqnOptions options = SmallOptions();
  options.learning_rate = 0.01;
  options.gamma = 0.0;
  options.double_dqn = true;
  DqnAgent agent(2, 2, options, 7);
  std::vector<double> s = {0.5, 0.5};
  for (int i = 0; i < 300; ++i) {
    for (int a : {0, 1}) {
      Experience e;
      e.state = s;
      e.action = a;
      e.reward = a == 1 ? 1.0 : 0.0;
      e.next_state = s;
      e.terminal = true;
      agent.Remember(std::move(e));
    }
    agent.Learn();
  }
  EXPECT_EQ(agent.GreedyAction(s), 1);
}

TEST(DqnAgentTest, DoubleDqnBootstrapsThroughOnlineArgmax) {
  // Non-terminal transitions exercise the double-DQN target path; we only
  // require learning to remain stable and produce a usable policy.
  DqnOptions options = SmallOptions();
  options.double_dqn = true;
  options.gamma = 0.9;
  DqnAgent agent(2, 3, options, 11);
  util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    Experience e;
    e.state = {rng.Uniform(), rng.Uniform()};
    e.action = static_cast<int>(rng.UniformInt(0, 2));
    e.reward = rng.Uniform();
    e.next_state = {rng.Uniform(), rng.Uniform()};
    e.terminal = rng.Bernoulli(0.1);
    agent.Remember(std::move(e));
    agent.Learn();
  }
  std::vector<double> s = {0.4, 0.6};
  int a = agent.GreedyAction(s);
  EXPECT_GE(a, 0);
  EXPECT_LT(a, 3);
}

TEST(DqnAgentTest, LearnAllocatesNothingAfterWarmUp) {
  for (bool double_dqn : {false, true}) {
    DqnOptions options;  // the paper's sizes: 20 hidden units, batch 32
    options.double_dqn = double_dqn;
    DqnAgent agent(3, 5, options, 13);
    util::Rng rng(17);
    for (int i = 0; i < 200; ++i) {
      Experience e;
      e.state = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      e.action = static_cast<int>(rng.UniformInt(0, 4));
      e.reward = rng.Uniform();
      e.next_state = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
      e.terminal = rng.Bernoulli(0.2);
      agent.Remember(std::move(e));
    }
    agent.Learn();  // warm-up: sizes the agent's buffers
    g_news = 0;
    g_count_news = true;
    for (int i = 0; i < 50; ++i) agent.Learn();
    g_count_news = false;
    EXPECT_EQ(g_news.load(), 0) << "double_dqn=" << double_dqn;
    EXPECT_EQ(agent.learn_steps(), 51);
  }
}

TEST(DqnAgentTest, TrainingStepAllocatesNothingOnceTheRingIsFull) {
  // SelectAction + Step + Remember + Learn, as RlsTrainer::Train runs them,
  // within one episode once the replay ring is full.
  similarity::DtwMeasure dtw;
  data::Dataset dataset =
      data::GenerateDataset(data::DatasetKind::kPorto, 4, 5);
  const geo::Trajectory* longest = &dataset.trajectories[0];
  for (const geo::Trajectory& t : dataset.trajectories) {
    if (t.size() > longest->size()) longest = &t;
  }
  SplitEnv env(&dtw, EnvOptions{});
  DqnOptions options;
  options.replay_capacity = 64;
  DqnAgent agent(env.state_dim(), env.action_count(), options, 3);
  Experience step;
  long long counted_steps = 0;
  long long news = 0;
  for (int episode = 0; episode < 50 && counted_steps < 100; ++episode) {
    env.Reset(longest->View(), dataset.trajectories[1].View());
    while (!env.done()) {
      const bool count = agent.replay_size() == 64 && counted_steps < 100;
      g_news = 0;
      g_count_news = count;
      step.state = env.state();
      step.action = agent.SelectAction(step.state);
      step.reward = env.Step(step.action);
      step.next_state = env.state();
      step.terminal = env.done();
      agent.Remember(step);
      agent.Learn();
      g_count_news = false;
      if (count) {
        news += g_news.load();
        ++counted_steps;
      }
    }
  }
  ASSERT_EQ(counted_steps, 100);
  EXPECT_EQ(news, 0);
}

TEST(DqnAgentTest, ExportPolicySnapshotIsStable) {
  DqnAgent agent(2, 2, SmallOptions(), 9);
  auto snapshot = agent.ExportPolicy();
  std::vector<double> s = {0.2, 0.8};
  auto before = snapshot->Forward(s);
  // Further learning must not mutate the exported snapshot.
  Experience e;
  e.state = s;
  e.action = 1;
  e.reward = 1.0;
  e.next_state = s;
  e.terminal = true;
  for (int i = 0; i < 8; ++i) agent.Remember(e);
  for (int i = 0; i < 20; ++i) agent.Learn();
  auto after = snapshot->Forward(s);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(before[i], after[i]);
  }
}

}  // namespace
}  // namespace simsub::rl
