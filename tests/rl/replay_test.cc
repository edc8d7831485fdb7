#include "rl/replay.h"

#include <gtest/gtest.h>

#include <set>

namespace simsub::rl {
namespace {

Experience Make(int a, double r) {
  Experience e;
  e.state = {0.1, 0.2, 0.3};
  e.action = a;
  e.reward = r;
  e.next_state = {0.2, 0.3, 0.4};
  e.terminal = false;
  return e;
}

TEST(ReplayTest, SizeGrowsToCapacity) {
  ReplayMemory mem(3);
  EXPECT_EQ(mem.size(), 0u);
  mem.Add(Make(0, 1));
  mem.Add(Make(1, 2));
  EXPECT_EQ(mem.size(), 2u);
  mem.Add(Make(0, 3));
  mem.Add(Make(1, 4));  // evicts the oldest
  EXPECT_EQ(mem.size(), 3u);
  EXPECT_EQ(mem.capacity(), 3u);
}

TEST(ReplayTest, RingOverwritesOldest) {
  ReplayMemory mem(2);
  mem.Add(Make(0, 1.0));
  mem.Add(Make(0, 2.0));
  mem.Add(Make(0, 3.0));  // overwrites reward 1.0
  util::Rng rng(1);
  bool saw_1 = false;
  std::vector<const Experience*> batch;
  for (int i = 0; i < 200; ++i) {
    mem.Sample(2, rng, &batch);
    for (const Experience* e : batch) {
      if (e->reward == 1.0) saw_1 = true;
    }
  }
  EXPECT_FALSE(saw_1);
}

TEST(ReplayTest, SampleReturnsRequestedCount) {
  ReplayMemory mem(10);
  for (int i = 0; i < 5; ++i) mem.Add(Make(i % 2, i));
  util::Rng rng(2);
  std::vector<const Experience*> batch;
  mem.Sample(32, rng, &batch);
  EXPECT_EQ(batch.size(), 32u);
  for (const Experience* e : batch) {
    ASSERT_NE(e, nullptr);
    EXPECT_GE(e->reward, 0.0);
    EXPECT_LE(e->reward, 4.0);
  }
}

TEST(ReplayTest, SampleCoversBuffer) {
  ReplayMemory mem(4);
  for (int i = 0; i < 4; ++i) mem.Add(Make(0, i));
  util::Rng rng(3);
  std::set<double> seen;
  std::vector<const Experience*> batch;
  for (int trial = 0; trial < 100; ++trial) {
    mem.Sample(4, rng, &batch);
    for (const Experience* e : batch) seen.insert(e->reward);
  }
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace simsub::rl
