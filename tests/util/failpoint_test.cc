// Failpoint subsystem contract (util/failpoint.h): policy grammar, trigger
// semantics (once / nth / times / prob), counters and tracing, the env-var
// configuration path, and the abort action (as a death test).
#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>

#include "util/status.h"

namespace simsub::util {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FailpointsCompiledIn()) {
      GTEST_SKIP() << "built with SIMSUB_FAILPOINTS_ENABLED=OFF";
    }
    ClearFailpoints();
  }
  void TearDown() override {
    ClearFailpoints();
    SetFailpointTrace(false);
  }
};

TEST_F(FailpointTest, UnconfiguredSiteIsOk) {
  EXPECT_TRUE(FailpointFire("test.nowhere").ok());
}

TEST_F(FailpointTest, ErrorPolicyFiresEveryTime) {
  ASSERT_TRUE(SetFailpoint("test.a", "error").ok());
  for (int i = 0; i < 3; ++i) {
    Status st = FailpointFire("test.a");
    EXPECT_EQ(st.code(), StatusCode::kIOError);
    EXPECT_NE(st.message().find("test.a"), std::string::npos);
  }
  FailpointCounters c = GetFailpointCounters("test.a");
  EXPECT_EQ(c.hits, 3);
  EXPECT_EQ(c.fires, 3);
}

TEST_F(FailpointTest, OnceTriggerFiresOnlyOnFirstHit) {
  ASSERT_TRUE(SetFailpoint("test.once", "error@once").ok());
  EXPECT_FALSE(FailpointFire("test.once").ok());
  EXPECT_TRUE(FailpointFire("test.once").ok());
  EXPECT_TRUE(FailpointFire("test.once").ok());
  FailpointCounters c = GetFailpointCounters("test.once");
  EXPECT_EQ(c.hits, 3);
  EXPECT_EQ(c.fires, 1);
}

TEST_F(FailpointTest, NthTriggerFiresOnExactlyThatHit) {
  ASSERT_TRUE(SetFailpoint("test.nth", "error@nth:3").ok());
  EXPECT_TRUE(FailpointFire("test.nth").ok());
  EXPECT_TRUE(FailpointFire("test.nth").ok());
  EXPECT_FALSE(FailpointFire("test.nth").ok());
  EXPECT_TRUE(FailpointFire("test.nth").ok());
}

TEST_F(FailpointTest, ThrowPolicyThrowsFailpointError) {
  ASSERT_TRUE(SetFailpoint("test.throw", "throw@nth:2").ok());
  EXPECT_TRUE(FailpointFire("test.throw").ok());
  try {
    (void)FailpointFire("test.throw");
    ADD_FAILURE() << "the second hit did not throw";
  } catch (const FailpointError& e) {
    EXPECT_NE(std::string(e.what()).find("test.throw"), std::string::npos);
  }
  EXPECT_TRUE(FailpointFire("test.throw").ok());
  FailpointCounters c = GetFailpointCounters("test.throw");
  EXPECT_EQ(c.hits, 3);
  EXPECT_EQ(c.fires, 1);
}

TEST_F(FailpointTest, TimesTriggerFiresOnFirstNHits) {
  ASSERT_TRUE(SetFailpoint("test.times", "error@times:2").ok());
  EXPECT_FALSE(FailpointFire("test.times").ok());
  EXPECT_FALSE(FailpointFire("test.times").ok());
  EXPECT_TRUE(FailpointFire("test.times").ok());
}

TEST_F(FailpointTest, ProbTriggerIsSeededAndDeterministic) {
  // Same seed -> same fire pattern across reconfigurations.
  auto pattern = [&]() {
    EXPECT_TRUE(SetFailpoint("test.prob", "error@prob:0.5:12345").ok());
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits.push_back(FailpointFire("test.prob").ok() ? '0' : '1');
    }
    return bits;
  };
  std::string first = pattern();
  std::string second = pattern();
  EXPECT_EQ(first, second);
  // p=0.5 over 64 draws: both outcomes must appear.
  EXPECT_NE(first.find('0'), std::string::npos);
  EXPECT_NE(first.find('1'), std::string::npos);

  ASSERT_TRUE(SetFailpoint("test.prob", "error@prob:0").ok());
  for (int i = 0; i < 16; ++i) EXPECT_TRUE(FailpointFire("test.prob").ok());
  ASSERT_TRUE(SetFailpoint("test.prob", "error@prob:1").ok());
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(FailpointFire("test.prob").ok());
}

TEST_F(FailpointTest, DelayPolicySleepsAndReturnsOk) {
  ASSERT_TRUE(SetFailpoint("test.delay", "delay:30").ok());
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(FailpointFire("test.delay").ok());
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  EXPECT_GE(elapsed, 25);  // scheduler slop downward is the only tolerance
}

TEST_F(FailpointTest, OffRemovesTheSite) {
  ASSERT_TRUE(SetFailpoint("test.off", "error").ok());
  EXPECT_FALSE(FailpointFire("test.off").ok());
  ASSERT_TRUE(SetFailpoint("test.off", "off").ok());
  EXPECT_TRUE(FailpointFire("test.off").ok());
  EXPECT_EQ(GetFailpointCounters("test.off").hits, 0);
}

TEST_F(FailpointTest, ReconfiguringResetsCounters) {
  ASSERT_TRUE(SetFailpoint("test.reset", "error@once").ok());
  EXPECT_FALSE(FailpointFire("test.reset").ok());
  EXPECT_TRUE(FailpointFire("test.reset").ok());
  // Fresh policy, fresh counters: @once fires again.
  ASSERT_TRUE(SetFailpoint("test.reset", "error@once").ok());
  EXPECT_FALSE(FailpointFire("test.reset").ok());
}

TEST_F(FailpointTest, SpecConfiguresManySitesAndRejectsGarbage) {
  ASSERT_TRUE(
      ConfigureFailpointsFromSpec("test.s1=error@once;test.s2=delay:1").ok());
  EXPECT_FALSE(FailpointFire("test.s1").ok());
  EXPECT_TRUE(FailpointFire("test.s2").ok());
  EXPECT_EQ(GetFailpointCounters("test.s2").fires, 1);

  EXPECT_EQ(ConfigureFailpointsFromSpec("missing-equals").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ConfigureFailpointsFromSpec("x=bogus-action").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ConfigureFailpointsFromSpec("x=error@nth:0").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ConfigureFailpointsFromSpec("x=error@prob:2.0").code(),
            StatusCode::kInvalidArgument);
}

TEST_F(FailpointTest, ParserRejectsMalformedOperands) {
  // Empty operands used to strtol/strtod to 0 and be accepted silently.
  for (const char* bad :
       {"x=delay:", "x=error@nth:", "x=error@times:", "x=error@prob:",
        // NaN passes `p < 0 || p > 1` (both false); the negated range
        // check must reject it.
        "x=error@prob:nan",
        // Trailing ':' with an empty seed operand.
        "x=error@prob:0.5:",
        // Overflow: strtol/strtoll clamp with ERANGE instead of failing.
        "x=delay:99999999999999999999", "x=error@nth:99999999999999999999",
        // In-range for long on LP64 but past what int delay_ms can hold.
        "x=delay:5000000000",
        // Junk after a valid number.
        "x=delay:5ms", "x=error@nth:3x"}) {
    EXPECT_EQ(ConfigureFailpointsFromSpec(bad).code(),
              StatusCode::kInvalidArgument)
        << "accepted spec: " << bad;
  }
  // Boundary values stay accepted.
  EXPECT_TRUE(ConfigureFailpointsFromSpec("x=delay:0").ok());
  EXPECT_TRUE(ConfigureFailpointsFromSpec("x=error@prob:0").ok());
  EXPECT_TRUE(ConfigureFailpointsFromSpec("x=error@prob:1.0").ok());
  EXPECT_TRUE(ConfigureFailpointsFromSpec("x=error@prob:0.25:7").ok());
}

TEST_F(FailpointTest, TraceRecordsFirstHitOrderAndHitCounts) {
  SetFailpointTrace(true);
  ASSERT_TRUE(SetFailpoint("test.t2", "error").ok());
  EXPECT_TRUE(FailpointFire("test.t1").ok());   // untargeted sites trace too
  EXPECT_FALSE(FailpointFire("test.t2").ok());
  EXPECT_TRUE(FailpointFire("test.t1").ok());
  auto trace = FailpointTrace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].site, "test.t1");
  EXPECT_EQ(trace[0].hits, 2);
  EXPECT_EQ(trace[1].site, "test.t2");
  EXPECT_EQ(trace[1].hits, 1);
}

// Suite name ends in "DeathTest": gtest runs these first, before anything
// spawns threads, which keeps the fork inside EXPECT_EXIT safe.
using FailpointDeathTest = FailpointTest;

TEST_F(FailpointDeathTest, AbortPolicyExitsWithTheDocumentedCode) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        // Configure inside the child so only the forked process aborts.
        (void)SetFailpoint("test.abort", "abort");
        (void)FailpointFire("test.abort");
      },
      ::testing::ExitedWithCode(kFailpointAbortExitCode), "");
  // The parent never configured the site.
  EXPECT_TRUE(FailpointFire("test.abort").ok());
}

}  // namespace
}  // namespace simsub::util
