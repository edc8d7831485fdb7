// PrefixEvaluator::Reset must make a reused evaluator indistinguishable from
// a freshly created one, for every builtin measure and across query-length
// changes (grow and shrink) — the property EvaluatorCache relies on.
#include <gtest/gtest.h>

#include <vector>

#include "data/generator.h"
#include "similarity/measure.h"
#include "similarity/registry.h"
#include "util/random.h"

namespace simsub::similarity {
namespace {

std::vector<geo::Point> RandomPoints(util::Rng& rng, int n) {
  std::vector<geo::Point> pts;
  for (int i = 0; i < n; ++i) {
    pts.emplace_back(rng.Uniform(-500.0, 500.0), rng.Uniform(-500.0, 500.0));
  }
  return pts;
}

// Streams `data` through `eval` and records every returned prefix distance.
std::vector<double> Trace(PrefixEvaluator& eval,
                          std::span<const geo::Point> data) {
  std::vector<double> out;
  out.push_back(eval.Start(data[0]));
  for (size_t i = 1; i < data.size(); ++i) out.push_back(eval.Extend(data[i]));
  return out;
}

TEST(EvaluatorResetTest, ResetMatchesFreshEvaluatorForAllBuiltinMeasures) {
  util::Rng rng(321);
  std::vector<geo::Point> data = RandomPoints(rng, 20);
  std::vector<geo::Point> q_first = RandomPoints(rng, 12);
  std::vector<geo::Point> q_longer = RandomPoints(rng, 17);
  std::vector<geo::Point> q_shorter = RandomPoints(rng, 5);

  for (const std::string& name : BuiltinMeasureNames()) {
    auto measure = MakeMeasure(name);
    ASSERT_TRUE(measure.ok()) << name;

    auto reused = (*measure)->NewEvaluator(q_first);
    Trace(*reused, data);  // dirty the internal state

    for (const auto& query : {q_longer, q_shorter, q_first}) {
      ASSERT_TRUE(reused->Reset(query)) << name;
      EXPECT_EQ(reused->Length(), 0) << name;
      auto fresh = (*measure)->NewEvaluator(query);
      std::vector<double> got = Trace(*reused, data);
      std::vector<double> want = Trace(*fresh, data);
      ASSERT_EQ(got.size(), want.size()) << name;
      for (size_t i = 0; i < want.size(); ++i) {
        // Bit-identical: Reset must not perturb the DP in any way.
        EXPECT_EQ(got[i], want[i]) << name << " prefix length " << i + 1
                                   << " query size " << query.size();
      }
    }
  }
}

TEST(EvaluatorResetTest, CacheReusesPerMeasureAndCounts) {
  util::Rng rng(654);
  std::vector<geo::Point> data = RandomPoints(rng, 10);
  std::vector<geo::Point> q1 = RandomPoints(rng, 8);
  std::vector<geo::Point> q2 = RandomPoints(rng, 6);
  auto dtw = MakeMeasure("dtw");
  auto frechet = MakeMeasure("frechet");
  ASSERT_TRUE(dtw.ok() && frechet.ok());

  EvaluatorCache cache;
  PrefixEvaluator* d1 = cache.Acquire(**dtw, q1);
  EXPECT_EQ(cache.alloc_count(), 1);
  EXPECT_EQ(cache.reuse_count(), 0);

  // The same measure reuses the slot's evaluator.
  PrefixEvaluator* d2 = cache.Acquire(**dtw, q2);
  EXPECT_EQ(d2, d1);  // same storage, rebound
  EXPECT_EQ(cache.reuse_count(), 1);
  EXPECT_EQ(cache.alloc_count(), 1);

  // The rebound evaluator computes against q2, not q1.
  auto fresh = (*dtw)->NewEvaluator(q2);
  std::vector<double> got = Trace(*d2, data);
  std::vector<double> want = Trace(*fresh, data);
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);

  // Another measure replaces the one evaluator...
  (void)cache.Acquire(**frechet, q1);  // counters are the assertion
  EXPECT_EQ(cache.alloc_count(), 2);
  EXPECT_EQ(cache.reuse_count(), 1);

  // ...so going back to the first measure allocates again, and the new
  // evaluator computes against q1.
  PrefixEvaluator* d3 = cache.Acquire(**dtw, q1);
  EXPECT_EQ(cache.alloc_count(), 3);
  EXPECT_EQ(cache.reuse_count(), 1);
  fresh = (*dtw)->NewEvaluator(q1);
  got = Trace(*d3, data);
  want = Trace(*fresh, data);
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(EvaluatorResetTest, CacheKeysSlotsByIdentityNotAddress) {
  // The serving layer frees cached measures when its resolved-spec cache
  // flushes; the allocator may hand the freed address to the next measure
  // (ABA). Slots key by the measure's process-unique identity, so a new
  // measure — same type, different parameters, possibly the same address —
  // can never match a dead measure's slot and inherit its evaluator.
  util::Rng rng(888);
  std::vector<geo::Point> data = RandomPoints(rng, 10);
  std::vector<geo::Point> q = RandomPoints(rng, 6);
  EvaluatorCache cache;

  MeasureOptions tight;
  tight.edr_eps = 1.0;
  auto a = MakeMeasure("edr", tight);
  ASSERT_TRUE(a.ok());
  (void)cache.Acquire(**a, q);  // warm the slot; counters are the assertion
  EXPECT_EQ(cache.alloc_count(), 1);
  (*a).reset();  // the identity dies with the measure

  MeasureOptions loose;
  loose.edr_eps = 1e6;
  auto b = MakeMeasure("edr", loose);
  ASSERT_TRUE(b.ok());
  PrefixEvaluator* got = cache.Acquire(**b, q);
  // A fresh slot, never a reuse of the dead measure's evaluator.
  EXPECT_EQ(cache.alloc_count(), 2);
  EXPECT_EQ(cache.reuse_count(), 0);

  // And the evaluator honors b's eps, not a's (with eps = 1e6 every point
  // matches, so all prefix distances differ from the tight-eps evaluator).
  auto fresh = (*b)->NewEvaluator(q);
  std::vector<double> want = Trace(*fresh, data);
  std::vector<double> have = Trace(*got, data);
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(have[i], want[i]);
}

TEST(EvaluatorResetTest, IdentitiesAreUnique) {
  auto m1 = MakeMeasure("dtw");
  auto m2 = MakeMeasure("dtw");
  ASSERT_TRUE(m1.ok() && m2.ok());
  // Identical configuration, distinct objects: distinct identities.
  EXPECT_NE((*m1)->identity(), (*m2)->identity());
}

TEST(EvaluatorResetTest, CacheFallsBackWhenResetUnsupported) {
  // A measure whose evaluator rejects Reset: the cache must allocate fresh
  // evaluators every time and count them as allocations.
  class NoResetEvaluator : public PrefixEvaluator {
   public:
    explicit NoResetEvaluator(std::span<const geo::Point> query)
        : query_(query) {}
    double Start(const geo::Point&) override { length_ = 1; return 0.0; }
    double Extend(const geo::Point&) override { ++length_; return 0.0; }
    double Current() const override { return 0.0; }
    int Length() const override { return length_; }

   private:
    std::span<const geo::Point> query_;
    int length_ = 0;
  };
  class NoResetMeasure : public SimilarityMeasure {
   public:
    std::string name() const override { return "noreset"; }
    std::unique_ptr<PrefixEvaluator> NewEvaluator(
        std::span<const geo::Point> query) const override {
      return std::make_unique<NoResetEvaluator>(query);
    }
  };

  util::Rng rng(99);
  std::vector<geo::Point> q = RandomPoints(rng, 4);
  NoResetMeasure measure;
  EvaluatorCache cache;
  (void)cache.Acquire(measure, q);  // warm the slot; counters are the assertion
  (void)cache.Acquire(measure, q);  // warm the slot; counters are the assertion
  EXPECT_EQ(cache.alloc_count(), 2);
  EXPECT_EQ(cache.reuse_count(), 0);
}

}  // namespace
}  // namespace simsub::similarity
