#include "algo/splitting.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "algo/exacts.h"
#include "similarity/dtw.h"
#include "similarity/frechet.h"
#include "testing/count_news.h"
#include "util/random.h"

namespace simsub::algo {
namespace {

using geo::Point;

std::vector<Point> Line(std::initializer_list<double> xs) {
  std::vector<Point> pts;
  for (double x : xs) pts.emplace_back(x, 0.0);
  return pts;
}

similarity::DtwMeasure kDtw;

std::vector<Point> RandomWalk(util::Rng& rng, int n) {
  std::vector<Point> pts;
  double x = 0, y = 0;
  for (int i = 0; i < n; ++i) {
    x += rng.Normal(0, 3);
    y += rng.Normal(0, 3);
    pts.emplace_back(x, y);
  }
  return pts;
}

TEST(PssTest, FindsEmbeddedExactMatch) {
  PssSearch pss(&kDtw);
  auto data = Line({9, 9, 1, 2, 3, 9, 9});
  auto query = Line({1, 2, 3});
  auto r = pss.Search(data, query);
  // PSS is approximate, but an exact zero-distance suffix/prefix candidate
  // must be picked up once scanned.
  EXPECT_LE(r.distance, similarity::DtwDistance(data, query));
  EXPECT_GE(r.stats.splits, 1);
}

TEST(PssTest, NeverBetterThanExactAndAlwaysValidRange) {
  util::Rng rng(17);
  PssSearch pss(&kDtw);
  ExactS exact(&kDtw);
  for (int trial = 0; trial < 20; ++trial) {
    auto data = RandomWalk(rng, 15);
    auto query = RandomWalk(rng, 5);
    auto r = pss.Search(data, query);
    EXPECT_GE(r.best.start, 0);
    EXPECT_LE(r.best.start, r.best.end);
    EXPECT_LT(r.best.end, static_cast<int>(data.size()));
    EXPECT_GE(r.distance, exact.Search(data, query).distance - 1e-9);
  }
}

TEST(PssTest, SuffixCandidateCanWin) {
  PssSearch pss(&kDtw);
  // The suffix (1, 2) seen at the first scan is the best candidate overall.
  auto data = Line({50, 100, 1, 2});
  auto query = Line({1, 2});
  auto r = pss.Search(data, query);
  EXPECT_EQ(r.best, geo::SubRange(2, 3));
  EXPECT_NEAR(r.distance, 0.0, 1e-12);
}

TEST(PssTest, ReportsBothCandidateKindsPerPoint) {
  PssSearch pss(&kDtw);
  auto data = Line({0, 1, 2, 3});
  auto query = Line({1});
  auto r = pss.Search(data, query);
  EXPECT_EQ(r.stats.candidates, 2 * 4);
}

// With a warm scratch, a bounded PSS search allocates twice: its suffix
// distances and their running minima. The reversed query its suffix pass
// runs against lives in the scratch.
TEST(PssTest, WarmBoundedSearchAllocatesTwice) {
  util::Rng rng(31);
  std::vector<std::vector<Point>> data;
  for (int i = 0; i < 10; ++i) data.push_back(RandomWalk(rng, 30 + i));
  const std::vector<Point> query = RandomWalk(rng, 12);
  PssSearch pss(&kDtw);
  similarity::EvaluatorCache scratch;
  const double bailout = std::numeric_limits<double>::infinity();
  for (const auto& d : data) (void)pss.Search(d, query, &scratch, bailout);
  g_news = 0;
  g_count_news = true;
  for (const auto& d : data) (void)pss.Search(d, query, &scratch, bailout);
  g_count_news = false;
  EXPECT_EQ(g_news.load(), 2 * static_cast<long long>(data.size()));
}

TEST(PosTest, PrefixOnlyNeverUsesSuffix) {
  PosSearch pos(&kDtw);
  // Best subtrajectory is the suffix (1, 2); POS cannot see it as a suffix,
  // but after greedy splits the prefix T[2..3] is reachable.
  auto data = Line({50, 100, 1, 2});
  auto query = Line({1, 2});
  auto r = pos.Search(data, query);
  EXPECT_EQ(r.stats.candidates, 4) << "one prefix candidate per point";
  EXPECT_LE(r.distance, 110.0);
}

TEST(PosTest, MatchesPssOnPrefixDominatedInput) {
  // When every improvement comes from prefixes, POS and PSS agree.
  PssSearch pss(&kDtw);
  PosSearch pos(&kDtw);
  auto data = Line({1, 2, 9, 9, 9});
  auto query = Line({1, 2});
  auto rp = pss.Search(data, query);
  auto ro = pos.Search(data, query);
  EXPECT_DOUBLE_EQ(rp.distance, ro.distance);
  EXPECT_EQ(rp.best, ro.best);
}

TEST(PosDTest, DelayZeroEqualsPos) {
  util::Rng rng(23);
  PosSearch pos(&kDtw);
  PosDSearch posd(&kDtw, 0);
  for (int trial = 0; trial < 10; ++trial) {
    auto data = RandomWalk(rng, 12);
    auto query = RandomWalk(rng, 4);
    auto a = pos.Search(data, query);
    auto b = posd.Search(data, query);
    EXPECT_DOUBLE_EQ(a.distance, b.distance) << "trial " << trial;
    EXPECT_EQ(a.best, b.best);
  }
}

TEST(PosDTest, DelayExtendsAWinningPrefix) {
  // POS splits at the first improving prefix (the single point 1); POS-D
  // with D >= 2 keeps scanning and finds the longer, better prefix (1,2,3).
  PosDSearch posd(&kDtw, 5);
  PosSearch pos(&kDtw);
  auto data = Line({1, 2, 3, 50, 60});
  auto query = Line({1, 2, 3});
  auto rd = posd.Search(data, query);
  auto rp = pos.Search(data, query);
  EXPECT_LT(rd.distance, rp.distance);
  EXPECT_EQ(rd.best, geo::SubRange(0, 2));
  EXPECT_NEAR(rd.distance, 0.0, 1e-12);
}

TEST(PosDTest, LookaheadClampedAtEnd) {
  PosDSearch posd(&kDtw, 100);
  auto data = Line({1, 2});
  auto query = Line({1, 2});
  auto r = posd.Search(data, query);
  EXPECT_NEAR(r.distance, 0.0, 1e-12);
  EXPECT_EQ(r.best, geo::SubRange(0, 1));
}

TEST(SplittingTest, AllVariantsHandleSinglePointData) {
  auto data = Line({3});
  auto query = Line({1, 2});
  std::vector<std::unique_ptr<SubtrajectorySearch>> searches;
  searches.push_back(std::make_unique<PssSearch>(&kDtw));
  searches.push_back(std::make_unique<PosSearch>(&kDtw));
  searches.push_back(std::make_unique<PosDSearch>(&kDtw, 3));
  for (const auto& s : searches) {
    auto r = s->Search(data, query);
    EXPECT_EQ(r.best, geo::SubRange(0, 0)) << s->name();
    EXPECT_TRUE(std::isfinite(r.distance));
  }
}

TEST(SplittingTest, FrechetVariantAgreesWithIncrementalContract) {
  similarity::FrechetMeasure frechet;
  PssSearch pss(&frechet);
  util::Rng rng(31);
  auto data = RandomWalk(rng, 20);
  auto query = RandomWalk(rng, 6);
  auto r = pss.Search(data, query);
  // Returned range's true Frechet distance matches the reported one when no
  // approximation is involved (PSS reports exact distances for Frechet).
  std::span<const Point> sub(&data[static_cast<size_t>(r.best.start)],
                             static_cast<size_t>(r.best.size()));
  EXPECT_NEAR(similarity::FrechetDistance(sub, query), r.distance, 1e-9);
}

TEST(SplittingTest, NamesAreStable) {
  EXPECT_EQ(PssSearch(&kDtw).name(), "PSS");
  EXPECT_EQ(PosSearch(&kDtw).name(), "POS");
  EXPECT_EQ(PosDSearch(&kDtw, 5).name(), "POS-D");
  EXPECT_EQ(PosDSearch(&kDtw, 5).delay(), 5);
}

}  // namespace
}  // namespace simsub::algo
