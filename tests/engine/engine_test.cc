#include "engine/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "algo/sizes.h"
#include "data/generator.h"
#include "similarity/dtw.h"
#include "similarity/frechet.h"

namespace simsub::engine {
namespace {

similarity::DtwMeasure kDtw;

data::Dataset SmallDataset() {
  return data::GenerateDataset(data::DatasetKind::kPorto, 25, 2025);
}

QueryReport RunQuery(const SimSubEngine& engine, std::span<const geo::Point> query,
                const algo::SubtrajectorySearch& search, int k,
                PruningFilter filter = PruningFilter::kNone, int threads = 1) {
  QueryOptions options;
  options.k = k;
  options.filter = filter;
  options.threads = threads;
  return engine.Query(query, search, options);
}

TEST(EngineTest, TopKOrderedAscending) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  algo::ExactS exact(&kDtw);
  const auto& query = d.trajectories[0];
  auto report = RunQuery(engine, query.View(), exact, 5);
  ASSERT_LE(report.results.size(), 5u);
  ASSERT_GE(report.results.size(), 1u);
  for (size_t i = 1; i < report.results.size(); ++i) {
    EXPECT_LE(report.results[i - 1].distance, report.results[i].distance);
  }
  EXPECT_EQ(report.trajectories_scanned, 25);
  EXPECT_EQ(report.trajectories_pruned, 0);
  EXPECT_TRUE(report.status.ok());
}

TEST(EngineTest, TopKEntriesComeFromDistinctTrajectories) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  algo::ExactS exact(&kDtw);
  auto report = RunQuery(engine, d.trajectories[3].View(), exact, 10);
  std::set<int64_t> ids;
  for (const auto& e : report.results) {
    EXPECT_TRUE(ids.insert(e.trajectory_id).second);
  }
}

TEST(EngineTest, KLargerThanDatabase) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  algo::ExactS exact(&kDtw);
  auto report = RunQuery(engine, d.trajectories[0].View(), exact, 100);
  EXPECT_EQ(report.results.size(), 25u);
}

TEST(EngineTest, IndexPrunesWithoutChangingTopWhenMarginLarge) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  engine.BuildIndex();
  ASSERT_TRUE(engine.has_index());
  algo::ExactS exact(&kDtw);
  const auto& query = d.trajectories[7];
  auto no_index = RunQuery(engine, query.View(), exact, 3);
  auto with_index = RunQuery(engine, query.View(), exact, 3, PruningFilter::kRTree);
  // The paper observes the R-tree filter may drop true answers, but the
  // top-1 for a query drawn from the dataset itself overlaps its own MBR.
  ASSERT_FALSE(with_index.results.empty());
  EXPECT_EQ(no_index.results[0].trajectory_id,
            with_index.results[0].trajectory_id);
  EXPECT_GE(with_index.trajectories_pruned, 0);
  EXPECT_EQ(with_index.trajectories_scanned + with_index.trajectories_pruned,
            25);
}

TEST(EngineTest, IndexedSubsetOfScanResults) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  engine.BuildIndex();
  algo::ExactS exact(&kDtw);
  const auto& query = d.trajectories[11];
  auto all = RunQuery(engine, query.View(), exact, 25);
  auto indexed = RunQuery(engine, query.View(), exact, 25, PruningFilter::kRTree);
  // Every indexed result must also appear in the full scan with the same
  // distance.
  for (const auto& e : indexed.results) {
    bool found = false;
    for (const auto& f : all.results) {
      if (f.trajectory_id == e.trajectory_id) {
        EXPECT_DOUBLE_EQ(f.distance, e.distance);
        found = true;
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST(EngineTest, ReportsTiming) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  algo::ExactS exact(&kDtw);
  auto report = RunQuery(engine, d.trajectories[0].View(), exact, 1);
  EXPECT_GT(report.seconds, 0.0);
  // Queue time is a service-layer concept; direct engine calls report none.
  EXPECT_EQ(report.queue_seconds, 0.0);
}

TEST(EngineTest, TotalPoints) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  EXPECT_EQ(engine.TotalPoints(), d.TotalPoints());
}

TEST(EngineTest, InvertedGridFilterPrunesAndFindsSelf) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  engine.BuildInvertedIndex(32, 32);
  ASSERT_TRUE(engine.has_inverted_index());
  algo::ExactS exact(&kDtw);
  const auto& query = d.trajectories[5];
  auto report =
      RunQuery(engine, query.View(), exact, 3, PruningFilter::kInvertedGrid);
  ASSERT_FALSE(report.results.empty());
  // The query is a database trajectory; it must survive its own filter and
  // rank first.
  EXPECT_EQ(report.results[0].trajectory_id, 5);
  EXPECT_EQ(report.trajectories_scanned + report.trajectories_pruned, 25);
}

TEST(EngineTest, PreCancelledQueryStopsBeforeScanning) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  algo::ExactS exact(&kDtw);
  std::atomic<bool> cancel{true};
  QueryOptions options;
  options.k = 5;
  options.cancel = &cancel;
  auto report = engine.Query(d.trajectories[0].View(), exact, options);
  EXPECT_EQ(report.status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(report.trajectories_scanned, 0);
  EXPECT_TRUE(report.results.empty());
}

TEST(EngineTest, UncancelledFlagLeavesResultsIntact) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  algo::ExactS exact(&kDtw);
  const auto& query = d.trajectories[2];
  std::atomic<bool> cancel{false};
  QueryOptions options;
  options.k = 5;
  options.cancel = &cancel;
  auto with_flag = engine.Query(query.View(), exact, options);
  auto without = RunQuery(engine, query.View(), exact, 5);
  EXPECT_TRUE(with_flag.status.ok());
  ASSERT_EQ(with_flag.results.size(), without.results.size());
  for (size_t i = 0; i < without.results.size(); ++i) {
    EXPECT_EQ(with_flag.results[i].trajectory_id,
              without.results[i].trajectory_id);
    EXPECT_EQ(with_flag.results[i].distance, without.results[i].distance);
  }
}

TEST(EngineTest, ParallelScanMatchesSequential) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  algo::ExactS exact(&kDtw);
  const auto& query = d.trajectories[9];
  auto seq = RunQuery(engine, query.View(), exact, 8, PruningFilter::kNone,
                 /*threads=*/1);
  auto par = RunQuery(engine, query.View(), exact, 8, PruningFilter::kNone,
                 /*threads=*/4);
  EXPECT_EQ(seq.trajectories_scanned, par.trajectories_scanned);
  ASSERT_EQ(seq.results.size(), par.results.size());
  for (size_t i = 0; i < seq.results.size(); ++i) {
    EXPECT_EQ(seq.results[i].trajectory_id, par.results[i].trajectory_id);
    EXPECT_DOUBLE_EQ(seq.results[i].distance, par.results[i].distance);
  }
}

TEST(EngineTest, SubtrajectoryTopKAllowsMultiplePerTrajectory) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  const auto& query = d.trajectories[3];
  auto report =
      engine.QueryTopKSubtrajectories(query.View(), kDtw, /*k=*/10);
  ASSERT_EQ(report.results.size(), 10u);
  for (size_t i = 1; i < report.results.size(); ++i) {
    EXPECT_LE(report.results[i - 1].distance, report.results[i].distance);
  }
  // The query is its own best match; its near-duplicates (off-by-one
  // ranges) should dominate the global top-k, so several results must come
  // from trajectory 3.
  int from_self = 0;
  for (const auto& e : report.results) {
    if (e.trajectory_id == 3) ++from_self;
  }
  EXPECT_GT(from_self, 1);
  EXPECT_EQ(report.results[0].trajectory_id, 3);
  EXPECT_NEAR(report.results[0].distance, 0.0, 1e-9);
}

TEST(EngineTest, SubtrajectoryTopKTop1MatchesExactSearch) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  algo::ExactS exact(&kDtw);
  const auto& query = d.trajectories[8];
  auto per_traj = RunQuery(engine, query.View(), exact, 1);
  auto global = engine.QueryTopKSubtrajectories(query.View(), kDtw, 1);
  ASSERT_EQ(global.results.size(), 1u);
  EXPECT_EQ(global.results[0].trajectory_id, per_traj.results[0].trajectory_id);
  EXPECT_DOUBLE_EQ(global.results[0].distance, per_traj.results[0].distance);
}

TEST(EngineTest, SubtrajectoryTopKHonorsCancelFlag) {
  // The subtrajectory-level scan checks the cooperative flag between
  // per-trajectory enumerations, same contract as QueryOptions::cancel on
  // the regular scan — the serving layer's "topk-sub" path relies on it.
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  const auto& query = d.trajectories[4];
  std::atomic<bool> cancel{true};
  auto cancelled = engine.QueryTopKSubtrajectories(
      query.View(), kDtw, 5, PruningFilter::kNone, /*min_size=*/1, &cancel);
  EXPECT_EQ(cancelled.status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(cancelled.trajectories_scanned, 0);
  EXPECT_TRUE(cancelled.results.empty());

  // An untripped flag changes nothing.
  cancel.store(false);
  auto with_flag = engine.QueryTopKSubtrajectories(
      query.View(), kDtw, 5, PruningFilter::kNone, /*min_size=*/1, &cancel);
  auto without = engine.QueryTopKSubtrajectories(query.View(), kDtw, 5);
  EXPECT_TRUE(with_flag.status.ok());
  ASSERT_EQ(with_flag.results.size(), without.results.size());
  for (size_t i = 0; i < without.results.size(); ++i) {
    EXPECT_EQ(with_flag.results[i].trajectory_id,
              without.results[i].trajectory_id);
    EXPECT_EQ(with_flag.results[i].distance, without.results[i].distance);
  }
}

TEST(EngineTest, SubtrajectoryTopKRespectsMinSize) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  const auto& query = d.trajectories[1];
  auto report = engine.QueryTopKSubtrajectories(query.View(), kDtw, 5,
                                                PruningFilter::kNone,
                                                /*min_size=*/10);
  for (const auto& e : report.results) {
    EXPECT_GE(e.range.size(), 10);
  }
}

TEST(EngineTest, ParallelWithFilterMatchesSequential) {
  data::Dataset d = SmallDataset();
  SimSubEngine engine(d.trajectories);
  engine.BuildInvertedIndex();
  algo::ExactS exact(&kDtw);
  const auto& query = d.trajectories[14];
  auto seq = RunQuery(engine, query.View(), exact, 5, PruningFilter::kInvertedGrid,
                 /*threads=*/1);
  auto par = RunQuery(engine, query.View(), exact, 5, PruningFilter::kInvertedGrid,
                 /*threads=*/3);
  ASSERT_EQ(seq.results.size(), par.results.size());
  for (size_t i = 0; i < seq.results.size(); ++i) {
    EXPECT_EQ(seq.results[i].trajectory_id, par.results[i].trajectory_id);
  }
}

TEST(EngineTest, BestFirstScanSearchesOnlyTheExactMatch) {
  // The query is cut from the LAST trajectory, so an ordinal scan meets its
  // zero-distance answer last. Best-first visits it first (its
  // nearest-endpoint bound is 0) and every other bound is above 0, so a
  // sequential scan searches one trajectory and skips the rest.
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 40, 733);
  SimSubEngine engine(d.trajectories);
  const geo::Trajectory& target = d.trajectories.back();
  std::vector<geo::Point> query(target.points().begin() + 5,
                                target.points().begin() + 25);
  similarity::FrechetMeasure frechet;
  for (const similarity::SimilarityMeasure* m :
       {static_cast<const similarity::SimilarityMeasure*>(&kDtw),
        static_cast<const similarity::SimilarityMeasure*>(&frechet)}) {
    algo::ExactS exact(m);
    algo::SizeS sizes(m, /*xi=*/5);
    for (const algo::SubtrajectorySearch* search :
         {static_cast<const algo::SubtrajectorySearch*>(&exact),
          static_cast<const algo::SubtrajectorySearch*>(&sizes)}) {
      const std::string label = m->name() + "/" + search->name();
      QueryReport seq = RunQuery(engine, query, *search, /*k=*/1);
      ASSERT_EQ(seq.results.size(), 1u) << label;
      EXPECT_EQ(seq.results[0].trajectory_id, target.id()) << label;
      EXPECT_EQ(seq.results[0].distance, 0.0) << label;
      EXPECT_EQ(seq.trajectories_scanned, 40) << label;
      EXPECT_EQ(seq.trajectories_scanned - seq.lb_skipped, 1) << label;

      // Three partitions find the same answer and still count every
      // candidate as scanned. Under Frechet each partition's first distance
      // is already below the bound of its next candidate, so at most three
      // searches run whatever the timing. Under DTW a partition keeps
      // searching until the shared bound of 0 reaches it, so its count
      // depends on timing and is not pinned.
      QueryReport par = RunQuery(engine, query, *search, /*k=*/1,
                                 PruningFilter::kNone, /*threads=*/3);
      ASSERT_EQ(par.results.size(), 1u) << label;
      EXPECT_EQ(par.results[0].trajectory_id, target.id()) << label;
      EXPECT_EQ(par.results[0].distance, 0.0) << label;
      EXPECT_EQ(par.trajectories_scanned, 40) << label;
      if (m == &frechet) {
        EXPECT_LE(par.trajectories_scanned - par.lb_skipped, 3) << label;
      }
    }
  }
}

}  // namespace
}  // namespace simsub::engine
