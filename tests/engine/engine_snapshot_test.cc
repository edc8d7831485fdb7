// Property test for the snapshot-backed engine: for random generated
// corpora, an engine constructed over a mmap'd snapshot must return
// BIT-identical top-k results to the in-memory engine built from the same
// trajectories — pruned and unpruned, at any thread count, under every
// candidate filter — and the planner must see identical persisted
// statistics.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "algo/exacts.h"
#include "data/generator.h"
#include "data/snapshot.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "service/planner.h"
#include "service/query_service.h"
#include "similarity/dtw.h"
#include "similarity/frechet.h"

namespace simsub::engine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void ExpectSameResults(const QueryReport& a, const QueryReport& b,
                       const std::string& context) {
  ASSERT_EQ(a.results.size(), b.results.size()) << context;
  for (size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].trajectory_id, b.results[i].trajectory_id)
        << context << " entry " << i;
    EXPECT_EQ(a.results[i].range, b.results[i].range)
        << context << " entry " << i;
    // Exact floating-point equality: the snapshot path must read the very
    // same coordinate bits, so every computed distance matches exactly.
    EXPECT_EQ(a.results[i].distance, b.results[i].distance)
        << context << " entry " << i;
  }
}

TEST(EngineSnapshotTest, SnapshotEngineIsBitIdenticalToInMemory) {
  similarity::DtwMeasure dtw;
  similarity::FrechetMeasure frechet;  // max-aggregating cascade path
  algo::ExactS exact_dtw(&dtw);
  algo::ExactS exact_frechet(&frechet);
  struct Case {
    const algo::SubtrajectorySearch* search;
    const char* label;
  };
  const Case cases[] = {{&exact_dtw, "dtw"}, {&exact_frechet, "frechet"}};

  for (uint64_t seed : {11u}) {
    for (data::DatasetKind kind :
         {data::DatasetKind::kPorto, data::DatasetKind::kHarbin}) {
      data::Dataset dataset = data::GenerateDataset(kind, 30, seed);
      auto workload = data::SampleWorkload(dataset, 2, seed + 1);

      std::string path = TempPath("simsub_engine_snapshot_prop.snap");
      ASSERT_TRUE(data::WriteSnapshot(dataset, path).ok());
      auto snapshot = data::CorpusSnapshot::Open(path);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status();

      SimSubEngine mem_engine(std::move(dataset.trajectories));
      SimSubEngine snap_engine(**snapshot);
      ASSERT_TRUE(snap_engine.from_snapshot());
      ASSERT_FALSE(mem_engine.from_snapshot());

      for (const auto& pair : workload) {
        for (const Case& c : cases) {
          for (bool prune : {false, true}) {
            for (int threads : {1, 4}) {
              for (PruningFilter filter :
                   {PruningFilter::kNone, PruningFilter::kRTree,
                    PruningFilter::kInvertedGrid}) {
                QueryOptions qo;
                qo.k = 5;
                qo.filter = filter;
                qo.threads = threads;
                qo.prune = prune;
                QueryReport a =
                    mem_engine.Query(pair.query.View(), *c.search, qo);
                QueryReport b =
                    snap_engine.Query(pair.query.View(), *c.search, qo);
                ExpectSameResults(
                    a, b,
                    std::string(c.label) + " prune=" + std::to_string(prune) +
                        " threads=" + std::to_string(threads) + " filter=" +
                        PruningFilterName(filter) + " seed=" +
                        std::to_string(seed));
              }
            }
          }
        }
      }
      std::remove(path.c_str());
    }
  }
}

TEST(EngineSnapshotTest, PlannerSeesIdenticalPersistedStats) {
  data::Dataset dataset = data::GenerateDataset(data::DatasetKind::kPorto,
                                                30, 99);
  std::string path = TempPath("simsub_engine_snapshot_stats.snap");
  ASSERT_TRUE(data::WriteSnapshot(dataset, path).ok());
  auto snapshot = data::CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  SimSubEngine mem_engine(std::move(dataset.trajectories));
  SimSubEngine snap_engine(**snapshot);
  // The snapshot engine loads stats from the persisted header; they must be
  // bit-identical to the in-memory statistics pass, so the planner makes
  // exactly the same decisions over either engine.
  EXPECT_EQ(mem_engine.corpus_stats().extent,
            snap_engine.corpus_stats().extent);
  EXPECT_EQ(mem_engine.corpus_stats().mean_trajectory_width,
            snap_engine.corpus_stats().mean_trajectory_width);
  EXPECT_EQ(mem_engine.corpus_stats().mean_trajectory_height,
            snap_engine.corpus_stats().mean_trajectory_height);

  service::QueryPlanner mem_planner(mem_engine.corpus_stats());
  service::QueryPlanner snap_planner(snap_engine.corpus_stats());
  EXPECT_EQ(mem_planner.extent(), snap_planner.extent());
  EXPECT_EQ(mem_planner.mean_trajectory_width(),
            snap_planner.mean_trajectory_width());
  EXPECT_EQ(mem_planner.mean_trajectory_height(),
            snap_planner.mean_trajectory_height());
  std::remove(path.c_str());
}

TEST(EngineSnapshotTest, QueryServiceOverSnapshotMatchesInMemoryService) {
  data::Dataset dataset = data::GenerateDataset(data::DatasetKind::kPorto,
                                                30, 7);
  auto workload = data::SampleWorkload(dataset, 6, 8);
  std::string path = TempPath("simsub_engine_snapshot_service.snap");
  ASSERT_TRUE(data::WriteSnapshot(dataset, path).ok());
  auto snapshot = data::CorpusSnapshot::Open(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  service::ServiceOptions options;
  options.threads = 3;
  service::QueryService mem_service(
      SimSubEngine(std::move(dataset.trajectories)), options);
  service::QueryService snap_service(**snapshot, options);

  std::vector<service::QuerySpec> specs;
  for (const auto& pair : workload) {
    service::QuerySpec spec;  // exact search under DTW
    spec.points = pair.query.View();
    spec.k = 4;
    specs.push_back(spec);
  }
  auto serve = [&specs](service::QueryService& service) {
    std::vector<QueryReport> reports;
    for (auto& future : service.SubmitBatch(specs)) {
      reports.push_back(future.get());
    }
    return reports;
  };
  auto mem_reports = serve(mem_service);
  auto snap_reports = serve(snap_service);
  ASSERT_EQ(mem_reports.size(), snap_reports.size());
  for (size_t i = 0; i < mem_reports.size(); ++i) {
    // Identical stats => identical plans => identical candidate sets.
    EXPECT_EQ(mem_reports[i].filter_used, snap_reports[i].filter_used);
    EXPECT_EQ(mem_reports[i].planned_selectivity,
              snap_reports[i].planned_selectivity);
    ExpectSameResults(mem_reports[i], snap_reports[i],
                      "service query " + std::to_string(i));
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace simsub::engine
