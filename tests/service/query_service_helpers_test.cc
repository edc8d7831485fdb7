// Requests that execute on the service pool take its idle workers as scan
// helpers (engine::QueryOptions::threads). Submit must still answer exactly
// what RunOne answers, down to trajectories_scanned and lb_skipped, on
// pools of any size; an exception from any participant must resolve the
// request's future without wedging the pool; a pool whose every worker
// owns a request must not deadlock; and a query that leaves no candidate
// must resolve. This file is part of the TSan CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"
#include "rl/trainer.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "similarity/dtw.h"
#include "util/failpoint.h"

namespace simsub::service {
namespace {

using namespace std::chrono_literals;

QueryService MakeService(int threads) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 60, 7301);
  ServiceOptions options;
  options.threads = threads;
  return QueryService(engine::SimSubEngine(std::move(d.trajectories)),
                      options);
}

rl::TrainedPolicy TinyPolicy(int skip_count) {
  similarity::DtwMeasure dtw;
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 10, 611);
  rl::RlsTrainOptions options;
  options.episodes = 5;
  options.env.skip_count = skip_count;
  options.seed = 612;
  rl::RlsTrainer trainer(&dtw, options);
  return trainer.Train(d.trajectories, d.trajectories);
}

void ExpectSameReport(const engine::QueryReport& want,
                      const engine::QueryReport& got,
                      const std::string& label) {
  EXPECT_EQ(got.status.code(), want.status.code()) << label;
  EXPECT_EQ(got.filter_used, want.filter_used) << label;
  EXPECT_EQ(got.trajectories_scanned, want.trajectories_scanned) << label;
  EXPECT_EQ(got.lb_skipped, want.lb_skipped) << label;
  ASSERT_EQ(got.results.size(), want.results.size()) << label;
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(got.results[i].trajectory_id, want.results[i].trajectory_id)
        << label << " #" << i;
    EXPECT_EQ(got.results[i].range, want.results[i].range)
        << label << " #" << i;
    EXPECT_EQ(got.results[i].distance, want.results[i].distance)
        << label << " #" << i;
  }
}

/// Every algorithm the registry builds plus "topk-sub", under DTW and
/// Frechet, with pruning on and off and k of 1 and 10, over no filter.
std::vector<QuerySpec> AllAlgorithmSpecs(std::span<const geo::Point> points,
                                         const rl::TrainedPolicy& plain,
                                         const rl::TrainedPolicy& skip) {
  std::vector<QuerySpec> specs;
  for (const char* measure : {"dtw", "frechet"}) {
    for (const char* algorithm :
         {"exacts", "sizes", "pss", "pos", "pos-d", "simtra", "random-s",
          "spring", "ucr", "rls", "rls-skip", "topk-sub"}) {
      const std::string name = algorithm;
      if (std::string(measure) != "dtw" && (name == "spring" || name == "ucr")) {
        continue;  // DTW-only
      }
      for (bool prune : {true, false}) {
        for (int k : {1, 10}) {
          QuerySpec spec;
          spec.points = points;
          spec.measure = measure;
          spec.algorithm = algorithm;
          if (name == "rls" || name == "rls-skip") {
            spec.algorithm_options.rls_policy =
                name == "rls-skip" ? &skip : &plain;
          }
          spec.k = k;
          spec.min_size = 2;
          spec.prune = prune;
          spec.filter = engine::PruningFilter::kNone;
          specs.push_back(spec);
        }
      }
    }
  }
  return specs;
}

/// Evaluator acquisitions the service counted between two snapshots. It
/// counts each request's own scratch, which serves the request's worker
/// only, so a Submit that acquired a different number than RunOne had a
/// helper search some candidate.
int64_t Acquired(const ServiceStats& before, const ServiceStats& after) {
  return after.evaluator_reuses - before.evaluator_reuses +
         after.evaluator_allocs - before.evaluator_allocs;
}

std::string Label(const QuerySpec& spec, int threads) {
  return spec.measure + "/" + spec.algorithm +
         " prune=" + std::to_string(spec.prune) +
         " k=" + std::to_string(spec.k) +
         " pool=" + std::to_string(threads);
}

TEST(QueryServiceHelpersTest, SubmitMatchesRunOneOnPoolsOfTwoToFour) {
  const rl::TrainedPolicy plain = TinyPolicy(0);
  const rl::TrainedPolicy skip = TinyPolicy(3);
  int helped = 0;
  for (int threads : {2, 3, 4}) {
    QueryService service = MakeService(threads);
    const geo::Trajectory query =
        service.engine().database()[7].Slice(geo::SubRange(2, 14));
    const std::vector<QuerySpec> specs =
        AllAlgorithmSpecs(query.View(), plain, skip);
    for (const QuerySpec& spec : specs) {
      const std::string label = Label(spec, threads);
      const ServiceStats before = service.stats();
      const engine::QueryReport want = service.RunOne(spec);
      ASSERT_TRUE(want.status.ok()) << label << ": " << want.status.ToString();
      const ServiceStats between = service.stats();
      // One request at a time, so the other workers are idle and join.
      const engine::QueryReport got = service.Submit(spec).get();
      ExpectSameReport(want, got, label);
      if (Acquired(between, service.stats()) != Acquired(before, between)) {
        ++helped;
      }
    }
  }
  // Helpers that never join would pass every comparison above.
  EXPECT_GT(helped, 0);
}

TEST(QueryServiceHelpersTest, SixteenRequestsOnTwoWorkersDoNotDeadlock) {
  QueryService service = MakeService(2);
  const auto& db = service.engine().database();
  std::vector<geo::Trajectory> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(db[static_cast<size_t>(3 * i)].Slice(geo::SubRange(0, 9)));
  }
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 16; ++i) {
    QuerySpec spec;
    spec.points = queries[static_cast<size_t>(i)].View();
    spec.measure = i % 2 == 0 ? "dtw" : "frechet";
    spec.algorithm = i % 3 == 0 ? "topk-sub" : "exacts";
    spec.k = 5;
    spec.min_size = 2;
    spec.prune = i % 4 != 1;
    specs.push_back(spec);
  }
  std::vector<std::future<engine::QueryReport>> futures =
      service.SubmitBatch(specs);
  std::vector<engine::QueryReport> got;
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(120s), std::future_status::ready)
        << "a request never finished";
    got.push_back(f.get());
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectSameReport(service.RunOne(specs[i]), got[i],
                     "spec " + std::to_string(i));
  }
}

TEST(QueryServiceHelpersTest, QueriesFarFromEveryTrajectoryResolve) {
  QueryService service = MakeService(2);
  // The query moved past the database's top-right corner leaves no
  // candidate under the R-tree, the grid, or the planner's choice.
  const geo::Mbr extent = service.engine().corpus_stats().extent;
  std::vector<geo::Point> far;
  for (const geo::Point& p : service.engine().database()[4].points()) {
    far.emplace_back(p.x + extent.max_x - extent.min_x + 1.0,
                     p.y + extent.max_y - extent.min_y + 1.0);
  }
  const std::optional<engine::PruningFilter> filters[] = {
      std::nullopt, engine::PruningFilter::kRTree,
      engine::PruningFilter::kInvertedGrid};
  for (const auto& filter : filters) {
    for (const char* algorithm : {"exacts", "topk-sub"}) {
      QuerySpec spec;
      spec.points = far;
      spec.measure = "dtw";
      spec.algorithm = algorithm;
      spec.k = 5;
      spec.filter = filter;
      const std::string label =
          std::string(algorithm) + " filter=" +
          (filter ? engine::PruningFilterName(*filter) : "planned");
      std::future<engine::QueryReport> future = service.Submit(spec);
      ASSERT_EQ(future.wait_for(30s), std::future_status::ready) << label;
      const engine::QueryReport got = future.get();
      EXPECT_TRUE(got.status.ok()) << label << ": " << got.status.ToString();
      if (filter.has_value()) {
        EXPECT_EQ(got.trajectories_scanned, 0) << label;
        EXPECT_TRUE(got.results.empty()) << label;
      }
      ExpectSameReport(service.RunOne(spec), got, label);
    }
  }
}

TEST(QueryServiceHelpersTest, ParticipantExceptionResolvesTheFuture) {
  if (!util::FailpointsCompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  QueryService service = MakeService(3);
  const geo::Trajectory query =
      service.engine().database()[5].Slice(geo::SubRange(0, 11));
  QuerySpec spec;
  spec.points = query.View();
  spec.measure = "dtw";
  spec.algorithm = "exacts";
  spec.k = 5;
  spec.prune = false;
  spec.filter = engine::PruningFilter::kNone;
  const engine::QueryReport want = service.RunOne(spec);
  const ServiceStats before = service.stats();
  for (int nth : {1, 4, 11, 30}) {
    ASSERT_TRUE(util::SetFailpoint("engine.search",
                                   "throw@nth:" + std::to_string(nth))
                    .ok());
    std::future<engine::QueryReport> future = service.Submit(spec);
    ASSERT_EQ(future.wait_for(120s), std::future_status::ready);
    EXPECT_THROW(future.get(), util::FailpointError) << "nth=" << nth;
    util::ClearFailpoints();
    // The pool keeps serving, bit-identically.
    ExpectSameReport(want, service.Submit(spec).get(),
                     "after nth=" + std::to_string(nth));
  }
  // A request that threw returned no report, so no outcome counter moved
  // for it (the service's accounting law counts returned reports).
  const ServiceStats after = service.stats();
  EXPECT_EQ(after.queries_served - before.queries_served, 4);
  EXPECT_EQ(after.failed - before.failed, 0);
}

}  // namespace
}  // namespace simsub::service
