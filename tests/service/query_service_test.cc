// QueryService and QueryPlanner behavior: batch/sequential equivalence,
// planner decisions, explicit overrides, scratch reuse accounting,
// re-entrant RunOne from a pool task, first requests racing to build the
// engine's indexes, and the outcome accounting law under concurrent
// traffic (part of the TSan CI job).
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <limits>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"
#include "service/planner.h"
#include "service/query_spec.h"
#include "util/failpoint.h"

namespace simsub::service {
namespace {

data::Dataset SmallDataset() {
  return data::GenerateDataset(data::DatasetKind::kPorto, 40, 4407);
}

/// Exact search under DTW (QuerySpec's default measure and algorithm).
QuerySpec ExactSpec(std::span<const geo::Point> points, int k,
                    std::optional<engine::PruningFilter> filter = {}) {
  QuerySpec spec;
  spec.points = points;
  spec.k = k;
  spec.filter = filter;
  return spec;
}

/// SubmitBatch, then waits for every report in order.
std::vector<engine::QueryReport> ServeBatch(QueryService& service,
                                            std::span<const QuerySpec> specs) {
  std::vector<engine::QueryReport> reports;
  for (auto& future : service.SubmitBatch(specs)) {
    reports.push_back(future.get());
  }
  return reports;
}

QueryService MakeService(int threads) {
  data::Dataset d = SmallDataset();
  ServiceOptions options;
  options.threads = threads;
  return QueryService(engine::SimSubEngine(std::move(d.trajectories)),
                      options);
}

TEST(QueryServiceTest, FirstQueriesRacingToBuildTheIndexesMatchRunOne) {
  // A fresh service has built no index and no SoA store. The specs come
  // in waves of one filter per worker (R-tree, then grid, then the
  // planner's choice), so the workers ask for the same unbuilt structure
  // at once; the corpus is large enough that a build is still running
  // when the other workers arrive. Every answer equals RunOne's on a
  // second fresh service.
  constexpr int kWorkers = 4;
  const data::Dataset d =
      data::GenerateDataset(data::DatasetKind::kPorto, 1000, 4411);
  const auto workload = data::SampleWorkload(d, kWorkers, 4410);
  auto fresh_service = [&](int threads) {
    ServiceOptions options;
    options.threads = threads;
    return QueryService(engine::SimSubEngine(d.trajectories), options);
  };
  QueryService racing = fresh_service(kWorkers);
  QueryService reference = fresh_service(1);

  std::vector<QuerySpec> specs;
  for (std::optional<engine::PruningFilter> filter :
       {std::optional(engine::PruningFilter::kRTree),
        std::optional(engine::PruningFilter::kInvertedGrid),
        std::optional<engine::PruningFilter>()}) {
    for (const auto& pair : workload) {
      QuerySpec spec = ExactSpec(pair.query.View(), 3, filter);
      spec.algorithm = "pss";  // cheap per candidate, so the builds show
      specs.push_back(spec);
    }
  }
  std::vector<std::future<engine::QueryReport>> futures;
  for (const QuerySpec& spec : specs) futures.push_back(racing.Submit(spec));

  for (size_t i = 0; i < specs.size(); ++i) {
    const engine::QueryReport got = futures[i].get();
    const engine::QueryReport want = reference.RunOne(specs[i]);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();
    EXPECT_EQ(got.filter_used, want.filter_used) << "spec " << i;
    EXPECT_EQ(got.trajectories_pruned, want.trajectories_pruned);
    EXPECT_EQ(got.trajectories_scanned, want.trajectories_scanned);
    EXPECT_EQ(got.lb_skipped, want.lb_skipped);
    ASSERT_EQ(got.results.size(), want.results.size()) << "spec " << i;
    for (size_t j = 0; j < want.results.size(); ++j) {
      EXPECT_EQ(got.results[j].trajectory_id, want.results[j].trajectory_id);
      EXPECT_EQ(got.results[j].range, want.results[j].range);
      EXPECT_EQ(got.results[j].distance, want.results[j].distance);
    }
  }
}

TEST(QueryServiceTest, SubmitBatchMatchesSequentialExecutionBitwise) {
  data::Dataset d = SmallDataset();
  auto workload = data::SampleWorkload(d, 12, 4408);
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 4; return o; }());

  std::vector<QuerySpec> specs;
  for (const auto& pair : workload) {
    specs.push_back(ExactSpec(pair.query.View(), 5));
  }
  std::vector<engine::QueryReport> batch = ServeBatch(service, specs);
  ASSERT_EQ(batch.size(), specs.size());

  for (size_t i = 0; i < specs.size(); ++i) {
    engine::QueryReport one = service.RunOne(specs[i]);
    ASSERT_EQ(batch[i].results.size(), one.results.size()) << "query " << i;
    EXPECT_EQ(batch[i].filter_used, one.filter_used) << "query " << i;
    EXPECT_EQ(batch[i].trajectories_scanned, one.trajectories_scanned);
    for (size_t j = 0; j < one.results.size(); ++j) {
      EXPECT_EQ(batch[i].results[j].trajectory_id,
                one.results[j].trajectory_id);
      EXPECT_EQ(batch[i].results[j].range, one.results[j].range);
      // Bit-identical distances: the batch path must not change the math.
      EXPECT_EQ(batch[i].results[j].distance, one.results[j].distance);
    }
  }
}

TEST(QueryServiceTest, ExplicitFilterOverridesThePlanner) {
  QueryService service = MakeService(2);
  const auto& db = service.engine().database();
  engine::QueryReport report = service.RunOne(
      ExactSpec(db[0].View(), 3, engine::PruningFilter::kNone));
  EXPECT_EQ(report.filter_used, engine::PruningFilter::kNone);
  EXPECT_EQ(report.planned_selectivity, -1.0);
  EXPECT_STREQ(report.plan_reason, "explicit filter");
  // No pruning: every trajectory scanned.
  EXPECT_EQ(report.trajectories_scanned,
            static_cast<int64_t>(db.size()));
}

TEST(QueryServiceTest, PlannedQueriesRecordDecisionInReport) {
  QueryService service = MakeService(1);
  engine::QueryReport report =
      service.RunOne(ExactSpec(service.engine().database()[3].View(), 3));
  EXPECT_GE(report.planned_selectivity, 0.0);
  EXPECT_LE(report.planned_selectivity, 1.0);
  EXPECT_STRNE(report.plan_reason, "");
}

TEST(QueryServiceTest, ScratchIsReusedAcrossTheTrajectoriesOfARequest) {
  data::Dataset d = SmallDataset();
  auto workload = data::SampleWorkload(d, 6, 4409);
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 1; return o; }());
  std::vector<QuerySpec> specs;
  for (const auto& pair : workload) {
    specs.push_back(ExactSpec(pair.query.View(), 2));
  }
  ServeBatch(service, specs);
  ServeBatch(service, specs);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches_served, 2);
  EXPECT_EQ(stats.queries_served, 12);
  // One evaluator allocation per request; every further trajectory the
  // request scans Reset()s it.
  EXPECT_EQ(stats.evaluator_allocs, 12);
  EXPECT_GT(stats.evaluator_reuses, stats.evaluator_allocs);
}

TEST(QueryServiceTest, RunOneFromPoolTaskRunsInlineWithItsOwnScratch) {
  // A task on the service's own (width-1) pool calls RunOne: it runs inline
  // on that worker, so nothing waits on work queued behind the caller.
  QueryService service = MakeService(1);
  QuerySpec spec = ExactSpec(service.engine().database()[0].View(), 2);
  ASSERT_TRUE(service.Submit(spec).get().status.ok());
  engine::QueryReport inner;
  service.pool().Submit([&] { inner = service.RunOne(spec); }).get();
  ASSERT_TRUE(inner.status.ok()) << inner.status.ToString();
  EXPECT_FALSE(inner.results.empty());
  // Each request allocates its own DTW evaluator: nothing carries over from
  // the Submit above, even on the same worker.
  EXPECT_EQ(service.stats().evaluator_allocs, 2);
}

TEST(QueryServiceTest, StatsCountPlannerOutcomes) {
  QueryService service = MakeService(1);
  service.RunOne(ExactSpec(service.engine().database()[0].View(), 1));
  service.RunOne(ExactSpec(service.engine().database()[1].View(), 1,
                           engine::PruningFilter::kRTree));
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_served, 2);
  EXPECT_EQ(stats.plans_none + stats.plans_rtree + stats.plans_grid, 2);
  EXPECT_GE(stats.plans_rtree, 1);  // the explicit override counts as rtree
}

TEST(QueryServiceTest, ConcurrentOutcomesObeyTheAccountingLaw) {
  // Several threads send requests through Submit, SubmitBatch and RunOne at
  // once. At quiescence every request is counted exactly once:
  //   queries_served + deadline_expired + cancelled + rejected + failed == N
  constexpr int kThreads = 4;
  QueryService service = MakeService(2);
  const auto& db = service.engine().database();
  const std::atomic<bool> tripped{true};

  // Sends `specs` once through each entry point and waits for every answer:
  // 3 * specs.size() requests and one batch.
  auto send_everywhere = [&service](std::span<const QuerySpec> specs) {
    std::vector<std::future<engine::QueryReport>> futures;
    for (const QuerySpec& spec : specs) futures.push_back(service.Submit(spec));
    for (auto& future : service.SubmitBatch(specs)) {
      futures.push_back(std::move(future));
    }
    for (const QuerySpec& spec : specs) (void)service.RunOne(spec);
    for (auto& future : futures) (void)future.get();
  };
  auto from_threads = [&](auto body) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
    for (auto& thread : threads) thread.join();
  };

  // Failures first, on their own: the submit failpoint fires on the first
  // hits whatever the request, so only requests of one kind may meet it.
  int64_t failed = 0;
  int64_t batches = 0;
  if (util::FailpointsCompiledIn()) {
    failed = 3 * kThreads;
    ASSERT_TRUE(util::SetFailpoint("service.submit",
                                   "error@times:" + std::to_string(failed))
                    .ok());
    from_threads([&](int t) {
      const QuerySpec served = ExactSpec(db[static_cast<size_t>(t)].View(), 2);
      send_everywhere({&served, 1});
    });
    util::ClearFailpoints();
    batches += kThreads;
  }

  // Then every other outcome, interleaved on each thread: two served
  // requests, a rejection (k = 0), a cancellation (pre-tripped flag) and a
  // queue expiry (1e-7 ms truncates to a deadline equal to submit time).
  from_threads([&](int t) {
    std::vector<QuerySpec> mix;
    for (int i = 0; i < 5; ++i) {
      mix.push_back(ExactSpec(db[static_cast<size_t>(t * 5 + i)].View(), 2));
    }
    mix[2].k = 0;
    mix[3].cancel = &tripped;
    mix[4].deadline_ms = 1e-7;
    send_everywhere(mix);
  });
  batches += kThreads;

  const int64_t n = failed + kThreads * 3 * 5;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_served, kThreads * 3 * 2);
  EXPECT_EQ(stats.rejected, kThreads * 3);
  EXPECT_EQ(stats.cancelled, kThreads * 3);
  EXPECT_EQ(stats.deadline_expired, kThreads * 3);
  EXPECT_EQ(stats.failed, failed);
  EXPECT_EQ(stats.queries_served + stats.deadline_expired + stats.cancelled +
                stats.rejected + stats.failed,
            n);
  EXPECT_EQ(stats.batches_served, batches);
  EXPECT_EQ(stats.plans_none + stats.plans_rtree + stats.plans_grid,
            stats.queries_served);
}

TEST(QueryServiceTest, NonFiniteQueryCoordinatesAreInvalidArgument) {
  QueryService service = MakeService(1);
  std::span<const geo::Point> first = service.engine().database()[0].View();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Poison {
    size_t point;
    bool on_x;
    double value;
  };
  for (Poison poison : {Poison{1, true, nan}, Poison{0, false, inf},
                        Poison{1, true, -inf}}) {
    std::vector<geo::Point> points(first.begin(), first.begin() + 2);
    geo::Point& p = points[poison.point];
    (poison.on_x ? p.x : p.y) = poison.value;
    for (std::optional<engine::PruningFilter> filter :
         {std::optional<engine::PruningFilter>(),
          std::optional<engine::PruningFilter>(
              engine::PruningFilter::kInvertedGrid)}) {
      engine::QueryReport report =
          service.RunOne(ExactSpec(points, 3, filter));
      EXPECT_EQ(report.status.code(), util::StatusCode::kInvalidArgument)
          << report.status.ToString();
      EXPECT_TRUE(report.results.empty());
    }
  }
  EXPECT_EQ(service.stats().rejected, 6);
  EXPECT_EQ(service.stats().queries_served, 0);
}

TEST(QueryPlannerTest, WholeExtentQueryScansEverything) {
  data::Dataset d = SmallDataset();
  engine::SimSubEngine engine(std::move(d.trajectories));
  QueryPlanner planner(engine.corpus_stats());

  // A query spanning the full database extent keeps every trajectory: the
  // planner must refuse to pay for a useless filtering pass.
  std::vector<geo::Point> corners = {
      geo::Point(planner.extent().min_x, planner.extent().min_y),
      geo::Point(planner.extent().max_x, planner.extent().max_y)};
  PlanDecision decision = planner.Plan(corners);
  EXPECT_EQ(decision.filter, engine::PruningFilter::kNone);
  EXPECT_GE(decision.estimated_selectivity, 0.8);
}

TEST(QueryPlannerTest, TinyLocalizedQueryUsesTheGridFilter) {
  data::Dataset d = SmallDataset();
  engine::SimSubEngine engine(std::move(d.trajectories));
  QueryPlanner planner(engine.corpus_stats());

  double cx = planner.extent().CenterX();
  double cy = planner.extent().CenterY();
  std::vector<geo::Point> tiny = {geo::Point(cx, cy),
                                  geo::Point(cx + 1.0, cy + 1.0)};
  PlanDecision decision = planner.Plan(tiny);
  if (decision.estimated_selectivity <= 0.35) {
    EXPECT_EQ(decision.filter, engine::PruningFilter::kInvertedGrid);
  } else {
    EXPECT_EQ(decision.filter, engine::PruningFilter::kRTree);
  }
}

TEST(QueryPlannerTest, PlansFromTheCorpusStatsAlone) {
  // No engine: a 100 x 100 extent of point-sized trajectories, so a
  // query box of side s keeps an estimated (s / 100)^2 of the database.
  geo::CorpusStats stats;
  stats.extent.Extend(geo::Point(0.0, 0.0));
  stats.extent.Extend(geo::Point(100.0, 100.0));
  QueryPlanner planner(stats);
  auto plan = [&](double side) {
    std::vector<geo::Point> box = {geo::Point(10.0, 10.0),
                                   geo::Point(10.0 + side, 10.0 + side)};
    return planner.Plan(box);
  };
  EXPECT_EQ(plan(95.0).filter, engine::PruningFilter::kNone);  // 0.9025
  EXPECT_EQ(plan(70.0).filter, engine::PruningFilter::kRTree);  // 0.49
  EXPECT_EQ(plan(50.0).filter, engine::PruningFilter::kInvertedGrid);  // 0.25
  EXPECT_DOUBLE_EQ(plan(50.0).estimated_selectivity, 0.25);
}

TEST(QueryPlannerTest, SelectivityGrowsWithQueryExtent) {
  data::Dataset d = SmallDataset();
  engine::SimSubEngine engine(std::move(d.trajectories));
  QueryPlanner planner(engine.corpus_stats());
  geo::Mbr small_box;
  small_box.Extend(geo::Point(planner.extent().CenterX(),
                              planner.extent().CenterY()));
  small_box.Extend(geo::Point(planner.extent().CenterX() + 10.0,
                              planner.extent().CenterY() + 10.0));
  double small = planner.EstimateMbrSelectivity(small_box);
  double whole = planner.EstimateMbrSelectivity(planner.extent());
  EXPECT_LT(small, whole);
  EXPECT_LE(whole, 1.0);
}

}  // namespace
}  // namespace simsub::service
