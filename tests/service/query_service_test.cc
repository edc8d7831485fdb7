// QueryService and QueryPlanner behavior: batch/sequential equivalence,
// planner decisions, explicit overrides, scratch reuse accounting, and
// re-entrant RunOne from a pool task.
#include "service/query_service.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"
#include "service/planner.h"
#include "service/query_spec.h"

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

TEST(QueryServiceTest, BuildsBothIndexes) {
  QueryService service = MakeService(2);
  EXPECT_TRUE(service.engine().has_index());
  EXPECT_TRUE(service.engine().has_inverted_index());
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

TEST(QueryServiceTest, ScratchIsReusedAcrossQueriesAndBatches) {
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
  // One evaluator allocation per worker cache; everything else Reset()s it.
  EXPECT_GT(stats.evaluator_reuses, stats.evaluator_allocs);
}

TEST(QueryServiceTest, RunOneFromPoolTaskRunsInlineOnThatWorkersScratchSlot) {
  // A task on the service's own (width-1) pool calls RunOne: it runs inline
  // on that worker, so nothing waits on work queued behind the caller, and
  // it uses the worker's own scratch slot instead of leasing a cache.
  QueryService service = MakeService(1);
  QuerySpec spec = ExactSpec(service.engine().database()[0].View(), 2);
  ASSERT_TRUE(service.Submit(spec).get().status.ok());
  engine::QueryReport inner;
  service.pool().Submit([&] { inner = service.RunOne(spec); }).get();
  ASSERT_TRUE(inner.status.ok()) << inner.status.ToString();
  EXPECT_FALSE(inner.results.empty());
  // The Submit above left a DTW evaluator in the worker's slot; a leased
  // cache would have allocated a second one.
  EXPECT_EQ(service.stats().evaluator_allocs, 1);
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
  engine.BuildIndex();
  engine.BuildInvertedIndex();
  QueryPlanner planner(engine);

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
  engine.BuildIndex();
  engine.BuildInvertedIndex();
  QueryPlanner planner(engine);

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

TEST(QueryPlannerTest, NoIndexesMeansFullScan) {
  data::Dataset d = SmallDataset();
  engine::SimSubEngine engine(std::move(d.trajectories));
  QueryPlanner planner(engine);
  std::vector<geo::Point> pts = {geo::Point(0, 0), geo::Point(10, 10)};
  PlanDecision decision = planner.Plan(pts);
  EXPECT_EQ(decision.filter, engine::PruningFilter::kNone);
  EXPECT_STREQ(decision.reason, "no index built");
}

TEST(QueryPlannerTest, SelectivityGrowsWithQueryExtent) {
  data::Dataset d = SmallDataset();
  engine::SimSubEngine engine(std::move(d.trajectories));
  QueryPlanner planner(engine);
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
