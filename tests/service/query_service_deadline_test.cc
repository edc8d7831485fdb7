// End-to-end deadline enforcement (QuerySpec::deadline_ms): a deadline
// expiring MID-EXECUTION stops the scan at per-trajectory granularity and
// returns DeadlineExceeded with partial results; one expiring in the queue
// answers without running; the no-deadline default never pays for a clock
// read it didn't ask for (same results as before the feature); a budget
// past the clock's range means no deadline; and a negative, NaN or
// infinite budget is refused as InvalidArgument.
#include <gtest/gtest.h>

#include <cfloat>
#include <chrono>
#include <future>
#include <limits>
#include <vector>

#include "data/generator.h"
#include "engine/engine.h"
#include "service/query_service.h"
#include "service/query_spec.h"

namespace simsub::service {
namespace {

/// Big enough that an unpruned exhaustive scan takes well over the
/// millisecond-scale deadlines below on any machine.
QueryService MakeService(int threads, int trajectories = 150) {
  data::Dataset d =
      data::GenerateDataset(data::DatasetKind::kPorto, trajectories, 6001);
  ServiceOptions options;
  options.threads = threads;
  return QueryService(engine::SimSubEngine(std::move(d.trajectories)),
                      options);
}

geo::Trajectory SampleQuery() {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 2, 6002);
  return d.trajectories.front();
}

QuerySpec SlowSpec(const geo::Trajectory& query) {
  QuerySpec spec;
  spec.points = query.View();
  spec.measure = "dtw";
  spec.algorithm = "exacts";
  spec.k = 5;
  spec.filter = engine::PruningFilter::kNone;  // full scan, no pruning
  spec.prune = false;
  return spec;
}

TEST(QueryServiceDeadlineTest, ExpiringMidScanReturnsDeadlineExceeded) {
  QueryService service = MakeService(1);
  geo::Trajectory query = SampleQuery();

  QuerySpec spec = SlowSpec(query);
  spec.deadline_ms = 1.0;  // expires mid-scan, far before a full pass
  engine::QueryReport report = service.RunOne(spec);

  EXPECT_EQ(report.status.code(), util::StatusCode::kDeadlineExceeded);
  // The scan STARTED (it was not a queue expiry) but stopped early: fewer
  // trajectories visited than the database holds.
  EXPECT_GT(report.seconds, 0.0);
  EXPECT_LT(report.trajectories_scanned,
            static_cast<int64_t>(service.engine().database().size()));
  EXPECT_EQ(service.stats().deadline_expired, 1);
}

TEST(QueryServiceDeadlineTest, TopkSubHonorsDeadlineMidEnumeration) {
  QueryService service = MakeService(1, 600);
  geo::Trajectory query = SampleQuery();

  QuerySpec spec;
  spec.points = query.View();
  spec.measure = "dtw";
  spec.algorithm = "topk-sub";  // exhaustive subtrajectory enumeration
  spec.k = 5;
  spec.min_size = 2;
  spec.deadline_ms = 1.0;
  engine::QueryReport report = service.RunOne(spec);
  EXPECT_EQ(report.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_LT(report.trajectories_scanned,
            static_cast<int64_t>(service.engine().database().size()));
}

TEST(QueryServiceDeadlineTest, QueueExpiryAnswersWithoutRunning) {
  QueryService service = MakeService(/*threads=*/1);
  geo::Trajectory query = SampleQuery();

  // The single worker is held by a slow no-deadline query; the next
  // request's 1 ms budget burns entirely in the dispatch queue.
  std::future<engine::QueryReport> hostage =
      service.Submit(SlowSpec(query));
  QuerySpec expiring = SlowSpec(query);
  expiring.deadline_ms = 1.0;
  std::future<engine::QueryReport> doomed = service.Submit(expiring);

  engine::QueryReport report = doomed.get();
  EXPECT_EQ(report.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(report.trajectories_scanned, 0);
  EXPECT_TRUE(report.results.empty());
  EXPECT_GT(report.queue_seconds, 0.0);

  EXPECT_TRUE(hostage.get().status.ok());
}

TEST(QueryServiceDeadlineTest, GenerousDeadlineCompletesIdentically) {
  QueryService service = MakeService(2, 40);
  geo::Trajectory query = SampleQuery();

  QuerySpec unlimited;
  unlimited.points = query.View();
  unlimited.k = 5;
  engine::QueryReport baseline = service.RunOne(unlimited);
  ASSERT_TRUE(baseline.status.ok());

  // A minute, then budgets past the clock's range, which mean no deadline.
  for (double deadline_ms : {60'000.0, 1e13, 1e300, DBL_MAX}) {
    SCOPED_TRACE(deadline_ms);
    QuerySpec bounded = unlimited;
    bounded.deadline_ms = deadline_ms;
    engine::QueryReport timed = service.RunOne(bounded);
    ASSERT_TRUE(timed.status.ok()) << timed.status.ToString();

    ASSERT_EQ(timed.results.size(), baseline.results.size());
    for (size_t i = 0; i < baseline.results.size(); ++i) {
      EXPECT_EQ(timed.results[i].trajectory_id,
                baseline.results[i].trajectory_id);
      EXPECT_EQ(timed.results[i].range, baseline.results[i].range);
      EXPECT_EQ(timed.results[i].distance, baseline.results[i].distance);
    }
  }
}

TEST(QueryServiceDeadlineTest, NegativeDeadlineIsInvalidArgument) {
  QueryService service = MakeService(2, 20);
  geo::Trajectory query = SampleQuery();
  QuerySpec spec;
  spec.points = query.View();
  const double inf = std::numeric_limits<double>::infinity();
  for (double deadline_ms :
       {-5.0, std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    SCOPED_TRACE(deadline_ms);
    spec.deadline_ms = deadline_ms;
    engine::QueryReport report = service.RunOne(spec);
    EXPECT_EQ(report.status.code(), util::StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(service.stats().rejected, 4);
}

}  // namespace
}  // namespace simsub::service
