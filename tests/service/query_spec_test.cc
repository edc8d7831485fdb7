// The declarative QuerySpec serving path: async Submit/SubmitBatch must be
// bit-identical to sequential RunOne per spec — across mixed measures,
// mixed algorithms, and any number of dispatcher threads — and the
// failure modes (expired deadline, cancellation, unknown names, invalid
// parameters) must come back as status-carrying reports, never crashes.
// This file is part of the TSan CI job: the dispatcher-thread and
// stats-during-batch tests double as data-race coverage.
#include "service/query_spec.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"
#include "rl/trainer.h"
#include "service/query_service.h"
#include "similarity/dtw.h"

namespace simsub::service {
namespace {

data::Dataset SmallDataset() {
  return data::GenerateDataset(data::DatasetKind::kPorto, 30, 5501);
}

QueryService MakeService(int threads) {
  data::Dataset d = SmallDataset();
  ServiceOptions options;
  options.threads = threads;
  return QueryService(engine::SimSubEngine(std::move(d.trajectories)),
                      options);
}

/// A batch mixing 4 measures and 4 algorithms (incl. the service-level
/// "topk-sub" mode), with varying k and filter overrides. The workload
/// pairs own the query points and must outlive the specs.
std::vector<QuerySpec> MixedSpecs(const std::vector<data::WorkloadPair>& w) {
  const char* measures[] = {"dtw", "frechet", "edr", "hausdorff"};
  const char* algorithms[] = {"exacts", "pss", "sizes", "topk-sub"};
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < w.size(); ++i) {
    QuerySpec spec;
    spec.points = w[i].query.View();
    spec.measure = measures[i % 4];
    spec.algorithm = algorithms[(i / 2) % 4];
    spec.algorithm_options.sizes_xi = 3;
    spec.k = 3 + static_cast<int>(i % 3);
    spec.min_size = 2;
    if (i % 5 == 0) spec.filter = engine::PruningFilter::kNone;
    specs.push_back(spec);
  }
  return specs;
}

void ExpectReportsIdentical(const engine::QueryReport& a,
                            const engine::QueryReport& b, size_t i) {
  EXPECT_EQ(a.status.code(), b.status.code()) << "spec " << i;
  EXPECT_EQ(a.filter_used, b.filter_used) << "spec " << i;
  EXPECT_EQ(a.trajectories_scanned, b.trajectories_scanned) << "spec " << i;
  EXPECT_EQ(a.lb_skipped, b.lb_skipped) << "spec " << i;
  ASSERT_EQ(a.results.size(), b.results.size()) << "spec " << i;
  for (size_t j = 0; j < a.results.size(); ++j) {
    EXPECT_EQ(a.results[j].trajectory_id, b.results[j].trajectory_id)
        << "spec " << i << " entry " << j;
    EXPECT_EQ(a.results[j].range, b.results[j].range)
        << "spec " << i << " entry " << j;
    // Bit-identical distances: the async path must not change the math.
    EXPECT_EQ(a.results[j].distance, b.results[j].distance)
        << "spec " << i << " entry " << j;
  }
}

TEST(QuerySpecTest, SubmitBatchMatchesSequentialRunOneBitwise) {
  data::Dataset d = SmallDataset();
  auto workload = data::SampleWorkload(d, 12, 5502);
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 4; return o; }());
  std::vector<QuerySpec> specs = MixedSpecs(workload);

  std::vector<engine::QueryReport> sequential;
  for (const QuerySpec& spec : specs) sequential.push_back(service.RunOne(spec));

  auto futures = service.SubmitBatch(specs);
  ASSERT_EQ(futures.size(), specs.size());
  for (size_t i = 0; i < futures.size(); ++i) {
    engine::QueryReport report = futures[i].get();
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_GE(report.queue_seconds, 0.0);
    ExpectReportsIdentical(report, sequential[i], i);
  }
}

TEST(QuerySpecTest, ConcurrentDispatchersStayBitIdentical) {
  data::Dataset d = SmallDataset();
  auto workload = data::SampleWorkload(d, 12, 5503);
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 4; return o; }());
  std::vector<QuerySpec> specs = MixedSpecs(workload);

  std::vector<engine::QueryReport> sequential;
  for (const QuerySpec& spec : specs) sequential.push_back(service.RunOne(spec));

  for (int dispatchers : {1, 2, 8}) {
    std::vector<std::future<engine::QueryReport>> futures(specs.size());
    std::vector<std::thread> threads;
    for (int t = 0; t < dispatchers; ++t) {
      threads.emplace_back([&, t] {
        // Interleaved slices: the dispatchers submit concurrently, and each
        // request runs on a pool worker with its own request-scoped scratch.
        for (size_t i = static_cast<size_t>(t); i < specs.size();
             i += static_cast<size_t>(dispatchers)) {
          futures[i] = service.Submit(specs[i]);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (size_t i = 0; i < specs.size(); ++i) {
      engine::QueryReport report = futures[i].get();
      ASSERT_TRUE(report.status.ok())
          << "dispatchers=" << dispatchers << ": " << report.status.ToString();
      ExpectReportsIdentical(report, sequential[i], i);
    }
  }
}

TEST(QuerySpecTest, ConcurrentRunOneMatchesSubmit) {
  // RunOne from several foreign threads at once: each request runs inline
  // on its caller's thread with its own request-scoped scratch.
  data::Dataset d = SmallDataset();
  auto workload = data::SampleWorkload(d, 8, 5504);
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 2; return o; }());
  std::vector<QuerySpec> specs = MixedSpecs(workload);

  std::vector<engine::QueryReport> sequential;
  for (const QuerySpec& spec : specs) sequential.push_back(service.RunOne(spec));

  std::vector<engine::QueryReport> concurrent(specs.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < specs.size(); ++i) {
    threads.emplace_back(
        [&, i] { concurrent[i] = service.RunOne(specs[i]); });
  }
  for (auto& th : threads) th.join();
  for (size_t i = 0; i < specs.size(); ++i) {
    ExpectReportsIdentical(concurrent[i], sequential[i], i);
  }
}

TEST(QuerySpecTest, ExpiredDeadlineSkipsExecution) {
  QueryService service = MakeService(1);
  const auto& db = service.engine().database();

  // Jam the single worker so the request provably waits in the queue
  // longer than its deadline.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  auto blocker = service.pool().Submit([gate] { gate.wait(); });

  QuerySpec spec;
  spec.points = db[0].View();
  spec.deadline_ms = 0.01;
  auto future = service.Submit(spec);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.set_value();
  blocker.get();

  engine::QueryReport report = future.get();
  EXPECT_EQ(report.status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.trajectories_scanned, 0);
  EXPECT_GT(report.queue_seconds, 0.0);
  EXPECT_EQ(service.stats().deadline_expired, 1);
}

TEST(QuerySpecTest, GenerousDeadlineStillRuns) {
  QueryService service = MakeService(2);
  QuerySpec spec;
  spec.points = service.engine().database()[1].View();
  spec.deadline_ms = 60000.0;
  engine::QueryReport report = service.Submit(spec).get();
  EXPECT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_FALSE(report.results.empty());
}

TEST(QuerySpecTest, CancelledBeforeExecutionNeverRuns) {
  QueryService service = MakeService(1);
  const auto& db = service.engine().database();

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  auto blocker = service.pool().Submit([gate] { gate.wait(); });

  std::atomic<bool> cancel{false};
  QuerySpec spec;
  spec.points = db[0].View();
  spec.cancel = &cancel;
  auto future = service.Submit(spec);
  cancel.store(true);
  release.set_value();
  blocker.get();

  engine::QueryReport report = future.get();
  EXPECT_EQ(report.status.code(), util::StatusCode::kCancelled);
  EXPECT_EQ(report.trajectories_scanned, 0);
  EXPECT_EQ(service.stats().cancelled, 1);
}

TEST(QuerySpecTest, BadSpecsAreRejectedReportsNotCrashes) {
  QueryService service = MakeService(1);
  const auto& db = service.engine().database();

  QuerySpec unknown_measure;
  unknown_measure.points = db[0].View();
  unknown_measure.measure = "bogus";
  EXPECT_EQ(service.RunOne(unknown_measure).status.code(),
            util::StatusCode::kInvalidArgument);

  QuerySpec unknown_algo;
  unknown_algo.points = db[0].View();
  unknown_algo.algorithm = "bogus";
  EXPECT_EQ(service.RunOne(unknown_algo).status.code(),
            util::StatusCode::kInvalidArgument);

  QuerySpec bad_params;
  bad_params.points = db[0].View();
  bad_params.algorithm = "sizes";
  bad_params.algorithm_options.sizes_xi = -1;
  EXPECT_EQ(service.RunOne(bad_params).status.code(),
            util::StatusCode::kInvalidArgument);

  QuerySpec empty_points;
  EXPECT_EQ(service.RunOne(empty_points).status.code(),
            util::StatusCode::kInvalidArgument);

  QuerySpec bad_k;
  bad_k.points = db[0].View();
  bad_k.k = 0;
  EXPECT_EQ(service.RunOne(bad_k).status.code(),
            util::StatusCode::kInvalidArgument);

  // The async path delivers the same rejection through the future.
  engine::QueryReport async_report = service.Submit(unknown_measure).get();
  EXPECT_EQ(async_report.status.code(), util::StatusCode::kInvalidArgument);

  EXPECT_EQ(service.stats().rejected, 6);
  EXPECT_EQ(service.stats().queries_served, 0);
}

TEST(QuerySpecTest, ResolvedSpecsAreCachedPerConfiguration) {
  data::Dataset d = SmallDataset();
  auto workload = data::SampleWorkload(d, 4, 5505);
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 1; return o; }());

  QuerySpec spec;
  spec.points = workload[0].query.View();
  spec.measure = "dtw";
  spec.algorithm = "pss";
  service.RunOne(spec);
  spec.points = workload[1].query.View();  // same configuration, new points
  service.RunOne(spec);
  EXPECT_EQ(service.resolved_cache_size(), 1u);
  EXPECT_EQ(service.stats().spec_cache_hits, 1);
  EXPECT_EQ(service.stats().spec_cache_misses, 1);

  // A different parameterization is a different cache entry.
  spec.measure_options.cdtw_band_fraction = 0.25;
  spec.measure = "cdtw";
  service.RunOne(spec);
  EXPECT_EQ(service.resolved_cache_size(), 2u);
}

TEST(QuerySpecTest, StatsAreReadableDuringARunningBatch) {
  data::Dataset d = SmallDataset();
  auto workload = data::SampleWorkload(d, 10, 5506);
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 2; return o; }());
  std::vector<QuerySpec> specs = MixedSpecs(workload);

  auto futures = service.SubmitBatch(specs);
  // Poll stats while workers are executing: documented safe (every counter
  // is a util::Counter, and each request's scratch is its own); TSan
  // verifies there is no counter race.
  int64_t last_served = 0;
  while (true) {
    ServiceStats stats = service.stats();
    EXPECT_GE(stats.queries_served, last_served);
    last_served = stats.queries_served;
    if (last_served == static_cast<int64_t>(specs.size())) break;
    std::this_thread::yield();
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().status.ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.queries_served, static_cast<int64_t>(specs.size()));
  EXPECT_EQ(stats.batches_served, 1);
}

TEST(QuerySpecTest, ResolvedCacheIsBoundedAgainstKnobSweeps) {
  // Every distinct option value mints its own cache key; a client sweeping
  // a continuous knob must not grow service memory without limit. The sweep
  // also crosses the cache-flush boundary, which frees every cached measure:
  // each result is checked against a cache-free reference so a scratch slot
  // surviving a freed measure (address-reuse ABA) would be caught as a
  // wrong distance, not just a green status.
  QueryService service = MakeService(1);
  QuerySpec spec;
  spec.points = service.engine().database()[0].View().first(3);
  spec.measure = "edr";
  spec.algorithm = "pss";
  spec.k = 1;
  spec.filter = engine::PruningFilter::kNone;
  for (int i = 0; i < static_cast<int>(QueryService::kMaxResolvedSpecs) + 40;
       ++i) {
    spec.measure_options.edr_eps = 10.0 + i;
    engine::QueryReport got = service.RunOne(spec);
    ASSERT_TRUE(got.status.ok()) << got.status.ToString();

    auto measure = similarity::MakeMeasure(spec.measure, spec.measure_options);
    ASSERT_TRUE(measure.ok());
    auto search = algo::MakeSearch(spec.algorithm, measure->get(),
                                   spec.algorithm_options);
    ASSERT_TRUE(search.ok());
    engine::QueryOptions eo;
    eo.k = spec.k;
    eo.filter = engine::PruningFilter::kNone;
    engine::QueryReport want = service.engine().Query(spec.points, **search,
                                                      eo);
    ASSERT_EQ(got.results.size(), want.results.size()) << "eps step " << i;
    for (size_t j = 0; j < want.results.size(); ++j) {
      EXPECT_EQ(got.results[j].trajectory_id, want.results[j].trajectory_id)
          << "eps step " << i;
      EXPECT_EQ(got.results[j].distance, want.results[j].distance)
          << "eps step " << i;
    }
  }
  EXPECT_LE(service.resolved_cache_size(), QueryService::kMaxResolvedSpecs);
  // The sweep kept resolving fresh entries (each eps is a distinct miss).
  EXPECT_EQ(service.stats().spec_cache_hits, 0);
}

TEST(QuerySpecTest, InMemoryRlsPoliciesAreNeverCached) {
  // A raw policy pointer identifies nothing durable (the address can be
  // reused by a different policy after free), so such specs bypass the
  // resolved-spec cache entirely instead of risking a stale hit.
  data::Dataset d = SmallDataset();
  similarity::DtwMeasure dtw;
  rl::RlsTrainOptions train;
  train.episodes = 5;
  train.seed = 5508;
  rl::RlsTrainer trainer(&dtw, train);
  rl::TrainedPolicy policy =
      trainer.Train(d.trajectories, d.trajectories);

  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 1; return o; }());
  QuerySpec spec;
  spec.points = service.engine().database()[0].View();
  spec.algorithm = "rls";
  spec.algorithm_options.rls_policy = &policy;
  spec.k = 2;
  ASSERT_TRUE(service.RunOne(spec).status.ok());
  ASSERT_TRUE(service.RunOne(spec).status.ok());
  EXPECT_EQ(service.resolved_cache_size(), 0u);
  EXPECT_EQ(service.stats().spec_cache_misses, 2);
  EXPECT_EQ(service.stats().spec_cache_hits, 0);
}

TEST(QuerySpecTest, RandomSIsDeterministicPerSpec) {
  // "random-s" gets a fresh deterministically-seeded instance per
  // execution, so even the sampling baseline serves reproducible answers.
  data::Dataset d = SmallDataset();
  auto workload = data::SampleWorkload(d, 2, 5507);
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       []{ ServiceOptions o; o.threads = 2; return o; }());
  QuerySpec spec;
  spec.points = workload[0].query.View();
  spec.algorithm = "random-s";
  spec.algorithm_options.random_s_samples = 50;
  spec.algorithm_options.random_s_seed = 99;

  engine::QueryReport a = service.RunOne(spec);
  engine::QueryReport b = service.Submit(spec).get();
  ExpectReportsIdentical(a, b, 0);
}

}  // namespace
}  // namespace simsub::service
