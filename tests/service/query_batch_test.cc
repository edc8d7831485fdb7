// SubmitBatch (one Submit, so one pool task, per spec) must be
// BIT-IDENTICAL to serving each spec alone through RunOne, and each spec
// must keep its own outcome: one spec's fault, cancellation or expired
// deadline never touches its batchmates. The property test sweeps seeds x
// measures x prune on/off x worker counts, the engine test pins
// SimSubEngine::QueryBatch (one Query per view) to Query, and every
// distance comparison below is an exact double EXPECT_EQ. This is the
// end-to-end determinism contract the CI TSan job and the isa-matrix legs
// both lean on.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <vector>

#include "data/generator.h"
#include "data/workload.h"
#include "engine/engine.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "util/failpoint.h"

namespace simsub::service {
namespace {

void ExpectSameReport(const engine::QueryReport& got,
                      const engine::QueryReport& want, const std::string& tag) {
  EXPECT_EQ(got.status.code(), want.status.code()) << tag;
  EXPECT_EQ(got.filter_used, want.filter_used) << tag;
  ASSERT_EQ(got.results.size(), want.results.size()) << tag;
  for (size_t j = 0; j < want.results.size(); ++j) {
    EXPECT_EQ(got.results[j].trajectory_id, want.results[j].trajectory_id)
        << tag << " entry " << j;
    EXPECT_EQ(got.results[j].range, want.results[j].range)
        << tag << " entry " << j;
    // Bit-identical distances: tiling must not change the math.
    EXPECT_EQ(got.results[j].distance, want.results[j].distance)
        << tag << " entry " << j;
  }
}

TEST(QueryBatchTest, SubmitBatchTilingMatchesRunOneBitwise) {
  for (uint64_t seed : {101u, 202u}) {
    data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 36,
                                            4500 + seed);
    auto workload = data::SampleWorkload(d, 9, 4600 + seed);
    for (int threads : {1, 2, 8}) {
      for (bool prune : {true, false}) {
        ServiceOptions options;
        options.threads = threads;
        data::Dataset copy = d;
        QueryService service(
            engine::SimSubEngine(std::move(copy.trajectories)), options);

        std::vector<QuerySpec> specs;
        for (size_t i = 0; i < workload.size(); ++i) {
          QuerySpec spec;
          spec.points = workload[i].query.View();
          // Alternate measures so the batch mixes resolution groups.
          spec.measure = (i % 2 == 0) ? "dtw" : "frechet";
          spec.algorithm = "exacts";
          spec.k = 4;
          spec.prune = prune;
          specs.push_back(spec);
        }

        auto futures = service.SubmitBatch(specs);
        ASSERT_EQ(futures.size(), specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
          engine::QueryReport got = futures[i].get();
          engine::QueryReport want = service.RunOne(specs[i]);
          ExpectSameReport(got, want,
                           "seed=" + std::to_string(seed) + " threads=" +
                               std::to_string(threads) + " prune=" +
                               std::to_string(prune) + " spec=" +
                               std::to_string(i));
          EXPECT_TRUE(got.status.ok()) << got.status.message();
        }
      }
    }
  }
}

TEST(QueryBatchTest, MixedGroupsAndUnbatchableSpecsAllAnswer) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 30, 4700);
  auto workload = data::SampleWorkload(d, 6, 4701);
  ServiceOptions options;
  options.threads = 4;
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       options);

  // A deliberately heterogeneous batch: two resolution groups ("dtw" /
  // "cdtw"), a topk-sub spec and a random-s spec (both unbatchable), and
  // one invalid spec that must come back rejected without poisoning its
  // tile-mates.
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < workload.size(); ++i) {
    QuerySpec spec;
    spec.points = workload[i].query.View();
    spec.measure = (i % 2 == 0) ? "dtw" : "cdtw";
    spec.k = 3;
    specs.push_back(spec);
  }
  QuerySpec topk;
  topk.points = workload[0].query.View();
  topk.algorithm = "topk-sub";
  topk.k = 3;
  specs.push_back(topk);
  QuerySpec rnd;
  rnd.points = workload[1].query.View();
  rnd.algorithm = "random-s";
  rnd.k = 3;
  specs.push_back(rnd);
  QuerySpec bad;
  bad.points = workload[2].query.View();
  bad.k = 0;  // invalid
  specs.push_back(bad);

  auto futures = service.SubmitBatch(specs);
  ASSERT_EQ(futures.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    engine::QueryReport got = futures[i].get();
    engine::QueryReport want = service.RunOne(specs[i]);
    if (i + 1 == specs.size()) {
      EXPECT_EQ(got.status.code(), util::StatusCode::kInvalidArgument);
    } else {
      EXPECT_TRUE(got.status.ok()) << "spec " << i << ": "
                                   << got.status.message();
    }
    ExpectSameReport(got, want, "spec=" + std::to_string(i));
  }

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batches_served, 1);
  EXPECT_EQ(stats.rejected, 2);  // the bad spec, once per serving path
}

TEST(QueryBatchTest, TileDisabledFallsBackToPerSpecSubmit) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 24, 4800);
  auto workload = data::SampleWorkload(d, 4, 4801);
  ServiceOptions options;
  options.threads = 2;
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       options);
  std::vector<QuerySpec> specs;
  for (const auto& pair : workload) {
    QuerySpec spec;
    spec.points = pair.query.View();
    spec.k = 2;
    specs.push_back(spec);
  }
  auto futures = service.SubmitBatch(specs);
  for (size_t i = 0; i < specs.size(); ++i) {
    engine::QueryReport got = futures[i].get();
    engine::QueryReport want = service.RunOne(specs[i]);
    ExpectSameReport(got, want, "spec=" + std::to_string(i));
  }
}

// Eight same-key specs in one batch on four workers: a one-shot scratch
// fault, a spec cancelled before submission and a spec whose deadline has
// always passed by dequeue each hit their own spec only, and the other five
// answer exactly as RunOne does.
TEST(QueryBatchTest, SubmitBatchIsolatesEachSpecsOutcome) {
  if (!util::FailpointsCompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  util::ClearFailpoints();
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 30, 5000);
  auto workload = data::SampleWorkload(d, 8, 5001);
  ServiceOptions options;
  options.threads = 4;
  QueryService service(engine::SimSubEngine(std::move(d.trajectories)),
                       options);

  std::vector<QuerySpec> specs;
  for (const auto& pair : workload) {
    QuerySpec spec;
    spec.points = pair.query.View();
    spec.k = 3;
    specs.push_back(spec);
  }
  ASSERT_EQ(specs.size(), 8u);
  const std::atomic<bool> cancel{true};
  specs[2].cancel = &cancel;
  // 1e-9 ms casts to 0 ns, so the deadline equals the submit time and has
  // always expired by the time a worker dequeues the spec.
  specs[5].deadline_ms = 1e-9;

  ASSERT_TRUE(util::SetFailpoint("service.scratch", "error@once").ok());
  auto futures = service.SubmitBatch(specs);
  ASSERT_EQ(futures.size(), specs.size());
  std::vector<engine::QueryReport> got;
  for (auto& f : futures) got.push_back(f.get());
  util::ClearFailpoints();
  const ServiceStats stats = service.stats();

  int io_errors = 0;
  int cancelled = 0;
  int expired = 0;
  int served = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const std::string tag = "spec=" + std::to_string(i);
    switch (got[i].status.code()) {
      case util::StatusCode::kIOError:
        ++io_errors;
        EXPECT_NE(got[i].status.message().find("service.scratch"),
                  std::string::npos)
            << tag;
        break;
      case util::StatusCode::kCancelled:
        ++cancelled;
        EXPECT_EQ(i, 2u);
        break;
      case util::StatusCode::kDeadlineExceeded:
        ++expired;
        EXPECT_EQ(i, 5u);
        break;
      case util::StatusCode::kOk:
        ++served;
        ExpectSameReport(got[i], service.RunOne(specs[i]), tag);
        break;
      default:
        ADD_FAILURE() << tag << ": " << got[i].status.ToString();
    }
  }
  EXPECT_EQ(io_errors, 1);
  EXPECT_EQ(cancelled, 1);
  EXPECT_EQ(expired, 1);
  EXPECT_EQ(served, 5);
  EXPECT_EQ(stats.queries_served + stats.deadline_expired + stats.cancelled +
                stats.rejected + stats.failed,
            8);
}

// Direct engine-level property: QueryBatch at several thread counts equals
// Query one at a time, pruned and unpruned.
TEST(QueryBatchTest, EngineQueryBatchMatchesQueryBitwise) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 32, 4900);
  auto workload = data::SampleWorkload(d, 5, 4901);
  engine::SimSubEngine engine(std::move(d.trajectories));
  similarity::MeasureOptions mo;
  auto measure = similarity::MakeMeasure("dtw", mo);
  ASSERT_TRUE(measure.ok());
  algo::SearchOptions ao;
  auto search = algo::MakeSearch("exacts", measure->get(), ao);
  ASSERT_TRUE(search.ok());

  std::vector<engine::BatchedQueryView> views;
  for (size_t i = 0; i < workload.size(); ++i) {
    engine::BatchedQueryView v;
    v.points = workload[i].query.View();
    v.k = 3;
    // Mix filters: the batch must honor per-query candidate sets.
    v.filter = (i % 2 == 0) ? engine::PruningFilter::kNone
                            : engine::PruningFilter::kRTree;
    views.push_back(v);
  }
  for (bool prune : {true, false}) {
    for (int threads : {1, 2, 8}) {
      engine::BatchQueryOptions bo;
      bo.threads = threads;
      bo.prune = prune;
      auto batch = engine.QueryBatch(views, **search, bo);
      ASSERT_EQ(batch.size(), views.size());
      for (size_t i = 0; i < views.size(); ++i) {
        engine::QueryOptions qo;
        qo.k = views[i].k;
        qo.filter = views[i].filter;
        qo.prune = prune;
        engine::QueryReport want =
            engine.Query(views[i].points, **search, qo);
        ExpectSameReport(batch[i], want,
                         "prune=" + std::to_string(prune) + " threads=" +
                             std::to_string(threads) + " q=" +
                             std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace simsub::service
