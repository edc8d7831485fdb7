// The server answers every admitted query even when executing it throws:
// the exception becomes an Internal REPORT counted as answered, the
// in-flight slot is returned, and the connection keeps serving. Faults come
// from `throw` failpoints on the service's scratch step and inside the
// engine scan (where a helper's exception surfaces too).
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "data/generator.h"
#include "engine/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "util/failpoint.h"

namespace simsub::net {
namespace {

class ServerChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!util::FailpointsCompiledIn()) {
      GTEST_SKIP() << "failpoints compiled out";
    }
    util::ClearFailpoints();
    data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 48, 91);
    query_ = d.trajectories.front();
    service::ServiceOptions service_options;
    service_options.threads = 2;
    service_.emplace(engine::SimSubEngine(std::move(d.trajectories)),
                     service_options);
    // A one-query window: a leaked in-flight slot would shed every later
    // query.
    ServerOptions options;
    options.max_inflight = 1;
    server_.emplace(*service_, options);
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override {
    if (util::FailpointsCompiledIn()) util::ClearFailpoints();
  }

  service::QuerySpec Spec() const {
    service::QuerySpec spec;
    spec.points = query_.View();
    spec.measure = "dtw";
    spec.algorithm = "exacts";
    spec.k = 5;
    spec.prune = false;
    spec.filter = engine::PruningFilter::kNone;
    return spec;
  }

  geo::Trajectory query_;
  std::optional<service::QueryService> service_;
  std::optional<Server> server_;
};

TEST_F(ServerChaosTest, ThrowingExecutionIsAnsweredAndTheWindowRecovers) {
  auto client = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto baseline = client->Query(Spec());
  ASSERT_TRUE(baseline.ok());
  ASSERT_TRUE(baseline->status.ok());

  int queries = 1;
  for (const char* fault :
       {"service.scratch=throw@once", "engine.search=throw@nth:3"}) {
    ASSERT_TRUE(util::ConfigureFailpointsFromSpec(fault).ok());
    auto failed = client->Query(Spec());
    ++queries;
    ASSERT_TRUE(failed.ok()) << fault << ": " << failed.status().ToString();
    EXPECT_EQ(failed->status.code(), util::StatusCode::kInternal) << fault;
    EXPECT_NE(failed->status.message().find("failpoint"), std::string::npos)
        << failed->status.message();
    util::ClearFailpoints();

    // Same connection, window of one: served, not shed.
    for (int i = 0; i < 3; ++i) {
      auto healed = client->Query(Spec());
      ++queries;
      ASSERT_TRUE(healed.ok()) << fault;
      ASSERT_TRUE(healed->status.ok()) << fault << ": "
                                       << healed->status.ToString();
      ASSERT_EQ(healed->results.size(), baseline->results.size());
      for (size_t j = 0; j < baseline->results.size(); ++j) {
        EXPECT_EQ(healed->results[j].trajectory_id,
                  baseline->results[j].trajectory_id);
        EXPECT_EQ(healed->results[j].distance, baseline->results[j].distance);
      }
    }
  }

  // Every QUERY frame counts exactly once: answered + sheds + malformed.
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.queries_answered, queries);
  EXPECT_EQ(stats.shed_inflight, 0);
  EXPECT_EQ(stats.shed_quota, 0);
  EXPECT_EQ(stats.malformed_frames, 0);
  EXPECT_NE(server_->StatzText().find("server.inflight 0\n"),
            std::string::npos);
}

}  // namespace
}  // namespace simsub::net
