// Server admission control and lifecycle (net/server.h): the in-flight
// window sheds with ResourceExhausted while a slow query is executing,
// per-client quotas bucket by client_id (at least one token deep), sheds
// are surfaced without a client retry, the connection cap answers an
// ERROR and closes, malformed frames are counted and refused, drain
// finishes in-flight work then stops accepting, and a wire deadline_ms
// outside the clock's range gets a typed answer.
#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "data/generator.h"
#include "net/client.h"
#include "net/wire.h"
#include "service/query_service.h"
#include "service/query_spec.h"
#include "util/thread_pool.h"

namespace simsub::net {
namespace {

using namespace std::chrono_literals;

/// A service whose queries take real time: exhaustive search, no pruning
/// filter, so one slow query reliably occupies the single worker while the
/// test probes the admission path.
service::QueryService MakeSlowService(int threads, int trajectories = 120) {
  data::Dataset d =
      data::GenerateDataset(data::DatasetKind::kPorto, trajectories, 7001);
  service::ServiceOptions options;
  options.threads = threads;
  return service::QueryService(
      engine::SimSubEngine(std::move(d.trajectories)), options);
}

/// An expensive spec: full scan + exact search over the whole query.
service::QuerySpec SlowSpec(const geo::Trajectory& query) {
  service::QuerySpec spec;
  spec.points = query.View();
  spec.measure = "dtw";
  spec.algorithm = "exacts";
  spec.k = 5;
  spec.filter = engine::PruningFilter::kNone;
  spec.prune = false;
  return spec;
}

geo::Trajectory SampleQuery(uint64_t seed = 7002) {
  data::Dataset d = data::GenerateDataset(data::DatasetKind::kPorto, 2, seed);
  return d.trajectories.front();
}

TEST(ServerTest, ShedsWithResourceExhaustedWhenInflightWindowIsFull) {
  service::QueryService service = MakeSlowService(/*threads=*/1);
  geo::Trajectory query = SampleQuery();

  ServerOptions options;
  options.max_inflight = 1;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  // Client A occupies the whole window with one slow query from a helper
  // thread; Query() blocks until the report comes back.
  std::atomic<bool> a_ok{false};
  util::ThreadPool pool(1);
  auto a_done = pool.Submit([&] {
    auto a = Client::Connect("127.0.0.1", server.port(), {.client_id = "a"});
    ASSERT_TRUE(a.ok());
    auto report = a->Query(SlowSpec(query));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    a_ok.store(report->status.ok());
  });

  // Wait until A's query is inside the window (visible in the statz
  // gauge), so B's arrival deterministically overflows it.
  auto b = Client::Connect("127.0.0.1", server.port(), {.client_id = "b"});
  ASSERT_TRUE(b.ok());
  bool saw_inflight = false;
  for (int i = 0; i < 400 && !saw_inflight; ++i) {
    auto statz = b->Statz();
    ASSERT_TRUE(statz.ok());
    saw_inflight = statz->find("server.inflight 1") != std::string::npos;
    if (!saw_inflight) ::usleep(5'000);
  }
  ASSERT_TRUE(saw_inflight) << "client A's query never reached the window";

  auto shed = b->Query(SlowSpec(query));
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed->results.empty());

  a_done.get();
  EXPECT_TRUE(a_ok.load()) << "the admitted query must still complete OK";

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_inflight, 1);
  EXPECT_EQ(stats.queries_answered, 1);
  server.Stop();
}

TEST(ServerTest, QuotaBucketsAreKeyedByClientId) {
  service::QueryService service = MakeSlowService(/*threads=*/2, 40);
  geo::Trajectory query = SampleQuery();

  ServerOptions options;
  options.quota_qps = 0.001;  // effectively: burst tokens only
  options.quota_burst = 1.0;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  service::QuerySpec spec;
  spec.points = query.View();
  spec.k = 3;

  auto a = Client::Connect("127.0.0.1", server.port(), {.client_id = "a"});
  ASSERT_TRUE(a.ok());
  auto first = a->Query(spec);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->status.ok());

  auto second = a->Query(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status.code(), util::StatusCode::kResourceExhausted);
  // A shed is the server's answer: the client surfaces it, never retries.
  EXPECT_EQ(a->stats().retries, 0);

  // A different client_id draws from its own bucket.
  auto other = Client::Connect("127.0.0.1", server.port(), {.client_id = "z"});
  ASSERT_TRUE(other.ok());
  auto fresh = other->Query(spec);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->status.ok());

  EXPECT_EQ(server.stats().shed_quota, 1);
  server.Stop();
}

TEST(ServerTest, FractionalQuotaBurstStillAdmitsOneQuery) {
  // A bucket shallower than one token could never admit anything; the
  // depth is floored at one, so the first query is served.
  service::QueryService service = MakeSlowService(/*threads=*/2, 40);
  geo::Trajectory query = SampleQuery();

  ServerOptions options;
  options.quota_qps = 0.001;
  options.quota_burst = 0.5;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  service::QuerySpec spec;
  spec.points = query.View();
  spec.k = 3;

  auto client =
      Client::Connect("127.0.0.1", server.port(), {.client_id = "a"});
  ASSERT_TRUE(client.ok());
  auto first = client->Query(spec);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->status.ok()) << first->status.ToString();

  auto second = client->Query(spec);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->status.code(), util::StatusCode::kResourceExhausted);

  EXPECT_EQ(server.stats().shed_quota, 1);
  server.Stop();
}

TEST(ServerTest, ConnectionCapAnswersErrorAndCloses) {
  service::QueryService service = MakeSlowService(/*threads=*/2, 40);
  geo::Trajectory query = SampleQuery();

  ServerOptions options;
  options.max_connections = 1;
  Server server(service, options);
  ASSERT_TRUE(server.Start().ok());

  auto first = Client::Connect("127.0.0.1", server.port(), {});
  ASSERT_TRUE(first.ok());
  service::QuerySpec spec;
  spec.points = query.View();
  spec.k = 3;
  auto report = first->Query(spec);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->status.ok());

  // The second connection is refused while the first is still live: its
  // conversation fails (ERROR frame, then close).
  auto second = Client::Connect("127.0.0.1", server.port(), {});
  ASSERT_TRUE(second.ok());  // TCP connects; refusal is at the frame layer
  auto refused = second->Query(spec);
  EXPECT_FALSE(refused.ok());

  // Wait out the accept loop's poll tick to observe the rejection counter.
  bool rejected = false;
  for (int i = 0; i < 200 && !rejected; ++i) {
    rejected = server.stats().connections_rejected == 1;
    if (!rejected) ::usleep(5'000);
  }
  EXPECT_TRUE(rejected);
  server.Stop();
}

TEST(ServerTest, MalformedQueryFrameIsCountedAndRefused) {
  service::QueryService service = MakeSlowService(/*threads=*/2, 40);
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  std::vector<uint8_t> junk = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(WriteFrame(fd, FrameType::kQuery, junk).ok());
  auto reply = ReadFrame(fd);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_TRUE(reply->has_value());
  EXPECT_EQ((*reply)->type, FrameType::kError);
  EXPECT_FALSE(DecodeError((*reply)->payload).ok());

  // The server closes the connection after the ERROR frame.
  auto eof = ReadFrame(fd);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
  ::close(fd);

  EXPECT_EQ(server.stats().malformed_frames, 1);
  server.Stop();
}

TEST(ServerTest, DrainFinishesInflightWorkAndStopsAccepting) {
  service::QueryService service = MakeSlowService(/*threads=*/1);
  geo::Trajectory query = SampleQuery();
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());

  // One slow query in flight while the drain begins.
  std::atomic<bool> served_ok{false};
  util::ThreadPool pool(1);
  auto done = pool.Submit([&] {
    auto c = Client::Connect("127.0.0.1", server.port(), {});
    ASSERT_TRUE(c.ok());
    auto report = c->Query(SlowSpec(query));
    served_ok.store(report.ok() && report->status.ok());
  });

  // Give the query a moment to reach the server before draining.
  bool inflight = false;
  for (int i = 0; i < 400 && !inflight; ++i) {
    inflight =
        server.StatzText().find("server.inflight 1") != std::string::npos;
    if (!inflight) ::usleep(5'000);
  }
  ASSERT_TRUE(inflight);

  EXPECT_TRUE(server.Drain(10s));
  done.get();
  EXPECT_TRUE(served_ok.load())
      << "a query in flight when drain starts must still be answered";
  EXPECT_FALSE(server.serving());

  // New connections are refused after the drain.
  auto late = Client::Connect("127.0.0.1", server.port(), {});
  if (late.ok()) {
    service::QuerySpec spec;
    spec.points = query.View();
    EXPECT_FALSE(late->Query(spec).ok());
  }
}

TEST(ServerTest, WireDeadlineOutsideTheClockRangeIsTyped) {
  // deadline_ms crosses the wire as a raw double: a budget past the clock's
  // range is served with no deadline, and NaN is refused with a typed
  // report instead of being served or cast to an integer.
  service::QueryService service = MakeSlowService(/*threads=*/2, 40);
  geo::Trajectory query = SampleQuery();
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port(), {});
  ASSERT_TRUE(client.ok());
  service::QuerySpec spec;
  spec.points = query.View();
  spec.k = 3;

  spec.deadline_ms = 1e300;
  auto far = client->Query(spec);
  ASSERT_TRUE(far.ok()) << far.status().ToString();
  EXPECT_TRUE(far->status.ok()) << far->status.ToString();
  EXPECT_FALSE(far->results.empty());

  spec.deadline_ms = std::numeric_limits<double>::quiet_NaN();
  auto nan = client->Query(spec);
  ASSERT_TRUE(nan.ok()) << nan.status().ToString();
  EXPECT_EQ(nan->status.code(), util::StatusCode::kInvalidArgument);
  server.Stop();
}

std::string StatzLine(const char* name, int64_t value) {
  return std::string(name) + " " + std::to_string(value);
}

TEST(ServerTest, StatzTextCarriesServerAndServiceCounters) {
  service::QueryService service = MakeSlowService(/*threads=*/2, 40);
  geo::Trajectory query = SampleQuery();
  Server server(service, {});
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect("127.0.0.1", server.port(), {});
  ASSERT_TRUE(client.ok());
  service::QuerySpec spec;
  spec.points = query.View();
  spec.k = 3;
  auto planned = client->Query(spec);
  ASSERT_TRUE(planned.ok() && planned->status.ok());
  spec.filter = engine::PruningFilter::kRTree;
  auto rtree = client->Query(spec);
  ASSERT_TRUE(rtree.ok() && rtree->status.ok());
  spec.k = 0;
  auto rejected = client->Query(spec);
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status.code(), util::StatusCode::kInvalidArgument);
  ASSERT_TRUE(client->Statz().ok());

  // Quiescent now: the client holds its connection open and nothing is in
  // flight, so the dump must match the stats() structs line for line.
  const std::string text = server.StatzText();
  const ServerStats s = server.stats();
  const service::ServiceStats v = service.stats();
  const std::vector<std::string> expected = {
      StatzLine("server.connections_accepted", s.connections_accepted),
      StatzLine("server.connections_rejected", s.connections_rejected),
      StatzLine("server.queries_answered", s.queries_answered),
      StatzLine("server.shed_inflight", s.shed_inflight),
      StatzLine("server.shed_quota", s.shed_quota),
      StatzLine("server.malformed_frames", s.malformed_frames),
      StatzLine("server.statz_served", s.statz_served),
      StatzLine("server.inflight", 0),
      StatzLine("server.connections", 1),
      StatzLine("service.queries_served", v.queries_served),
      StatzLine("service.batches_served", v.batches_served),
      StatzLine("service.deadline_expired", v.deadline_expired),
      StatzLine("service.cancelled", v.cancelled),
      StatzLine("service.rejected", v.rejected),
      StatzLine("service.failed", v.failed),
      StatzLine("service.spec_cache_hits", v.spec_cache_hits),
      StatzLine("service.spec_cache_misses", v.spec_cache_misses),
      StatzLine("service.evaluator_reuses", v.evaluator_reuses),
      StatzLine("service.evaluator_allocs", v.evaluator_allocs),
      StatzLine("service.plans_none", v.plans_none),
      StatzLine("service.plans_rtree", v.plans_rtree),
      StatzLine("service.plans_grid", v.plans_grid),
      StatzLine("service.lb_skipped", v.lb_skipped),
      StatzLine("service.dp_abandoned", v.dp_abandoned),
  };
  std::vector<std::string> lines;
  for (size_t begin = 0; begin < text.size();) {
    size_t end = text.find('\n', begin);
    ASSERT_NE(end, std::string::npos) << "unterminated line in\n" << text;
    lines.push_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  EXPECT_EQ(lines, expected);

  // The structs themselves saw the traffic above.
  EXPECT_EQ(s.connections_accepted, 1);
  EXPECT_EQ(s.queries_answered, 3);
  EXPECT_EQ(s.statz_served, 1);
  EXPECT_EQ(v.queries_served, 2);
  EXPECT_EQ(v.rejected, 1);
  EXPECT_EQ(v.plans_none + v.plans_rtree + v.plans_grid, 2);
  EXPECT_GE(v.plans_rtree, 1);
  EXPECT_GE(v.evaluator_allocs, 2);
  server.Stop();
}

}  // namespace
}  // namespace simsub::net
