#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "net/wire.h"
#include "util/failpoint.h"
#include "util/io.h"
#include "util/logging.h"

namespace simsub::net {

namespace {

/// Poll granularity for stop/drain checks at every blocking point.
constexpr int kPollIntervalMs = 50;
/// Per-read socket timeout once a frame has started arriving; bounds how
/// long a stalled peer can pin a handler worker.
constexpr int kReadTimeoutMs = 10'000;

/// A shed/refusal/failure answer: a full REPORT frame whose status explains
/// it — clients handle these exactly like any other non-OK report.
engine::QueryReport ShedReport(util::Status status) {
  engine::QueryReport report;
  report.status = std::move(status);
  return report;
}

void AppendLine(std::string& out, const char* name, int64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %lld\n", name,
                static_cast<long long>(value));
  out += buf;
}

}  // namespace

Server::Server(service::QueryService& service, ServerOptions options)
    : service_(service), options_(options) {
  SIMSUB_CHECK_GE(options_.max_connections, 1);
}

Server::~Server() { Stop(); }

int Server::ResolvedMaxInflight() const {
  if (options_.max_inflight > 0) return options_.max_inflight;
  return 2 * service_.pool().size();
}

util::Status Server::Start() {
  SIMSUB_CHECK(!serving_.load(std::memory_order_acquire));
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return util::Status::IOError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("unparseable bind address: " +
                                         options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    util::Status status = util::Status::IOError(
        "bind " + options_.host + ":" + std::to_string(options_.port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    util::Status status =
        util::Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    util::Status status = util::Status::IOError(
        std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  stop_.store(false, std::memory_order_release);
  draining_.store(false, std::memory_order_release);
  accept_pool_ = std::make_unique<util::ThreadPool>(1);
  handler_pool_ =
      std::make_unique<util::ThreadPool>(options_.max_connections);
  serving_.store(true, std::memory_order_release);
  // The future is intentionally dropped: the accept loop runs until Stop()
  // and Stop() joins it through the pool destructor-free WaitAll().
  (void)accept_pool_->Submit([this] { AcceptLoop(); });
  return util::Status::OK();
}

void Server::AcceptLoop() {
  // Safe to read the fd unsynchronized in the loop: Drain() and Stop()
  // both join this loop (WaitAll on the accept pool) before CloseListener.
  const int listen_fd = listen_fd_.load(std::memory_order_acquire);
  while (!stop_.load(std::memory_order_acquire) &&
         !draining_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // listener gone (Stop() closed it)
    }
    if (ready == 0) continue;
    int conn = -1;
#if SIMSUB_FAILPOINTS_COMPILED
    // "net.server.accept": simulate fd exhaustion — the injected failure
    // takes the same transient-backoff path a real ENFILE flood takes,
    // and the un-accepted connection stays in the backlog for the next
    // poll tick.
    if (!util::FailpointFire("net.server.accept").ok()) {
      errno = ENFILE;
    } else
#endif
    {
      conn = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    }
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient resource exhaustion — fd or memory pressure under a
        // connection flood is exactly the overload this server sheds, so
        // it must not kill the accept loop. Back off one poll interval
        // (lets handlers release fds) and keep accepting.
        SIMSUB_LOG(Warning) << "accept: " << std::strerror(errno)
                            << "; backing off " << kPollIntervalMs << "ms";
        ::poll(nullptr, 0, kPollIntervalMs);
        continue;
      }
      break;  // fatal (e.g. EBADF: Stop() closed the listener)
    }
    timeval tv{};
    tv.tv_sec = kReadTimeoutMs / 1000;
    tv.tv_usec = (kReadTimeoutMs % 1000) * 1000;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    // Connection cap: `active_connections_` is incremented here, before
    // the handler task is submitted, so the handler pool (one worker per
    // allowed connection) always has a free worker for an admitted socket
    // and an admitted connection never queues behind another.
    int active = active_connections_.load(std::memory_order_acquire);
    if (active >= options_.max_connections) {
      stats_.connections_rejected.Add();
      std::vector<uint8_t> payload = EncodeError(util::Status::ResourceExhausted(
          "server at max_connections=" +
          std::to_string(options_.max_connections)));
      (void)WriteFrame(conn, FrameType::kError, payload);
      ::close(conn);
      continue;
    }
    active_connections_.fetch_add(1, std::memory_order_acq_rel);
    stats_.connections_accepted.Add();
    (void)handler_pool_->Submit([this, conn] { HandleConnection(conn); });
  }
}

bool Server::AdmitQuota(const std::string& client_id) {
  if (options_.quota_qps <= 0.0) return true;
  const double rate = options_.quota_qps;
  // A depth below one token could never admit a query.
  const double burst = std::max(
      1.0, options_.quota_burst > 0.0 ? options_.quota_burst : rate);
  auto now = std::chrono::steady_clock::now();
  util::MutexLock lock(quota_mu_);
  // Bound the table against client-id churn (each distinct id is an
  // entry): at the cap, forget everyone — honest clients refill to burst
  // immediately, so the reset only forgives, never starves.
  if (buckets_.size() >= 4096 && buckets_.find(client_id) == buckets_.end()) {
    buckets_.clear();
  }
  auto [it, inserted] = buckets_.try_emplace(client_id);
  Bucket& b = it->second;
  if (inserted) {
    b.tokens = burst;
    b.last = now;
  }
  double elapsed = std::chrono::duration<double>(now - b.last).count();
  b.last = now;
  b.tokens = std::min(burst, b.tokens + elapsed * rate);
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

void Server::HandleConnection(int fd) {
  const int max_inflight = ResolvedMaxInflight();
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{fd, POLLIN, 0};
    int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (ready == 0) {
      // Idle tick: a draining server closes idle connections; one with a
      // request mid-flight never reaches this (the response was written
      // before the next poll).
      if (draining_.load(std::memory_order_acquire)) break;
      continue;
    }

    auto frame = ReadFrame(fd);
    if (!frame.ok()) {
      std::vector<uint8_t> payload = EncodeError(frame.status());
      (void)WriteFrame(fd, FrameType::kError, payload);
      break;
    }
    if (!frame->has_value()) break;  // clean peer close

    if ((*frame)->type == FrameType::kStatz) {
      stats_.statz_served.Add();
      std::string text = StatzText();
      std::span<const uint8_t> bytes(
          reinterpret_cast<const uint8_t*>(text.data()), text.size());
      if (!WriteFrame(fd, FrameType::kStatzText, bytes).ok()) break;
      continue;
    }
    if ((*frame)->type != FrameType::kQuery) {
      stats_.malformed_frames.Add();
      std::vector<uint8_t> payload =
          EncodeError(util::Status::InvalidArgument(
              "unexpected frame type " +
              std::to_string(static_cast<int>((*frame)->type))));
      (void)WriteFrame(fd, FrameType::kError, payload);
      break;
    }

    auto query = DecodeQuery((*frame)->payload);
    if (!query.ok()) {
      stats_.malformed_frames.Add();
      std::vector<uint8_t> payload = EncodeError(query.status());
      (void)WriteFrame(fd, FrameType::kError, payload);
      break;
    }

#if SIMSUB_FAILPOINTS_COMPILED
    // "net.server.handle": latency injection between decode and dispatch
    // (a delay policy makes this reply late — the client-side read times
    // out and its retry races the stale reply).
    (void)util::FailpointFire("net.server.handle");
#endif

    engine::QueryReport report;
    if (!AdmitQuota(query->client_id)) {
      stats_.shed_quota.Add();
      report = ShedReport(util::Status::ResourceExhausted(
          "client quota exceeded (" + std::to_string(options_.quota_qps) +
          " qps)"));
    } else if (inflight_.fetch_add(1, std::memory_order_acq_rel) >=
               max_inflight) {
      // In-flight window full: shed instead of queueing. This keeps the
      // service's dispatch queue bounded, which is what holds served-query
      // tail latency flat under overload.
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      stats_.shed_inflight.Add();
      report = ShedReport(util::Status::ResourceExhausted(
          "server overloaded: " + std::to_string(max_inflight) +
          " queries in flight"));
    } else {
      // `query` (the WireQuery) owns the point storage the spec views; it
      // stays on this frame until the future resolves, so the span stays
      // valid for the whole execution.
      std::future<engine::QueryReport> future =
          service_.Submit(std::move(query->spec));
      // An exception from execution still gets an answer, so the window
      // slot, the connection and the accounting law all survive it.
      try {
        report = future.get();
      } catch (const std::exception& e) {
        report = ShedReport(util::Status::Internal(
            std::string("query execution failed: ") + e.what()));
      } catch (...) {
        report = ShedReport(
            util::Status::Internal("query execution failed: unknown error"));
      }
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      stats_.queries_answered.Add();
    }

    // Echo the query's request_id so the client can match this reply to
    // the attempt that sent it (and discard replies to abandoned ones).
    std::vector<uint8_t> payload = EncodeReport(report, query->request_id);
#if SIMSUB_FAILPOINTS_COMPILED
    // "net.server.report.truncate": kill the response write mid-frame —
    // ship the frame header and half the payload, then sever. The client
    // sees a hard mid-frame truncation and must reconnect and retry.
    if (!util::FailpointFire("net.server.report.truncate").ok()) {
      std::vector<uint8_t> half;
      uint32_t len = static_cast<uint32_t>(payload.size());
      for (int i = 0; i < 4; ++i) half.push_back(uint8_t(len >> (8 * i)));
      half.push_back(static_cast<uint8_t>(FrameType::kReport));
      half.insert(half.end(), payload.begin(),
                  payload.begin() + payload.size() / 2);
      (void)util::io::SendAll(fd, half.data(), half.size());
      break;
    }
#endif
    if (!WriteFrame(fd, FrameType::kReport, payload).ok()) break;
    if (draining_.load(std::memory_order_acquire)) break;
  }
  ::close(fd);
  active_connections_.fetch_sub(1, std::memory_order_acq_rel);
}

bool Server::Drain(std::chrono::milliseconds timeout) {
  if (!serving_.load(std::memory_order_acquire)) return true;
  draining_.store(true, std::memory_order_release);
  // Join the accept loop (it exits within one poll tick of draining_),
  // then close the listener right away: new connections get refused
  // immediately instead of completing the handshake into the kernel
  // backlog and hanging there for the whole drain window.
  accept_pool_->WaitAll();
  CloseListener();
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (active_connections_.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ::poll(nullptr, 0, 5);  // short sleep; handlers exit at poll ticks
  }
  bool drained = active_connections_.load(std::memory_order_acquire) == 0;
  Stop();
  return drained;
}

void Server::Stop() {
  if (!serving_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  // Joining through WaitAll (not pool destruction) keeps Stop() callable
  // from multiple threads: the pools stay alive until the destructor.
  accept_pool_->WaitAll();
  handler_pool_->WaitAll();
  CloseListener();
}

void Server::CloseListener() {
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

std::string Server::StatzText() const {
  ServerStats server = stats();
  service::ServiceStats service = service_.stats();
  std::string out;
  out.reserve(1024);
  AppendLine(out, "server.connections_accepted", server.connections_accepted);
  AppendLine(out, "server.connections_rejected", server.connections_rejected);
  AppendLine(out, "server.queries_answered", server.queries_answered);
  AppendLine(out, "server.shed_inflight", server.shed_inflight);
  AppendLine(out, "server.shed_quota", server.shed_quota);
  AppendLine(out, "server.malformed_frames", server.malformed_frames);
  AppendLine(out, "server.statz_served", server.statz_served);
  AppendLine(out, "server.inflight",
             inflight_.load(std::memory_order_relaxed));
  AppendLine(out, "server.connections",
             active_connections_.load(std::memory_order_relaxed));
  AppendLine(out, "service.queries_served", service.queries_served);
  AppendLine(out, "service.batches_served", service.batches_served);
  AppendLine(out, "service.deadline_expired", service.deadline_expired);
  AppendLine(out, "service.cancelled", service.cancelled);
  AppendLine(out, "service.rejected", service.rejected);
  AppendLine(out, "service.failed", service.failed);
  AppendLine(out, "service.spec_cache_hits", service.spec_cache_hits);
  AppendLine(out, "service.spec_cache_misses", service.spec_cache_misses);
  AppendLine(out, "service.evaluator_reuses", service.evaluator_reuses);
  AppendLine(out, "service.evaluator_allocs", service.evaluator_allocs);
  AppendLine(out, "service.plans_none", service.plans_none);
  AppendLine(out, "service.plans_rtree", service.plans_rtree);
  AppendLine(out, "service.plans_grid", service.plans_grid);
  AppendLine(out, "service.lb_skipped", service.lb_skipped);
  AppendLine(out, "service.dp_abandoned", service.dp_abandoned);
  return out;
}

}  // namespace simsub::net
