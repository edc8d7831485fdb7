// The socket front end over service::QueryService: a TCP server speaking
// the length-prefixed frame protocol of net/wire.h, with the admission
// control a shared deployment needs — a bounded in-flight window that
// load-sheds instead of queueing without limit, per-client token-bucket
// quotas, a connection cap, graceful drain, and a /statz-style stats dump.
//
// Threading: all parallelism runs on util::ThreadPool (project invariant).
// One single-worker pool runs the accept loop; a second pool of
// `max_connections` workers runs one handler task per live connection.
// Handlers are synchronous request/response: read a frame, answer it,
// repeat — so a connection has at most one query in flight and blocking on
// the service future is safe (server pools are disjoint from the service's
// worker pool). Every blocking point polls with a short timeout so Stop()
// and Drain() take effect within ~one poll interval.
//
// Admission control, in the order a query meets it:
//   1. connection cap  — accepts over `max_connections` are answered with
//      an ERROR frame (ResourceExhausted) and closed immediately;
//   2. per-client quota — token bucket keyed by the client_id in the QUERY
//      frame; an empty bucket answers a REPORT with status
//      ResourceExhausted without touching the service;
//   3. in-flight window — at most `max_inflight` queries submitted to the
//      service at once; past it the query is shed the same way. This is
//      the bound on the service's dispatch queue: under overload, queueing
//      time stays capped at roughly (max_inflight / throughput), which is
//      what keeps served-query tail latency flat while sheds absorb the
//      excess (the open-loop bench measures exactly this).
//
// The deadline contract composes: a shed request never reaches the
// service, an admitted one carries spec.deadline_ms, which the service
// enforces in queue and mid-scan (engine::QueryOptions::deadline).
#ifndef SIMSUB_NET_SERVER_H_
#define SIMSUB_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "service/query_service.h"
#include "util/counter.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace simsub::net {

struct ServerOptions {
  /// Bind address; the default serves loopback only (the safe default for
  /// a bench/test server — widen to "0.0.0.0" deliberately).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port, readable via port() after
  /// Start().
  int port = 0;
  /// Live-connection cap == width of the handler pool (one worker per
  /// connection; a free worker is guaranteed for every accepted socket).
  int max_connections = 32;
  /// In-flight query window; 0 derives 2x the service's worker count
  /// (one running + one queued per worker — enough to keep workers hot,
  /// small enough that queueing delay stays well under a typical
  /// deadline).
  int max_inflight = 0;
  /// Per-client token bucket: sustained queries/second (0 = quotas off)
  /// and bucket depth (0 = same as the rate, minimum 1).
  double quota_qps = 0.0;
  double quota_burst = 0.0;
};

/// The server's live counters (util::Counter; stats() returns a copy).
struct ServerStats {
  util::Counter connections_accepted;
  /// Accepts refused by the connection cap (ERROR frame + close).
  util::Counter connections_rejected;
  /// QUERY frames answered by the service (any status; an Internal one
  /// when execution threw). Every QUERY frame counts once here, in a shed
  /// counter or in malformed_frames.
  util::Counter queries_answered;
  /// QUERY frames shed by admission control, never reaching the service.
  util::Counter shed_inflight;
  util::Counter shed_quota;
  /// Frames that failed to decode (connection is closed after an ERROR).
  util::Counter malformed_frames;
  util::Counter statz_served;
};

class Server {
 public:
  /// `service` must outlive the server.
  Server(service::QueryService& service, ServerOptions options = {});

  /// Stops and joins (equivalent to Stop()).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and launches the accept loop. Fails with IOError if
  /// the address cannot be bound.
  [[nodiscard]] util::Status Start();

  /// Actual bound port (resolves port 0); valid after a successful
  /// Start().
  int port() const { return port_; }

  /// True between a successful Start() and Stop().
  bool serving() const { return serving_.load(std::memory_order_acquire); }

  /// Graceful drain (the SIGTERM path): close the listener (new
  /// connections are refused immediately, not parked in the backlog), let
  /// every live connection finish its current request, then stop. Returns
  /// true if
  /// all connections closed within `timeout`; false if Stop() had to cut
  /// stragglers off at the poll boundary.
  bool Drain(std::chrono::milliseconds timeout);

  /// Hard stop: closes the listener, signals every handler (they exit at
  /// their next poll tick or response boundary), and joins both pools.
  /// Idempotent.
  void Stop();

  ServerStats stats() const { return stats_; }

  /// The plain-text "name value" stats dump served for kStatz frames:
  /// every ServerStats counter prefixed "server.", every
  /// service::ServiceStats counter prefixed "service.", plus
  /// "server.inflight" and "server.connections" gauges.
  std::string StatzText() const;

 private:
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last{};
  };

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Closes the listening socket exactly once (atomic fd handoff), so
  /// Drain() and Stop() can both reach it without a double close.
  void CloseListener();
  /// Refills and debits `client_id`'s bucket; true admits the query.
  bool AdmitQuota(const std::string& client_id) SIMSUB_EXCLUDES(quota_mu_);
  int ResolvedMaxInflight() const;

  service::QueryService& service_;
  ServerOptions options_;
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> serving_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> active_connections_{0};
  std::atomic<int> inflight_{0};

  mutable util::Mutex quota_mu_;
  std::unordered_map<std::string, Bucket> buckets_
      SIMSUB_GUARDED_BY(quota_mu_);

  std::unique_ptr<util::ThreadPool> accept_pool_;   // width 1
  std::unique_ptr<util::ThreadPool> handler_pool_;  // width max_connections

  ServerStats stats_;
};

}  // namespace simsub::net

#endif  // SIMSUB_NET_SERVER_H_
