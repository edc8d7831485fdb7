// Client side of the wire protocol (net/wire.h): a blocking
// request/response connection to a simsub server. One Client is one TCP
// connection with at most one request in flight — share nothing, open one
// Client per thread (the load generator opens one per simulated client).
//
// Self-healing: Query() survives transport failures (dead connection,
// mid-frame truncation, receive timeout) by reconnecting and resending,
// under a bounded retry budget with capped exponential backoff and seeded
// jitter. The retry policy never oversteps the request:
//
//   * a retry never fires past the spec's deadline_ms — the backoff sleep
//     that would cross the deadline returns DeadlineExceeded instead;
//   * server *answers* are never retried: an ERROR frame or a shed REPORT
//     (InvalidArgument, ResourceExhausted, ...) is the server's explicit
//     decision and is surfaced to the caller, since blind retry of a shed
//     amplifies overload;
//   * a transport failure is retried even after the request bytes may have
//     reached the server — queries are idempotent, so resending is safe.
//
// Every attempt carries a fresh wire request_id which the server echoes
// in its REPORT, so a retry racing the late reply of an abandoned attempt
// recognizes and discards the stale frame instead of returning it.
#ifndef SIMSUB_NET_CLIENT_H_
#define SIMSUB_NET_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "service/query_spec.h"
#include "util/random.h"
#include "util/status.h"

namespace simsub::net {

struct ClientOptions {
  /// Identifies this caller to the server's per-client quota buckets;
  /// empty = anonymous (all anonymous callers share one bucket).
  std::string client_id;
  /// Socket receive timeout; bounds how long Query()/Statz() block on a
  /// stuck server. 0 = no timeout.
  int read_timeout_ms = 30'000;
  /// Transport-failure retries per Query() call (0 = fail fast on the
  /// first transport error, the pre-self-healing behavior).
  int max_retries = 3;
  /// Backoff before retry r sleeps in [b/2, b) with
  /// b = min(backoff_max_ms, backoff_initial_ms * 2^(r-1)); the jitter is
  /// drawn from a generator seeded with `backoff_seed` (deterministic
  /// schedules for tests and benches).
  int backoff_initial_ms = 10;
  int backoff_max_ms = 2'000;
  uint64_t backoff_seed = 1;
};

/// Cumulative per-client counters for the self-healing machinery.
struct ClientStats {
  /// Attempts re-sent after a transport failure (each consumed budget).
  int64_t retries = 0;
  /// Successful re-establishments of the connection.
  int64_t reconnects = 0;
  /// Failed connection attempts (initial connect excluded).
  int64_t connect_failures = 0;
  /// Late replies dropped because their request_id was not the current
  /// attempt's.
  int64_t stale_frames_discarded = 0;
};

class Client {
 public:
  /// Connects to `host:port` (dotted-quad host, e.g. "127.0.0.1"). The
  /// initial connect does not retry; Query() heals later failures.
  [[nodiscard]] static util::Result<Client> Connect(const std::string& host,
                                                    int port,
                                                    ClientOptions options = {});

  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one query and blocks for its report, healing transport
  /// failures per ClientOptions. A shed or refused request comes back as
  /// an OK Result whose report.status is non-OK (ResourceExhausted,
  /// DeadlineExceeded, ...); a non-OK Result means the conversation
  /// itself failed beyond the retry budget (or the deadline cut the
  /// budget short: DeadlineExceeded).
  [[nodiscard]] util::Result<engine::QueryReport> Query(
      const service::QuerySpec& spec);

  /// Fetches the server's plain-text stats dump ("name value" lines).
  /// Reconnects if needed but does not retry.
  [[nodiscard]] util::Result<std::string> Statz();

  bool connected() const { return fd_ >= 0; }

  const ClientStats& stats() const { return stats_; }

 private:
  Client(int fd, std::string host, int port, ClientOptions options)
      : fd_(fd),
        host_(std::move(host)),
        port_(port),
        options_(std::move(options)),
        rng_(options_.backoff_seed) {}

  void CloseFd();
  /// One reconnection attempt (no internal retry; counts stats).
  [[nodiscard]] util::Status ReconnectOnce();
  /// Spends one unit of retry budget: sleeps the jittered backoff and
  /// returns true to retry. Returns false — updating `status` to
  /// DeadlineExceeded when the deadline is what stopped it — when the
  /// budget is exhausted or the sleep would cross `deadline`
  /// (time_point::max() = no deadline).
  [[nodiscard]] bool BackoffOrGiveUp(
      int* attempt, std::chrono::steady_clock::time_point deadline,
      util::Status* status);

  int fd_ = -1;
  std::string host_;
  int port_ = 0;
  ClientOptions options_;
  util::Rng rng_;
  uint64_t next_request_id_ = 1;
  ClientStats stats_;
};

}  // namespace simsub::net

#endif  // SIMSUB_NET_CLIENT_H_
