#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "net/wire.h"
#include "util/failpoint.h"
#include "util/io.h"

namespace simsub::net {

namespace {

/// Opens and connects one socket to `host:port` with the options' socket
/// settings applied. One attempt, no retry — the caller owns the policy.
util::Result<int> ConnectFd(const std::string& host, int port,
                            const ClientOptions& options) {
  SIMSUB_FAILPOINT("net.client.connect");
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return util::Status::IOError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return util::Status::InvalidArgument("unparseable host address: " + host);
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINTR) {
    // EINTR leaves the connect in progress (POSIX): wait for the socket to
    // become writable and read the real outcome from SO_ERROR instead of
    // surfacing a spurious failure.
    pollfd pfd{fd, POLLOUT, 0};
    int pr;
    do {
      pr = ::poll(&pfd, 1, -1);
    } while (pr < 0 && errno == EINTR);
    int err = 0;
    socklen_t len = sizeof(err);
    if (pr < 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      err = errno;
    }
    if (err == 0) {
      rc = 0;
    } else {
      errno = err;
    }
  }
  if (rc != 0) {
    util::Status status = util::Status::IOError(
        "connect " + host + ":" + std::to_string(port) + ": " +
        std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (options.read_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options.read_timeout_ms / 1000;
    tv.tv_usec = (options.read_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  // Request/response with full frames per write(): disable Nagle so small
  // query frames are not delayed behind the previous response's ACK.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

util::Result<Client> Client::Connect(const std::string& host, int port,
                                     ClientOptions options) {
  auto fd = ConnectFd(host, port, options);
  if (!fd.ok()) return fd.status();
  return Client(*fd, host, port, std::move(options));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      host_(std::move(other.host_)),
      port_(other.port_),
      options_(std::move(other.options_)),
      rng_(other.rng_),
      next_request_id_(other.next_request_id_),
      stats_(other.stats_) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    options_ = std::move(other.options_);
    rng_ = other.rng_;
    next_request_id_ = other.next_request_id_;
    stats_ = other.stats_;
    other.fd_ = -1;
  }
  return *this;
}

void Client::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

util::Status Client::ReconnectOnce() {
  CloseFd();
  auto fd = ConnectFd(host_, port_, options_);
  if (!fd.ok()) {
    ++stats_.connect_failures;
    return fd.status();
  }
  fd_ = *fd;
  ++stats_.reconnects;
  return util::Status::OK();
}

bool Client::BackoffOrGiveUp(
    int* attempt, std::chrono::steady_clock::time_point deadline,
    util::Status* status) {
  if (*attempt >= options_.max_retries) return false;
  ++*attempt;
  // Capped exponential base, then jitter into [base/2, base) so a herd of
  // clients retrying the same outage spreads out.
  double base = static_cast<double>(options_.backoff_initial_ms);
  for (int i = 1; i < *attempt && base < options_.backoff_max_ms; ++i) {
    base *= 2.0;
  }
  base = std::min(base, static_cast<double>(options_.backoff_max_ms));
  const double sleep_ms = base / 2.0 + rng_.Uniform() * base / 2.0;
  const auto wake = std::chrono::steady_clock::now() +
                    std::chrono::duration<double, std::milli>(sleep_ms);
  if (wake >= deadline) {
    *status = util::Status::DeadlineExceeded(
        "retry abandoned, deadline_ms exhausted; last transport error: " +
        status->message());
    return false;
  }
  if (sleep_ms >= 1.0) ::poll(nullptr, 0, static_cast<int>(sleep_ms));
  ++stats_.retries;
  return true;
}

util::Result<engine::QueryReport> Client::Query(
    const service::QuerySpec& spec) {
  const auto deadline = service::DeadlineAfter(
      std::chrono::steady_clock::now(), spec.deadline_ms);
  int attempt = 0;
  for (;;) {
    if (fd_ < 0) {
      util::Status st = ReconnectOnce();
      if (!st.ok()) {
        if (!BackoffOrGiveUp(&attempt, deadline, &st)) return st;
        continue;
      }
    }
    const uint64_t rid = next_request_id_++;
    auto payload = EncodeQuery(spec, options_.client_id, rid);
    if (!payload.ok()) return payload.status();  // caller bug; never retried
    // Client-scoped send site: io.send would also fire in a same-process
    // server's reply path, so chaos tests target this one instead.
    util::Status sent = util::FailpointFire("net.client.send");
    if (sent.ok()) sent = WriteFrame(fd_, FrameType::kQuery, *payload);
    if (!sent.ok()) {
      CloseFd();
      if (!BackoffOrGiveUp(&attempt, deadline, &sent)) return sent;
      continue;
    }
    // Read frames until this attempt's reply; a reply carrying an older
    // attempt's request_id is a stale race, not an answer.
    bool resend = false;
    while (!resend) {
      auto frame = ReadFrame(fd_);
      if (!frame.ok()) {
        util::Status st = frame.status();
        // On a receive timeout the connection is healthy and the server is
        // merely slow — retry on the same connection; the late reply gets
        // discarded by request_id. Anything else poisons the connection.
        if (!util::io::IsSocketTimeout(st)) CloseFd();
        if (!BackoffOrGiveUp(&attempt, deadline, &st)) return st;
        resend = true;
        continue;
      }
      if (!frame->has_value()) {
        util::Status st =
            util::Status::IOError("server closed the connection");
        CloseFd();
        if (!BackoffOrGiveUp(&attempt, deadline, &st)) return st;
        resend = true;
        continue;
      }
      if ((*frame)->type == FrameType::kError) {
        // An explicit refusal from the server (it closes after sending):
        // surface it rather than hammer a server that said no.
        util::Status refused = DecodeError((*frame)->payload);
        CloseFd();
        return refused;
      }
      if ((*frame)->type != FrameType::kReport) {
        CloseFd();
        return util::Status::IOError(
            "expected REPORT frame, got type " +
            std::to_string(static_cast<int>((*frame)->type)));
      }
      uint64_t echoed = 0;
      auto report = DecodeReport((*frame)->payload, &echoed);
      if (!report.ok()) {
        CloseFd();
        return report.status();
      }
      if (echoed != rid) {
        ++stats_.stale_frames_discarded;
        continue;
      }
      return report;
    }
  }
}

util::Result<std::string> Client::Statz() {
  if (fd_ < 0) SIMSUB_RETURN_IF_ERROR(ReconnectOnce());
  SIMSUB_RETURN_IF_ERROR(WriteFrame(fd_, FrameType::kStatz, {}));
  auto frame = ReadFrame(fd_);
  if (!frame.ok()) {
    CloseFd();
    return frame.status();
  }
  if (!frame->has_value()) {
    CloseFd();
    return util::Status::IOError("server closed the connection");
  }
  if ((*frame)->type == FrameType::kError) {
    CloseFd();
    return DecodeError((*frame)->payload);
  }
  if ((*frame)->type != FrameType::kStatzText) {
    CloseFd();
    return util::Status::IOError(
        "expected STATZ_TEXT frame, got type " +
        std::to_string(static_cast<int>((*frame)->type)));
  }
  return std::string(reinterpret_cast<const char*>((*frame)->payload.data()),
                     (*frame)->payload.size());
}

}  // namespace simsub::net
