#include "transport/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>
#include <variant>

#include "transport/transport_error.hpp"
#include "util/epoch.hpp"

namespace pti::transport {

namespace {

/// True on this transport's own threads (reader/outbound workers). A
/// Block-policy send_async from one of them must fail fast on a full
/// queue instead of parking a thread that the queue needs to drain.
thread_local bool tl_transport_thread = false;

/// Fault-frame reason prefixes: the responding side classifies the failure
/// so the requesting side rethrows the right exception type.
constexpr std::string_view kNetworkFault = "network|";
constexpr std::string_view kTransportFault = "transport|";
constexpr std::string_view kResourceFault = "resource|";

/// A transport-level fault travels as an *unaddressed* ErrorReply frame.
/// Real responses are always addressed by address_response(), so an empty
/// sender+recipient cannot be produced by a handler exchange.
[[nodiscard]] bool is_fault(const Message& message) noexcept {
  return message.sender.empty() && message.recipient.empty() &&
         std::holds_alternative<ErrorReply>(message.payload);
}

/// Fault reasons embed strings the remote peer controls (a decoded
/// recipient name, a handler's e.what()), so they are bounded here: an
/// unbounded reason near max_body_bytes would make the fault frame itself
/// throw FrameError{Oversized}, turning a hostile-but-valid request into
/// an exception on the reader thread instead of a reply. The cap leaves
/// 128 bytes of body budget for the prefix, the truncation marker and the
/// frame's own string/length overhead; together with the constructor's
/// kMinBodyBytes floor this makes fault frames encodable under every
/// constructible FrameLimits — the invariant the client's stale-pool
/// retry rests on.
[[nodiscard]] std::vector<std::uint8_t> encode_fault(const serial::FrameCodec& codec,
                                                     std::string_view prefix,
                                                     std::string_view reason) {
  const std::size_t cap =
      std::min<std::size_t>(4096, codec.limits().max_body_bytes - 128);
  std::string text(prefix);
  if (reason.size() > cap) {
    text.append(reason.substr(0, cap));
    text.append("...[truncated]");
  } else {
    text.append(reason);
  }
  Message fault;
  fault.payload = ErrorReply{std::move(text)};
  return codec.encode(fault);
}

[[noreturn]] void raise_fault(const ErrorReply& fault) {
  const std::string& reason = fault.message;
  if (reason.starts_with(kNetworkFault)) {
    throw NetworkError(reason.substr(kNetworkFault.size()));
  }
  if (reason.starts_with(kTransportFault)) {
    throw TransportError(reason.substr(kTransportFault.size()));
  }
  if (reason.starts_with(kResourceFault)) {
    // Quota rejection on the serving side: re-raise with the same
    // classification (core::ErrorCode::ResourceExhausted) the in-process
    // transports throw, so callers branch identically on any transport.
    throw pti::ResourceExhaustedError(reason.substr(kResourceFault.size()));
  }
  throw TransportError(reason);
}

enum class ReadStatus { Ok, Eof, Error };

/// Reads exactly n bytes (retrying partial reads and EINTR). Eof means the
/// peer closed before the first byte; a close mid-buffer reports Error.
ReadStatus read_exact(int fd, std::uint8_t* buffer, std::size_t n,
                      std::size_t* received = nullptr) noexcept {
  std::size_t got = 0;
  ReadStatus status = ReadStatus::Ok;
  while (got < n) {
    const ssize_t r = ::recv(fd, buffer + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    status = (r == 0 && got == 0) ? ReadStatus::Eof : ReadStatus::Error;
    break;
  }
  if (received) *received = got;
  return status;
}

/// Reads a header-declared body in bounded chunks, growing the buffer
/// only as bytes actually arrive — a hostile header cannot commit
/// max_body_bytes of memory up front by declaring a body it never sends.
[[nodiscard]] bool read_body_bytes(int fd, std::vector<std::uint8_t>& body,
                                   std::size_t n, std::size_t& received) {
  constexpr std::size_t kChunk = 256 * 1024;
  body.clear();
  received = 0;
  while (received < n) {
    const std::size_t step = std::min(kChunk, n - received);
    body.resize(received + step);
    std::size_t step_got = 0;
    const ReadStatus status = read_exact(fd, body.data() + received, step, &step_got);
    received += step_got;
    if (status != ReadStatus::Ok) return false;
  }
  return true;
}

/// Reads one whole frame into `out`: the header, then its declared body.
/// Every received byte is counted before decoding, partial reads
/// included: it moved over the wire whether or not it parses, and a
/// hostile stream must not undercount. Eof is a clean close before the
/// first header byte; Error is any other cut. A malformed frame throws
/// serial::FrameError.
[[nodiscard]] ReadStatus read_frame(int fd, const serial::FrameCodec& codec,
                                    SocketStats& stats, Message& out) {
  std::array<std::uint8_t, serial::FrameCodec::kHeaderSize> header_bytes{};
  std::size_t got = 0;
  const ReadStatus status = read_exact(fd, header_bytes.data(), header_bytes.size(), &got);
  stats.wire_bytes_received += got;
  if (status != ReadStatus::Ok) return status;
  const serial::FrameCodec::Header header = codec.decode_header(header_bytes);
  std::vector<std::uint8_t> body;
  const bool body_ok = read_body_bytes(fd, body, header.body_bytes, got);
  stats.wire_bytes_received += got;
  if (!body_ok) return ReadStatus::Error;
  ++stats.frames_received;
  out = codec.decode_body(header, body);
  return ReadStatus::Ok;
}

/// Writes all n bytes; MSG_NOSIGNAL keeps a closed peer from raising
/// SIGPIPE (the failure surfaces as an error return instead).
[[nodiscard]] bool write_all(int fd, const std::uint8_t* buffer, std::size_t n) noexcept {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, buffer + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void set_nodelay(int fd) noexcept {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

[[nodiscard]] sockaddr_in loopback_address(std::uint16_t port) noexcept {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportConfig config)
    : config_(config),
      codec_(config.frame_limits),
      link_model_(config.rng_seed),
      // Decorrelated from the drop stream so enabling backoff jitter never
      // perturbs which messages a drop_probability test kills.
      dial_rng_(config.rng_seed ^ 0x9E3779B97F4A7C15ULL) {
  if (config_.max_outbound == 0) {
    throw TransportError("SocketTransport needs max_outbound >= 1");
  }
  // Fault frames (a prefix + bounded reason) must always be encodable —
  // the protocol never closes a served request's connection with zero
  // response bytes, and a body budget too small to hold a fault would
  // break that. 256 bytes also comfortably fits every fixed-size message.
  static constexpr std::size_t kMinBodyBytes = 256;
  if (config_.frame_limits.max_body_bytes < kMinBodyBytes) {
    throw TransportError("SocketTransport needs frame_limits.max_body_bytes >= " +
                         std::to_string(kMinBodyBytes) +
                         " (fault frames must stay encodable)");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw TransportError(std::string("cannot create listening socket: ") +
                         std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback_address(config_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, config_.backlog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    throw TransportError("cannot listen on 127.0.0.1:" + std::to_string(config_.port) +
                         ": " + reason);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
  const std::size_t workers = std::max<std::size_t>(1, config_.async_workers);
  outbound_workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    outbound_workers_.emplace_back([this] { outbound_worker_loop(); });
  }
}

SocketTransport::~SocketTransport() {
  // 1. Stop the outbound side: raise shutdown *under the queue mutex* (a
  //    worker between its predicate check and blocking would otherwise
  //    miss the notification and sleep forever), wake + join the
  //    workers, then fail whatever they never picked up.
  {
    std::unique_lock lock(outbound_mutex_);
    shutdown_.store(true, std::memory_order_release);
  }
  outbound_cv_.notify_all();
  for (auto& worker : outbound_workers_) worker.join();
  std::deque<PendingSend> orphaned;
  {
    std::unique_lock lock(outbound_mutex_);
    orphaned.swap(outbound_);
  }
  const auto error = std::make_exception_ptr(
      NetworkError("transport destroyed before the message was delivered"));
  for (auto& outbound : orphaned) outbound.complete(Message{}, error);

  // 2. Stop accepting: shutdown() wakes the blocked accept(); the fd is
  //    closed only after the join so the accept thread can never call
  //    accept() on a closed descriptor number that a concurrent dial (or
  //    another transport) may already have reused.
  ::shutdown(listen_fd_, SHUT_RDWR);
  accept_thread_.join();
  ::close(listen_fd_);

  // 3. Kick every live inbound connection so its reader thread unblocks,
  //    then join them (each closes its own fd on the way out).
  {
    std::unique_lock lock(conn_mutex_);
    for (const ServerConnection& connection : connections_) {
      if (connection.fd >= 0) ::shutdown(connection.fd, SHUT_RDWR);
    }
  }
  for (auto& connection : connections_) {
    if (connection.reader.joinable()) connection.reader.join();
  }

  // 4. Drop the idle client connections.
  std::unique_lock lock(pool_mutex_);
  for (auto& [port, fds] : idle_connections_) {
    for (const int fd : fds) ::close(fd);
  }
  idle_connections_.clear();
}

void SocketTransport::add_route(std::string_view peer, std::uint16_t port) {
  std::unique_lock lock(routes_mutex_);
  routes_[std::string(peer)] = port;
}

void SocketTransport::remove_route(std::string_view peer) {
  std::unique_lock lock(routes_mutex_);
  const auto it = routes_.find(peer);
  if (it != routes_.end()) routes_.erase(it);
}

void SocketTransport::detach(std::string_view name) {
  if (const auto endpoint = registry_.unlink(name)) registry_.quiesce(*endpoint);
}

std::uint16_t SocketTransport::resolve_port(const std::string& recipient) const {
  {
    std::shared_lock lock(routes_mutex_);
    const auto it = routes_.find(recipient);
    if (it != routes_.end()) return it->second;
  }
  if (registry_.is_attached(recipient)) return port_;
  throw NetworkError("no peer attached as '" + recipient + "'");
}

int SocketTransport::dial(std::uint16_t dest_port) {
  const std::uint32_t max_attempts = std::max<std::uint32_t>(1, config_.connect_attempts);
  std::uint64_t backoff_us = std::max<std::uint64_t>(1, config_.connect_backoff_initial_us);
  const sockaddr_in addr = loopback_address(dest_port);
  for (std::uint32_t attempt = 1;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      throw NetworkError(std::string("cannot create socket: ") + std::strerror(errno));
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      set_nodelay(fd);
      ++socket_stats_.connections_dialed;
      return fd;
    }
    const int saved_errno = errno;
    const std::string reason = std::strerror(saved_errno);
    ::close(fd);
    // Only transient refusals retry: ECONNREFUSED (listener not accepting
    // yet — e.g. the destination transport is still starting) and EAGAIN
    // (kernel ephemeral-resource pressure). Anything else — unreachable
    // network, bad address — fails the same dial() would have before.
    const bool transient = saved_errno == ECONNREFUSED || saved_errno == EAGAIN;
    if (!transient || attempt >= max_attempts ||
        shutdown_.load(std::memory_order_acquire)) {
      throw NetworkError("cannot connect to 127.0.0.1:" + std::to_string(dest_port) +
                         ": " + reason +
                         (attempt > 1 ? " (after " + std::to_string(attempt) +
                                            " attempts)"
                                      : std::string{}));
    }
    ++socket_stats_.connect_retries;
    // Capped exponential backoff with up to +50% SplitMix jitter, so a
    // herd of clients dialing a restarting server spreads out instead of
    // re-colliding on the same schedule.
    std::uint64_t z = dial_rng_.fetch_add(0x9E3779B97F4A7C15ULL,
                                          std::memory_order_relaxed) +
                      0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    const std::uint64_t jitter_us = backoff_us == 0 ? 0 : z % (backoff_us / 2 + 1);
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us + jitter_us));
    backoff_us = std::min(backoff_us * 2, std::max<std::uint64_t>(
                                              1, config_.connect_backoff_max_us));
  }
}

int SocketTransport::checkout_connection(std::uint16_t dest_port, bool& pooled) {
  {
    std::unique_lock lock(pool_mutex_);
    auto& idle = idle_connections_[dest_port];
    while (!idle.empty()) {
      const int fd = idle.back();
      idle.pop_back();
      // Liveness probe: an idle connection must have nothing to read. EOF
      // or stray bytes mean the server closed (or desynced) it — discard.
      std::uint8_t probe = 0;
      const ssize_t r = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        pooled = true;
        return fd;
      }
      ::close(fd);
    }
  }
  pooled = false;
  return dial(dest_port);
}

void SocketTransport::return_connection(std::uint16_t dest_port, int fd) {
  if (shutdown_.load(std::memory_order_acquire)) {
    ::close(fd);
    return;
  }
  std::unique_lock lock(pool_mutex_);
  idle_connections_[dest_port].push_back(fd);
}

Message SocketTransport::exchange_over_wire(const Message& request,
                                            std::span<const std::uint8_t> frame,
                                            std::uint16_t dest_port) {
  for (;;) {
    bool pooled = false;
    const int fd = checkout_connection(dest_port, pooled);
    struct FdGuard {
      int fd;
      bool armed = true;
      ~FdGuard() {
        if (armed) ::close(fd);
      }
    } guard{fd};

    // A pooled connection can die between checkout's liveness probe and
    // its use here (the server closing it races with checkout). The server
    // never closes a connection with zero response bytes after reading a
    // request (served, dropped and faulting requests all answer with at
    // least a fault frame), so a close before the first response byte
    // proves the request was never served: the stale connection is
    // discarded and the exchange retried on another (the pool is finite;
    // once it drains, checkout dials fresh). Only a failure on a freshly
    // dialed connection — or one mid-response, where a retry could
    // re-execute the handler — is reported.
    if (!write_all(fd, frame.data(), frame.size())) {
      if (pooled) continue;
      throw NetworkError("connection to 127.0.0.1:" + std::to_string(dest_port) +
                         " failed while sending " + request.kind_name());
    }
    ++socket_stats_.frames_sent;
    socket_stats_.wire_bytes_sent += frame.size();

    Message response;
    ReadStatus status = ReadStatus::Error;
    try {
      status = read_frame(fd, codec_, socket_stats_, response);
    } catch (const serial::FrameError& e) {
      // The peer is not speaking our protocol (version skew, corruption):
      // surface it through the documented transport error family instead
      // of leaking serial::FrameError out of send().
      throw NetworkError("undecodable response frame from 127.0.0.1:" +
                         std::to_string(dest_port) + ": " + e.what());
    }
    if (status == ReadStatus::Eof) {
      // Retry only a *clean* zero-byte close (Eof): every deliberate
      // server close after reading a request first writes at least a
      // fault frame, so a clean FIN with no response bytes proves the
      // request was never served. An abort (ECONNRESET and friends) or a
      // cut mid-frame gives no such proof — the server may have died
      // mid-handler — so it is reported, never retried.
      if (pooled) continue;
      throw NetworkError("connection closed before a response to " +
                         std::string(request.kind_name()) +
                         " arrived (response dropped?)");
    }
    if (status != ReadStatus::Ok) {
      throw NetworkError("connection cut before the whole response to " +
                         std::string(request.kind_name()) + " arrived");
    }

    if (is_fault(response)) {
      // Fault frames may follow a desynced stream; never pool the connection.
      raise_fault(std::get<ErrorReply>(response.payload));
    }
    guard.armed = false;
    return_connection(dest_port, fd);
    return response;
  }
}

Message SocketTransport::send(const Message& request) {
  if (shutdown_.load(std::memory_order_acquire)) {
    throw TransportError("transport is shutting down");
  }
  // Epoch pin for the whole exchange: the link-cost model and routing read
  // interned names lock-free, and a ResourceGovernor may be sweeping
  // concurrently (see util/epoch.hpp).
  const util::EpochManager::Pin pin(util::EpochManager::global());
  const std::uint16_t dest_port = resolve_port(request.recipient);
  // The charge reads the size encode() measures on its way: one walk.
  serial::FrameCodec::Size size;
  std::vector<std::uint8_t> frame;
  try {
    frame = codec_.encode(request, &size);
  } catch (const serial::FrameError& e) {
    // The seam's throw set is NetworkError/TransportError; an unencodable
    // request (body or list over FrameLimits) must not leak FrameError
    // out of send(), mirroring the undecodable-response translation in
    // exchange_over_wire.
    throw TransportError("request " + std::string(request.kind_name()) +
                         " is not encodable: " + e.what());
  }
  if (!charge(request, size)) throw NetworkError(drop_reason(request, Leg::Request));
  return exchange_over_wire(request, frame, dest_port);
}

std::vector<std::uint8_t> SocketTransport::serve_request(Message request) {
  // Epoch pin spanning admission + handler: everything this request reads
  // from the lock-free stores stays valid even while a ResourceGovernor
  // sweeps (see util/epoch.hpp).
  const util::EpochManager::Pin pin(util::EpochManager::global());
  // Hostile-peer admission runs before the endpoint lookup and handler: a
  // peer over budget costs this check and one bounded fault frame,
  // nothing more. The in-flight slot is held for the whole service of the
  // request (guard scope spans the handler execution below).
  PeerQuotaTable::InflightGuard inflight;
  if (quotas_.enabled()) {
    try {
      inflight = quotas_.admit(request, clock_.now_ns());
    } catch (const pti::ResourceExhaustedError& e) {
      return encode_fault(codec_, kResourceFault, e.what());
    }
  }
  Message response;
  std::string handler_fault;
  {
    const EndpointRegistry::Execution execution = registry_.begin(request.recipient);
    if (!execution) {
      return encode_fault(codec_, kNetworkFault,
                          "no peer attached as '" + request.recipient + "'");
    }
    try {
      response = execution.handler()(request);
      address_response(request, response);
    } catch (const std::exception& e) {
      handler_fault = "handler for '" + request.recipient + "' failed: " + e.what();
    } catch (...) {
      handler_fault = "handler for '" + request.recipient + "' failed";
    }
  }

  if (!handler_fault.empty()) {
    return encode_fault(codec_, kTransportFault, handler_fault);
  }
  serial::FrameCodec::Size size;
  std::vector<std::uint8_t> frame;
  try {
    frame = codec_.encode(response, &size);
  } catch (const serial::FrameError& e) {
    return encode_fault(codec_, kTransportFault,
                        "response to " + std::string(request.kind_name()) +
                            " is not encodable: " + e.what());
  }
  if (!charge(response, size)) {
    // The modelled response drop answers with an unaddressed fault (the
    // other transports' drop wording) instead of a silent close:
    // "connection closed with zero response bytes" must stay unambiguous
    // proof that the request was never served, because
    // exchange_over_wire's stale-pool retry re-sends exactly in that case.
    return encode_fault(codec_, kNetworkFault, drop_reason(response, Leg::Response));
  }
  return frame;
}

void SocketTransport::reap_finished_connections() {
  // A reader marks its entry fd = -1 (under conn_mutex_) as its very last
  // locked action before returning, so a -1 entry's thread is exiting or
  // gone: joining it outside the lock cannot block on conn_mutex_.
  std::vector<ServerConnection> finished;
  {
    std::unique_lock lock(conn_mutex_);
    auto it = connections_.begin();
    while (it != connections_.end()) {
      if (it->fd < 0) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& connection : finished) {
    if (connection.reader.joinable()) connection.reader.join();
  }
}

void SocketTransport::accept_loop() {
  for (;;) {
    if (shutdown_.load(std::memory_order_acquire)) return;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        // Transient resource pressure must not kill the listener for the
        // transport's whole lifetime; back off briefly and retry.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return;  // listener closed (shutdown) or unrecoverable
    }
    if (shutdown_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    // Reap past connections' reader threads so a long-lived transport
    // serving churning clients doesn't accumulate one finished thread
    // per connection ever accepted.
    reap_finished_connections();
    set_nodelay(fd);
    ++socket_stats_.connections_accepted;
    // Register the entry before the reader runs (it is spawned under the
    // same lock): a short-lived connection must find its own entry to
    // mark reapable, never a later connection that reused the fd number.
    bool spawned = true;
    {
      std::unique_lock lock(conn_mutex_);
      connections_.push_back(ServerConnection{fd, {}});
      try {
        connections_.back().reader = std::thread([this, fd] { connection_loop(fd); });
      } catch (const std::system_error&) {
        // Thread creation failed under the same resource pressure the
        // accept() path above survives — an unhandled throw here would
        // std::terminate the process off the accept thread. Drop this
        // one connection and keep listening.
        connections_.pop_back();
        spawned = false;
      }
    }
    if (!spawned) {
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
}

void SocketTransport::connection_loop(int fd) {
  tl_transport_thread = true;
  // True when a fully-read request got no (complete) reply onto the wire:
  // the close below must then abort (RST) instead of sending a clean FIN,
  // because the client's stale-pool retry reads "clean FIN, zero response
  // bytes" as proof the request was never served.
  bool served_without_reply = false;
  for (;;) {
    Message request;
    try {
      // A clean close between frames, or a cut: either way done.
      if (read_frame(fd, codec_, socket_stats_, request) != ReadStatus::Ok) break;
    } catch (const serial::FrameError& e) {
      // A malformed frame leaves the stream position untrustworthy: report
      // the fault, then close the connection rather than resynchronize.
      try {
        const std::vector<std::uint8_t> fault =
            encode_fault(codec_, kTransportFault, e.what());
        // Counters bump before the write: the requester may act on the
        // response the instant the syscall delivers it, and a post-write
        // bump could lag behind a stats reader on the requesting thread.
        ++socket_stats_.frames_sent;
        socket_stats_.wire_bytes_sent += fault.size();
        (void)write_all(fd, fault.data(), fault.size());
      } catch (...) {
        // Even the fault frame is unencodable (pathologically small
        // FrameLimits): closing the connection is the whole report.
      }
      break;
    }

    std::vector<std::uint8_t> response;
    try {
      response = serve_request(std::move(request));
    } catch (...) {
      // serve_request is total by construction (faults are bounded and
      // handler exceptions are caught inside it), but an escaped exception
      // here would std::terminate the process off this reader thread.
      // Attempt a minimal fault first — the handler may already have run,
      // so a zero-byte clean close would wrongly license the peer's
      // stale-pool retry into re-executing it.
      bool fault_written = false;
      try {
        const std::vector<std::uint8_t> fault =
            encode_fault(codec_, kTransportFault, "request handling failed");
        ++socket_stats_.frames_sent;
        socket_stats_.wire_bytes_sent += fault.size();
        fault_written = write_all(fd, fault.data(), fault.size());
      } catch (...) {
      }
      served_without_reply = !fault_written;
      break;
    }
    ++socket_stats_.frames_sent;
    socket_stats_.wire_bytes_sent += response.size();
    if (!write_all(fd, response.data(), response.size())) {
      // The handler ran but its reply could not be written (e.g. resource
      // pressure, not just a vanished client): never let this look like a
      // clean never-served close.
      served_without_reply = true;
      break;
    }
  }
  if (served_without_reply) {
    // Linger-zero close sends RST: the client observes an abort, which
    // the stale-pool retry is forbidden to retry, instead of a clean FIN.
    const linger hard{.l_onoff = 1, .l_linger = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  }
  std::unique_lock lock(conn_mutex_);
  ::close(fd);
  // Marking fd = -1 is this thread's last locked action: it tells the
  // reaper (and the destructor's shutdown sweep) that the fd is dead and
  // the thread is safe to join.
  for (ServerConnection& connection : connections_) {
    if (connection.fd == fd) {
      connection.fd = -1;
      break;
    }
  }
}

void SocketTransport::send_async(Message request, SendCallback on_complete) {
  if (!on_complete) throw TransportError("send_async requires a completion callback");
  PendingSend outbound{std::move(request), std::move(on_complete)};
  std::exception_ptr failure;
  {
    std::unique_lock lock(outbound_mutex_);
    for (;;) {
      if (shutdown_.load(std::memory_order_acquire)) {
        failure = std::make_exception_ptr(NetworkError("transport is shutting down"));
        break;
      }
      if (outbound_.size() < config_.max_outbound) {
        outbound_.push_back(std::move(outbound));
        // notify_all: the CV is shared with drain() and backpressure
        // waiters, and notify_one could hand the wakeup to a waiter
        // whose predicate is false.
        outbound_cv_.notify_all();
        return;
      }
      if (config_.overflow == Overflow::Reject) {
        failure = std::make_exception_ptr(
            TransportError("backpressure: outbound queue is full (" +
                           std::to_string(config_.max_outbound) + ")"));
        break;
      }
      if (tl_transport_thread) {
        // Block policy, but the caller IS a transport thread (a reader
        // running a handler, or an outbound worker's completion
        // callback): waiting for queue space that only these threads
        // free would deadlock. Fail fast instead.
        failure = std::make_exception_ptr(TransportError(
            "backpressure: outbound queue is full and send_async was called "
            "from a transport thread (blocking here would deadlock)"));
        break;
      }
      outbound_cv_.wait(lock);
    }
  }
  outbound.complete(Message{}, failure);
}

void SocketTransport::outbound_worker_loop() {
  tl_transport_thread = true;
  std::unique_lock lock(outbound_mutex_);
  for (;;) {
    outbound_cv_.wait(lock, [&] {
      return shutdown_.load(std::memory_order_acquire) || !outbound_.empty();
    });
    if (shutdown_.load(std::memory_order_acquire)) return;
    PendingSend outbound = std::move(outbound_.front());
    outbound_.pop_front();
    ++outbound_executing_;
    lock.unlock();
    outbound_cv_.notify_all();  // queue space freed; blocked senders proceed

    Message response;
    std::exception_ptr error;
    try {
      response = send(outbound.request);
    } catch (...) {
      error = std::current_exception();
    }
    outbound.complete(std::move(response), error);

    lock.lock();
    --outbound_executing_;
    if (outbound_.empty() && outbound_executing_ == 0) {
      outbound_cv_.notify_all();  // drain() waiters
    }
  }
}

void SocketTransport::drain() {
  registry_.drain(outbound_mutex_, outbound_cv_,
                  [&] { return outbound_.empty() && outbound_executing_ == 0; });
}

std::size_t SocketTransport::pending() const {
  std::unique_lock lock(outbound_mutex_);
  return outbound_.size() + outbound_executing_ + registry_.executing();
}

}  // namespace pti::transport
