#include "transport/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
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
#include "util/hash.hpp"

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
/// constructible FrameLimits — the invariant the client's retry rule rests
/// on.
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

/// The error a fault frame carries, classified by its reason prefix so the
/// requesting side rethrows what the serving side raised.
[[nodiscard]] std::exception_ptr fault_error(const ErrorReply& fault) {
  const std::string& reason = fault.message;
  if (reason.starts_with(kNetworkFault)) {
    return std::make_exception_ptr(NetworkError(reason.substr(kNetworkFault.size())));
  }
  if (reason.starts_with(kTransportFault)) {
    return std::make_exception_ptr(TransportError(reason.substr(kTransportFault.size())));
  }
  if (reason.starts_with(kResourceFault)) {
    // Quota rejection on the serving side: re-raise with the same
    // classification (core::ErrorCode::ResourceExhausted) the in-process
    // transports throw, so callers branch identically on any transport.
    return std::make_exception_ptr(
        pti::ResourceExhaustedError(reason.substr(kResourceFault.size())));
  }
  return std::make_exception_ptr(TransportError(reason));
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

/// Requests in one run; also the most frames one write_frames() call takes.
constexpr std::size_t kMaxRun = 64;

/// Request bytes a run may have on the wire unanswered. The server answers a
/// connection's requests in order and may block writing a reply until this
/// side reads it. Unanswered requests that fit in the kernel's socket buffers
/// (128 KiB of receive buffer alone by default on Linux) let every write
/// finish without the server reading, so the two sides never wait on each
/// other. A larger frame is written only when nothing is unanswered.
constexpr std::size_t kMaxUnansweredBytes = 64 * 1024;

/// Listen backlog of the accept socket.
constexpr int kListenBacklog = 64;

/// Writes the frames back to back straight from their buffers (one sendmsg
/// while the kernel takes them all) and returns how many were written whole:
/// all of them unless the connection failed. MSG_NOSIGNAL keeps a closed peer
/// from raising SIGPIPE (the failure surfaces as a short count instead).
[[nodiscard]] std::size_t write_frames(int fd, std::span<iovec> frames) noexcept {
  std::size_t whole = 0;
  while (whole < frames.size()) {
    msghdr message{};
    message.msg_iov = frames.data() + whole;
    message.msg_iovlen = frames.size() - whole;
    const ssize_t r = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    for (auto left = static_cast<std::size_t>(r); left > 0;) {
      iovec& front = frames[whole];
      const std::size_t step = std::min(left, front.iov_len);
      front.iov_base = static_cast<std::uint8_t*>(front.iov_base) + step;
      front.iov_len -= step;
      left -= step;
      if (front.iov_len == 0) ++whole;
    }
  }
  return whole;
}

[[nodiscard]] bool write_all(int fd, std::span<const std::uint8_t> bytes) noexcept {
  iovec frame{const_cast<std::uint8_t*>(bytes.data()), bytes.size()};
  return write_frames(fd, {&frame, 1}) == 1;
}

/// Closes a connection on every exit path unless it was handed back to the
/// pool.
struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  int release() noexcept { return std::exchange(fd, -1); }
};

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
      // Decorrelated from the drop stream so enabling backoff jitter never
      // perturbs which messages a drop_probability test kills.
      dial_rng_(LinkCostModel::kSeed ^ 0x9E3779B97F4A7C15ULL) {
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
      ::listen(listen_fd_, kListenBacklog) != 0) {
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
    const std::uint64_t z = util::mix64(
        dial_rng_.fetch_add(0x9E3779B97F4A7C15ULL, std::memory_order_relaxed) +
        0x9E3779B97F4A7C15ULL);
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

// One exchange path serves send() (a run of one) and the outbound workers'
// runs. The server reads a connection's frames in order and answers each one
// before reading the next, so a run's frames may go out back to back and its
// replies come back in run order, with no correlation ids.
template <class Done>
void SocketTransport::exchange_run(std::span<const Message* const> run, Done&& done) {
  const std::size_t n = run.size();
  std::size_t next = 0;  // the requests before `next` are complete
  const auto fail_rest = [&](const auto& error_for) {
    for (; next < n; ++next) done(next, Message{}, error_for(*run[next]));
  };
  try {
    if (shutdown_.load(std::memory_order_acquire)) {
      throw TransportError("transport is shutting down");
    }
    // Epoch pin for the whole run: the link-cost model and routing read
    // interned names lock-free, and a ResourceGovernor may be sweeping
    // concurrently (see util/epoch.hpp).
    const util::EpochManager::Pin pin(util::EpochManager::global());
    const std::uint16_t dest_port = resolve_port(run.front()->recipient);

    // Each request is encoded, then charged the size encode() measured on
    // its way. One that cannot be encoded or that the link model drops
    // fails alone, before any of its bytes move.
    struct Frame {
      std::vector<std::uint8_t> bytes;
      std::exception_ptr early;  ///< set when the request never goes out
    };
    std::vector<Frame> frames(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Message& request = *run[i];
      serial::FrameCodec::Size size;
      try {
        frames[i].bytes = codec_.encode(request, &size);
        if (!charge(request, size)) {
          frames[i].early =
              std::make_exception_ptr(NetworkError(drop_reason(request, Leg::Request)));
        }
      } catch (const serial::FrameError& e) {
        // The seam's throw set is NetworkError/TransportError: a request
        // over FrameLimits must not leak FrameError.
        frames[i].early = std::make_exception_ptr(TransportError(
            "request " + std::string(request.kind_name()) + " is not encodable: " + e.what()));
      }
    }
    const auto cut = [&](std::string_view what) {
      fail_rest([&](const Message& request) {
        return std::make_exception_ptr(
            NetworkError("connection to 127.0.0.1:" + std::to_string(dest_port) + " " +
                         std::string(what) + " " + request.kind_name()));
      });
    };

    // The retry rule. The server answers every request it reads (a served,
    // dropped or faulting request gets at least a fault frame) and aborts
    // with RST a connection it cannot answer on, so a clean close where
    // reply k should begin proves it never read request k. Requests k on
    // are then re-sent on another connection if this one made progress (it
    // came from the finite pool, or answered an earlier request), and fail
    // otherwise. Any other cut gives no such proof, since the server may
    // have run a handler: it fails request k and every later one.
    FdGuard connection;
    bool progress = false;       // a clean close here licenses a re-send
    bool in_sync = true;         // no fault frame: the stream may be pooled
    std::size_t written = 0;     // requests before it are on this connection
    std::size_t unanswered = 0;  // their bytes the replies have not covered
    bool write_failed = false;
    while (next < n) {
      if (frames[next].early) {
        done(next, Message{}, frames[next].early);
        ++next;
        continue;
      }
      if (connection.fd < 0) {
        connection.fd = checkout_connection(dest_port, progress);
        in_sync = true;
        written = next;
        unanswered = 0;
        write_failed = false;
      }
      // Top up the pipeline: write what follows while the unanswered bytes
      // stay under the bound.
      std::array<iovec, kMaxRun> batch;
      std::array<std::size_t, kMaxRun> batched;  // their run indices
      std::size_t count = 0;
      std::size_t end = written;
      for (; !write_failed && end < n && count < kMaxRun; ++end) {
        std::vector<std::uint8_t>& bytes = frames[end].bytes;
        if (frames[end].early) continue;
        if (unanswered > 0 && unanswered + bytes.size() > kMaxUnansweredBytes) break;
        unanswered += bytes.size();
        batched[count] = end;
        batch[count++] = iovec{bytes.data(), bytes.size()};
      }
      if (count > 0) {
        const std::size_t whole = write_frames(connection.fd, {batch.data(), count});
        socket_stats_.frames_sent += whole;
        for (std::size_t b = 0; b < whole; ++b) {
          socket_stats_.wire_bytes_sent += frames[batched[b]].bytes.size();
        }
        write_failed = whole < count;
        written = write_failed ? batched[whole] : end;
      }

      // A frame that was not written whole was never read: a clean close.
      Message response;
      ReadStatus status = ReadStatus::Eof;
      if (next < written) {
        try {
          status = read_frame(connection.fd, codec_, socket_stats_, response);
        } catch (const serial::FrameError& e) {
          // The peer is not speaking our protocol (version skew, corruption).
          cut(std::string("gave an undecodable response (") + e.what() + ") to");
          return;
        }
      }
      if (status == ReadStatus::Eof && progress) {
        ::close(connection.release());  // re-send from `next`
        continue;
      }
      if (next >= written) {
        cut("failed while sending");
        return;
      }
      if (status != ReadStatus::Ok) {
        cut(status == ReadStatus::Eof ? "closed before the response to"
                                      : "was cut inside the response to");
        return;
      }
      progress = true;
      unanswered -= frames[next].bytes.size();
      if (is_fault(response)) {
        // A fault answers its own request alone. The server keeps serving
        // after a handler fault and closes after a frame fault, so reading
        // on is safe, but the stream may be out of step: never pool it.
        in_sync = false;
        done(next, Message{}, fault_error(std::get<ErrorReply>(response.payload)));
      } else {
        done(next, std::move(response), nullptr);
      }
      ++next;
    }
    if (connection.fd >= 0 && in_sync) return_connection(dest_port, connection.release());
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    fail_rest([&](const Message&) { return error; });
  }
}

Message SocketTransport::send(const Message& request) {
  Message response;
  std::exception_ptr error;
  const Message* const run[] = {&request};
  exchange_run(run, [&](std::size_t, Message reply, std::exception_ptr failure) {
    response = std::move(reply);
    error = std::move(failure);
  });
  if (error) std::rethrow_exception(error);
  return response;
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
    // exchange_run's retry rule re-sends exactly in that case.
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
  // because the client's retry rule reads a clean FIN where a reply should
  // begin as proof the request was never read.
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
        (void)write_all(fd, fault);
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
      // so a zero-byte clean close would wrongly license the peer's retry
      // rule into re-executing it.
      bool fault_written = false;
      try {
        const std::vector<std::uint8_t> fault =
            encode_fault(codec_, kTransportFault, "request handling failed");
        ++socket_stats_.frames_sent;
        socket_stats_.wire_bytes_sent += fault.size();
        fault_written = write_all(fd, fault);
      } catch (...) {
      }
      served_without_reply = !fault_written;
      break;
    }
    ++socket_stats_.frames_sent;
    socket_stats_.wire_bytes_sent += response.size();
    if (!write_all(fd, response)) {
      // The handler ran but its reply could not be written (e.g. resource
      // pressure, not just a vanished client): never let this look like a
      // clean never-served close.
      served_without_reply = true;
      break;
    }
  }
  if (served_without_reply) {
    // Linger-zero close sends RST: the client observes an abort, which its
    // retry rule never re-sends, instead of a clean FIN.
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
  std::vector<PendingSend> run;
  std::array<const Message*, kMaxRun> requests{};
  std::unique_lock lock(outbound_mutex_);
  for (;;) {
    outbound_cv_.wait(lock, [&] {
      return shutdown_.load(std::memory_order_acquire) || !outbound_.empty();
    });
    if (shutdown_.load(std::memory_order_acquire)) return;
    // A run: the front request and the ones queued directly behind it for
    // the same recipient.
    const std::size_t cap = std::min(outbound_.size(), kMaxRun);
    std::size_t length = 1;
    while (length < cap &&
           outbound_[length].request.recipient == outbound_.front().request.recipient) {
      ++length;
    }
    const auto taken = outbound_.begin() + static_cast<std::ptrdiff_t>(length);
    run.assign(std::make_move_iterator(outbound_.begin()), std::make_move_iterator(taken));
    outbound_.erase(outbound_.begin(), taken);
    outbound_executing_ += length;
    lock.unlock();
    outbound_cv_.notify_all();  // queue space freed; blocked senders proceed

    for (std::size_t i = 0; i < length; ++i) requests[i] = &run[i].request;
    exchange_run(std::span(requests.data(), length),
                 [&](std::size_t i, Message response, std::exception_ptr error) {
                   run[i].complete(std::move(response), error);
                 });
    run.clear();

    lock.lock();
    outbound_executing_ -= length;
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
