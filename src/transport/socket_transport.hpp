// SocketTransport — the real network implementation of the
// transport::Transport seam: every Message is serialized by
// serial::FrameCodec and crosses a loopback TCP connection as bytes, then
// is decoded and dispatched on the receiving side. This is the first path
// through the stack where the protocol's on-the-wire contract — not just
// its in-memory API — is exercised end to end.
//
// Shape:
//   * each transport owns one listening socket on 127.0.0.1 (port 0 picks
//     an ephemeral port; port() tells you which). An accept thread hands
//     every inbound connection to its own reader thread, which reads
//     frames, decodes them, runs the recipient endpoint's handler inline,
//     and writes the encoded response back on the same connection;
//   * send() is the synchronous exchange: it checks out an idle client
//     connection to the destination (or dials a new one), writes the
//     request frame, and blocks reading the response frame. Nested
//     mid-protocol round trips (a handler send()ing from a reader thread)
//     simply use another connection;
//   * send_async() enqueues onto a small pool of outbound worker threads.
//     A worker takes a *run*: the request at the front of the queue and the
//     ones queued directly behind it for the same recipient, at most 64.
//     It encodes and charges each request as send() does, writes their
//     frames back to back on one connection, and reads the replies in
//     order, completing each request's callback as its reply arrives, in
//     queue order. The server answers a connection's frames in order, so
//     no correlation ids are needed. A run keeps under 64 KiB of request
//     bytes unanswered, less than the socket buffers hold, so neither side
//     can block the other's writes; a larger frame goes out alone. send()
//     is a run of one through the same code. All failures surface through
//     the future/callback, never as a throw — same contract as
//     AsyncTransport, including backpressure: the queue holds at most
//     `max_outbound` pending requests, an overflowing send_async either
//     blocks for space (Block, the default) or fails the future/callback
//     (Reject), and Block never applies on a transport thread (a handler
//     or completion callback fails fast instead of deadlocking the
//     threads that drain the queue). drain() and pending() count a run's
//     requests until its last callback has run;
//   * one retry rule: the server never closes a connection cleanly after
//     reading a request it did not answer, so a clean close where reply k
//     should begin proves request k was never read. Requests k onward are
//     then re-sent on another connection if this one came from the pool or
//     answered an earlier request, and fail with NetworkError otherwise.
//     Any other cut (mid-frame, a reset, an undecodable reply) fails
//     request k and every later one with NetworkError and re-sends none. A
//     fault frame fails only its own request; the connection is then
//     closed, never pooled;
//   * routing: a recipient resolves to (in order) an explicit add_route()
//     address, then the transport's own listener when the endpoint is
//     attached locally. Local recipients are NOT short-circuited
//     in-process — their messages cross the loopback wire like everyone
//     else's, which is what makes single-instance tests exercise the real
//     serialized path;
//   * cost accounting: the same per-link latency/bandwidth model as
//     SimNetwork/AsyncTransport, charged on the virtual clock against
//     wire_size(): the frame this transport writes plus the simulated
//     assembly bytes it carries only as counts, read off the walk that
//     encodes the frame (a message is encoded, then charged, then sent;
//     an unencodable one is never charged). socket_stats() counts the
//     frames alone, as they move through the socket. The requester
//     charges the request, the responder charges the response — on a
//     single instance the totals are identical to SimNetwork's; across
//     instances each transport counts what it transmits. Per-link
//     drop_probability is honoured: a dropped request fails alone before
//     any of its bytes are written, a dropped response answers with an
//     unaddressed fault frame (worded like SimNetwork's drop error) — the
//     server never closes a served request's connection with zero
//     response bytes, which is what the retry rule above rests on.
//
// Endpoint contract (EndpointRegistry's; tests/test_transport.cpp's
// EndpointContract suite): attach() throws on a duplicate name; detach()
// blocks until in-flight executions of that endpoint's handler finish
// (reentrant self-detach returns immediately). Limit: if b's handler
// send()s to a and a's handler detaches b, detach waits forever — a runs
// on another reader thread, and no thread-local check sees across a socket.
//
// Error marshalling: C++ exception objects cannot cross a wire. A handler
// exception or transport-level failure on the responding side comes back
// as a reserved *unaddressed* ErrorReply frame (empty sender/recipient —
// unforgeable, since every real response is addressed by
// address_response()), which the requesting side rethrows as
// NetworkError/TransportError. Peer-level protocol errors are unaffected:
// Peer::handle already returns addressed ErrorReply messages in-band.
//
// Scope: the listener binds 127.0.0.1 only — this transport is the
// loopback/same-host deployment of the stack, not an internet-facing
// server (no TLS, no auth). FrameCodec's strict decoding plus FrameLimits
// keep a malformed or hostile byte stream from crashing the process: a
// connection that sends garbage gets a fault frame and is closed.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "serial/frame_codec.hpp"
#include "transport/endpoint_registry.hpp"
#include "transport/link_cost_model.hpp"
#include "transport/message.hpp"
#include "transport/peer_quota.hpp"
#include "transport/transport.hpp"
#include "util/atomic_counter.hpp"
#include "util/sim_clock.hpp"
#include "util/string_util.hpp"

namespace pti::transport {

struct SocketTransportConfig {
  /// Listening port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Worker threads serving send_async's outbound queue.
  std::size_t async_workers = 2;
  /// Cap on queued (not yet executing) send_async requests — the same
  /// overload protection AsyncTransport's max_inbox provides.
  std::size_t max_outbound = 1024;
  using Overflow = transport::Overflow;
  Overflow overflow = Overflow::Block;
  /// Decode-side caps handed to the FrameCodec.
  serial::FrameLimits frame_limits{};
  /// Client connect attempts per dial: transient failures (ECONNREFUSED —
  /// the listener not accepting yet — and EAGAIN) are retried with capped
  /// exponential backoff + jitter up to this many attempts, then reported
  /// as NetworkError. 1 disables retrying.
  std::uint32_t connect_attempts = 4;
  /// First retry backoff; doubles per attempt up to the cap below (the
  /// drawn jitter adds up to half the current backoff).
  std::uint64_t connect_backoff_initial_us = 1'000;
  std::uint64_t connect_backoff_max_us = 50'000;
};

/// Real-byte traffic counters (framed bytes through the sockets). NetStats
/// charges the same frames plus their simulated assembly bytes, as every
/// transport does, so per exchange the two differ by exactly those bytes.
struct SocketStats {
  util::RelaxedCounter connections_accepted;
  util::RelaxedCounter connections_dialed;
  util::RelaxedCounter connect_retries;  ///< transient-failure redials
  util::RelaxedCounter frames_sent;
  util::RelaxedCounter frames_received;
  util::RelaxedCounter wire_bytes_sent;
  util::RelaxedCounter wire_bytes_received;
};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(SocketTransportConfig config = {});
  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// The port the listener actually bound (resolves ephemeral port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Routes `peer` to a remote transport's listener. Subsequent sends to
  /// `peer` dial 127.0.0.1:`port` instead of this transport's own
  /// listener. Replaces any previous route for the name.
  void add_route(std::string_view peer, std::uint16_t port);

  void attach(std::string_view name, Handler handler) override {
    registry_.attach(name, std::move(handler));
  }
  void detach(std::string_view name) override;
  [[nodiscard]] bool is_attached(std::string_view name) const noexcept override {
    return registry_.is_attached(name);
  }

  Message send(const Message& request) override;

  using Transport::send_async;
  void send_async(Message request, SendCallback on_complete) override;

  void set_default_link(const LinkConfig& config) noexcept override {
    link_model_.set_default_link(config);
  }
  void set_link(std::string_view from, std::string_view to,
                const LinkConfig& config) override {
    link_model_.set_link(from, to, config);
  }

  /// Hostile-peer governance, enforced server-side in serve_request()
  /// before the handler runs; a rejection crosses back as an unforgeable
  /// "resource|" fault frame that the requesting side rethrows as
  /// pti::ResourceExhaustedError. Identity is the decoded frame's
  /// declarative sender field (authentication is the ROADMAP's TLS item).
  void set_default_peer_quota(const PeerQuotaConfig& config) override {
    quotas_.set_default(config);
  }
  void set_peer_quota(std::string_view peer, const PeerQuotaConfig& config) override {
    quotas_.set_quota(peer, config);
  }
  [[nodiscard]] PeerQuotaTable* peer_quotas() noexcept override { return &quotas_; }

  [[nodiscard]] const NetStats& stats() const noexcept override { return stats_; }
  void reset_stats() noexcept override { stats_.reset(); }
  [[nodiscard]] util::SimClock& clock() noexcept override { return clock_; }

  [[nodiscard]] const SocketStats& socket_stats() const noexcept { return socket_stats_; }

  /// Blocks until the outbound queue is empty and no handler is executing
  /// — the quiescent point for reading stats/delivered snapshots. Senders
  /// must have stopped submitting for this to terminate.
  void drain();

  /// Outbound queued + executing handler count right now (diagnostic).
  [[nodiscard]] std::size_t pending() const;

 private:
  /// Resolves the destination listener port for a recipient name; throws
  /// NetworkError when the name has no route and is not attached locally.
  [[nodiscard]] std::uint16_t resolve_port(const std::string& recipient) const;

  /// Charges one traversal (stats + virtual clock) of a message whose
  /// encode() measured `size`; false when the per-link drop probability
  /// fired.
  bool charge(const Message& message, const serial::FrameCodec::Size& size) {
    return link_model_.charge(message, size.total, stats_, clock_);
  }

  /// Exchanges a run of requests to one recipient over one connection:
  /// each is encoded and charged, the frames go out back to back, and
  /// `done(i, response, error)` runs once per request, in run order, as its
  /// reply arrives. send() is a run of one. Never throws.
  template <class Done>
  void exchange_run(std::span<const Message* const> run, Done&& done);

  /// Server side of one decoded request: dispatch + respond. Always
  /// returns a non-empty encoded frame — a dropped or unencodable
  /// response becomes a fault frame. Never close a served request's
  /// connection with zero response bytes: the client's retry rule treats
  /// a clean close where a reply should begin as proof that the request
  /// was never read.
  [[nodiscard]] std::vector<std::uint8_t> serve_request(Message request);

  [[nodiscard]] int dial(std::uint16_t dest_port);
  /// Pops an idle pooled connection (sets `pooled`) or dials a fresh one.
  [[nodiscard]] int checkout_connection(std::uint16_t dest_port, bool& pooled);
  void return_connection(std::uint16_t dest_port, int fd);

  void accept_loop();
  void connection_loop(int fd);
  void outbound_worker_loop();
  /// Joins reader threads whose connection already closed (called from
  /// the accept loop so long-lived transports don't accumulate one
  /// finished thread per past connection).
  void reap_finished_connections();

  SocketTransportConfig config_;
  serial::FrameCodec codec_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;

  EndpointRegistry registry_;

  mutable std::shared_mutex routes_mutex_;  ///< guards routes_
  std::map<std::string, std::uint16_t, util::ICaseLess> routes_;

  mutable std::mutex pool_mutex_;  ///< guards idle_connections_
  std::unordered_map<std::uint16_t, std::vector<int>> idle_connections_;

  mutable std::mutex outbound_mutex_;  ///< guards outbound_/outbound workers
  std::condition_variable outbound_cv_;
  std::deque<PendingSend> outbound_;
  std::size_t outbound_executing_ = 0;  ///< requests of the runs in flight

  /// One inbound connection: its fd (-1 once the reader closed it, which
  /// also marks the thread reapable) and the reader thread serving it.
  struct ServerConnection {
    int fd = -1;
    std::thread reader;
  };
  mutable std::mutex conn_mutex_;  ///< guards connections_
  std::vector<ServerConnection> connections_;

  LinkCostModel link_model_;
  PeerQuotaTable quotas_;
  NetStats stats_;
  SocketStats socket_stats_;
  std::atomic<std::uint64_t> dial_rng_;  ///< backoff-jitter SplitMix stream
  util::SimClock clock_;
  std::atomic<bool> shutdown_{false};

  std::thread accept_thread_;
  std::vector<std::thread> outbound_workers_;
};

}  // namespace pti::transport
