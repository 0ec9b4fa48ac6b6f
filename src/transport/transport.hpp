// Transport — the abstract message-passing seam between peers.
//
// A Transport routes request/response Message exchanges between named
// endpoints and accounts for their cost. It is the interface every layer
// above src/transport/ programs against: Peer, Remoting and the core
// InteropSystem/InteropRuntime never name a concrete transport, so any
// implementation plugs in underneath the whole stack without touching it.
//
// Three implementations ship with the library:
//   * SimNetwork (sim_network.hpp) — the deterministic single-threaded
//     simulator standing in for the paper's testbed, with fault injection
//     (drop schedules, partitions) for protocol-hardening tests;
//   * AsyncTransport (async_transport.hpp) — a thread-pool-backed
//     transport with per-endpoint inbox queues, non-blocking send_async,
//     backpressure, and the same deterministic virtual-clock cost model;
//   * SocketTransport (socket_transport.hpp) — the real wire: every
//     message is serialized by serial::FrameCodec and crosses loopback
//     TCP as length-prefixed binary frames, with the same cost model.
//
// Every transport charges a message its Message::wire_size(): the frame
// FrameCodec writes for it plus the simulated assembly bytes that frame
// carries only as counts. On SocketTransport those frames are the bytes
// socket_stats() counts.
//
// Endpoint contract (identical for every implementation; EndpointRegistry
// in endpoint_registry.hpp is its one owner for the concurrent transports,
// SimNetwork keeps a single-threaded copy):
//   * attach() registers a handler under a name; attaching a name that is
//     already attached (names fold case) throws TransportError — silent
//     replacement hid misconfigured universes and made detach() ambiguous.
//     The empty name is rejected everywhere: it is reserved by the wire
//     protocol, where an *unaddressed* message (empty sender and
//     recipient) marks a transport-level fault frame that no endpoint may
//     be able to forge.
//   * detach() unregisters the endpoint. It is safe to call while the
//     endpoint's handler is executing — including from inside the handler
//     itself — and after it returns no *new* deliveries to that name
//     begin. A concurrent transport must keep the handler object alive
//     until in-flight executions finish (see AsyncTransport for the
//     blocking guarantees that make destroying the handler's owner safe).
//     Detaching a name that is not attached is a no-op.
//   * Limit: a reentrant detach is recognised on the calling thread only.
//     On SocketTransport a handler that detaches another endpoint whose
//     handler waits on it (b's handler send()s to a, a's handler detaches
//     b) hangs: the wait crosses a socket to another reader thread.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>

#include "transport/message.hpp"
#include "util/atomic_counter.hpp"
#include "util/sim_clock.hpp"

namespace pti::transport {

/// Cost model of one directed link: fixed latency plus bandwidth-
/// proportional transmission time, and an optional loss rate.
struct LinkConfig {
  std::uint64_t latency_ns = 1'000'000;           ///< 1 ms one-way
  double bandwidth_bytes_per_sec = 12'500'000.0;  ///< 100 Mbit/s
  double drop_probability = 0.0;
};

/// Per-peer resource budget — the hostile-peer governance knobs enforced
/// at the transport seam (admission of inbound frames) and at the
/// registry boundary (distinct-name budget). Zero means "unlimited" for
/// every field, so a default-constructed config governs nothing.
///
/// Enforcement points (see PeerQuotaTable in peer_quota.hpp):
///  * max_frame_bytes  — an inbound message whose wire size exceeds this
///    is rejected before its handler runs.
///  * bytes_per_sec / burst_bytes — token bucket over the transport's
///    virtual clock; a frame is admitted only when the peer's accumulated
///    byte allowance covers it. burst_bytes of 0 defaults the bucket
///    depth to one second of rate.
///  * max_inflight     — concurrent exchanges the peer may have executing.
///  * max_new_names    — distinct type names the peer may cause the local
///    SymbolTable/TypeRegistry to intern, cumulatively; the backstop that
///    keeps a name-flooding peer from growing process-lifetime state.
///
/// Every violation surfaces as pti::ResourceExhaustedError, classified
/// core::ErrorCode::ResourceExhausted, and crosses the wire as an
/// unforgeable "resource|" fault frame.
struct PeerQuotaConfig {
  std::uint64_t bytes_per_sec = 0;   ///< token-bucket refill rate (0 = off)
  std::uint64_t burst_bytes = 0;     ///< bucket depth (0 = 1s of rate)
  std::uint32_t max_inflight = 0;    ///< concurrent exchanges (0 = off)
  std::uint64_t max_frame_bytes = 0; ///< per-message wire-size cap (0 = off)
  std::uint64_t max_new_names = 0;   ///< cumulative interned-name budget (0 = off)

  /// True when at least one field actually constrains something.
  [[nodiscard]] bool limits_anything() const noexcept {
    return bytes_per_sec != 0 || max_inflight != 0 || max_frame_bytes != 0 ||
           max_new_names != 0;
  }
};

class PeerQuotaTable;

/// Aggregate traffic counters — the quantity the optimistic protocol is
/// designed to save. Counters are relaxed atomics so concurrent transports
/// can charge them from many threads; cross-field consistency is only
/// guaranteed at quiescent points.
struct NetStats {
  util::RelaxedCounter messages;
  util::RelaxedCounter bytes;
  util::RelaxedCounter drops;

  void reset() noexcept {
    messages = 0;
    bytes = 0;
    drops = 0;
  }
};

class Transport {
 public:
  /// A handler consumes a request and produces the response message.
  using Handler = std::function<Message(const Message&)>;

  /// Completion callback of an asynchronous exchange: exactly one of
  /// `response` (on success) or `error` (the exception the synchronous
  /// send() would have thrown) is meaningful; `error` is null on success.
  using SendCallback = std::function<void(Message response, std::exception_ptr error)>;

  virtual ~Transport() = default;

  /// Registers `handler` as the endpoint reachable under `name`. Throws
  /// TransportError when `name` is already attached (see the endpoint
  /// contract above).
  virtual void attach(std::string_view name, Handler handler) = 0;
  virtual void detach(std::string_view name) = 0;
  [[nodiscard]] virtual bool is_attached(std::string_view name) const noexcept = 0;

  /// Synchronous exchange: delivers the request to the recipient's handler
  /// and returns its response, charging both traversals. Throws
  /// NetworkError on unknown recipients or transmission failure.
  virtual Message send(const Message& request) = 0;

  /// Non-blocking exchange: the returned future is fulfilled with the
  /// response, or with the exception send() would have thrown. The default
  /// implementation wraps the callback form, so a transport with its own
  /// queueing overrides only that.
  [[nodiscard]] virtual std::future<Message> send_async(Message request);

  /// Callback form of send_async. The callback may run on an arbitrary
  /// transport thread (the calling thread under the default fallback) and
  /// must not block it. Exactly one invocation per send. The default
  /// implementation performs the exchange synchronously before returning —
  /// a correct (if unpipelined) fallback that keeps simple transports like
  /// SimNetwork working without their own queueing machinery.
  virtual void send_async(Message request, SendCallback on_complete);

  /// Cost configuration: the default link and per-directed-link overrides.
  virtual void set_default_link(const LinkConfig& config) noexcept = 0;
  virtual void set_link(std::string_view from, std::string_view to,
                        const LinkConfig& config) = 0;

  /// Hostile-peer governance: quota applied to peers without a per-peer
  /// override, and per-peer overrides. The defaults are no-ops so
  /// transports (and test doubles) that do not govern resources need not
  /// care; the three shipped implementations all enforce via a shared
  /// PeerQuotaTable. Peer identity is the declarative `sender` field of
  /// the request — authenticating it is the ROADMAP's TLS/auth item.
  virtual void set_default_peer_quota(const PeerQuotaConfig& config);
  virtual void set_peer_quota(std::string_view peer, const PeerQuotaConfig& config);
  /// The enforcing table, or nullptr when this transport does not govern.
  /// Upper layers (Peer) use it to charge the distinct-name budget at the
  /// registry boundary.
  [[nodiscard]] virtual PeerQuotaTable* peer_quotas() noexcept;

  [[nodiscard]] virtual const NetStats& stats() const noexcept = 0;
  virtual void reset_stats() noexcept = 0;

  /// The clock charged per message traversal. A simulated transport
  /// advances virtual time; a real one would track elapsed wall time.
  [[nodiscard]] virtual util::SimClock& clock() noexcept = 0;
};

/// Factory for the default simulated transport, so transport consumers
/// (the core layer) never name the concrete SimNetwork type.
[[nodiscard]] std::unique_ptr<Transport> make_sim_network(std::uint64_t seed = 42);

/// Shared accounting core of the in-process transports: charges one
/// successful traversal (message count, bytes, latency + transmission
/// time on the virtual clock) per the link's cost model. Keeping this in
/// one place is what keeps SimNetwork's and AsyncTransport's byte counts
/// and clock charges comparable.
void charge_traversal(const LinkConfig& link, std::size_t wire_bytes, NetStats& stats,
                      util::SimClock& clock) noexcept;

/// Addresses `response` back to the requester. The routing is derived
/// from the request — a handler cannot spoof the response's endpoints.
void address_response(const Message& request, Message& response) noexcept;

/// Which traversal of an exchange a message makes.
enum class Leg : std::uint8_t { Request, Response };

/// The reason every transport gives when the link model drops `message`
/// (the text of the NetworkError, or of SocketTransport's fault frame).
[[nodiscard]] std::string drop_reason(const Message& message, Leg leg);

}  // namespace pti::transport
