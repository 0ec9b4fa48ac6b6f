// AsyncTransport — the thread-pool-backed implementation of the
// transport::Transport seam (the last single-threaded slice of the stack
// after PR 2 made the stores and PR 3 cut the interface).
//
// Shape:
//   * every attached endpoint owns an inbox queue; send_async() enqueues
//     the request and returns immediately (future or completion-callback);
//     a pool of worker threads drains the inboxes and runs the endpoint
//     handlers, so N peers process inbound traffic concurrently;
//   * send() remains the synchronous exchange: it runs the recipient's
//     handler inline on the calling thread (like SimNetwork), which keeps
//     nested mid-protocol round trips deadlock-free no matter how few
//     workers exist — a handler's sync sends never occupy a pool slot;
//   * backpressure: each inbox holds at most `max_inbox` pending requests;
//     an overflowing send_async either blocks until space frees (Block,
//     the default — flow control) or fails the future/callback with
//     TransportError (Reject). Block never applies to handler context:
//     a send_async issued from inside a handler (or completion callback)
//     fails fast on a full inbox instead of parking the worker on space
//     only workers can free — so handlers may always send_async safely;
//   * cost accounting is the same per-link latency/bandwidth model as
//     SimNetwork, charged on a virtual clock with relaxed atomic advances:
//     the final clock reading and byte counters are the deterministic sum
//     of per-message costs regardless of thread interleaving.
//
// Lifetime rules (see docs/API.md):
//   * attach() throws on a duplicate name; detach() blocks until in-flight
//     executions of that endpoint's handler have finished — so returning
//     from detach() makes destroying the handler's owner (a Peer) safe —
//     unless called from inside that very handler, in which case it only
//     marks the endpoint (no new deliveries) and returns (EndpointRegistry);
//   * a request queued for a detached endpoint fails its future/callback
//     with NetworkError, never reaching a later endpoint of the same name;
//   * destroy the transport only after detaching (or destroying) the
//     peers attached to it; the destructor fails whatever is still queued
//     and joins the workers.
//
// Fault injection stays on SimNetwork: this transport is about real
// concurrency, and probabilistic drops under racing threads would not be
// schedule-deterministic anyway. Per-link drop_probability is honoured
// (each message draws from one shared atomic RNG stream), but tests that
// need a *specific* message killed should use SimNetwork's schedules.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "transport/endpoint_registry.hpp"
#include "transport/link_cost_model.hpp"
#include "transport/message.hpp"
#include "transport/peer_quota.hpp"
#include "transport/transport.hpp"
#include "util/sim_clock.hpp"

namespace pti::transport {

struct AsyncTransportConfig {
  /// Worker threads draining the endpoint inboxes.
  std::size_t workers = 2;
  /// Per-endpoint cap on queued (not yet executing) requests.
  std::size_t max_inbox = 1024;
  using Overflow = transport::Overflow;
  Overflow overflow = Overflow::Block;
};

class AsyncTransport final : public Transport {
 public:
  explicit AsyncTransport(AsyncTransportConfig config = {});
  ~AsyncTransport() override;
  AsyncTransport(const AsyncTransport&) = delete;
  AsyncTransport& operator=(const AsyncTransport&) = delete;

  void attach(std::string_view name, Handler handler) override {
    registry_.attach(name, std::move(handler));
  }
  void detach(std::string_view name) override;
  [[nodiscard]] bool is_attached(std::string_view name) const noexcept override {
    return registry_.is_attached(name);
  }

  Message send(const Message& request) override;

  /// Enqueues into the recipient's inbox and returns immediately; a worker
  /// performs the exchange. All failures — unknown recipient, drop,
  /// rejected backpressure, detach before delivery — surface through the
  /// future/callback, never as a throw from send_async itself.
  using Transport::send_async;
  void send_async(Message request, SendCallback on_complete) override;

  void set_default_link(const LinkConfig& config) noexcept override {
    link_model_.set_default_link(config);
  }
  void set_link(std::string_view from, std::string_view to,
                const LinkConfig& config) override {
    link_model_.set_link(from, to, config);
  }

  /// Hostile-peer governance: enforced in the exchange core, so both the
  /// synchronous path and the worker-drained inboxes reject identically.
  /// Violations surface as pti::ResourceExhaustedError — thrown from
  /// send(), failing the future/callback for send_async().
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

  /// Blocks until every inbox is empty and no handler is executing — the
  /// quiescent point at which reading delivered()/stats() snapshots is
  /// exact. Senders must have stopped submitting for this to terminate.
  void drain();

  /// Queued + executing exchanges right now (diagnostic).
  [[nodiscard]] std::size_t pending() const;

 private:
  using Endpoint = EndpointRegistry::Endpoint;

  /// Charges one traversal (stats + virtual clock); false when dropped.
  bool charge(const Message& message) {
    return link_model_.charge(message, message.wire_size(), stats_, clock_);
  }

  /// The request/response exchange core shared by send() and the workers.
  Message exchange(const Handler& handler, const Message& request);

  void worker_loop();

  AsyncTransportConfig config_;
  EndpointRegistry registry_;

  mutable std::mutex mutex_;  ///< guards inboxes_/ready_/total_queued_/shutdown_
  std::condition_variable work_cv_;   ///< wakes workers
  std::condition_variable state_cv_;  ///< wakes backpressure/drain waiters
  /// Queued requests per endpoint incarnation, present only while
  /// non-empty; each one's ready_ entry keeps its incarnation (the key)
  /// alive.
  std::unordered_map<const Endpoint*, std::deque<PendingSend>> inboxes_;
  std::deque<std::shared_ptr<Endpoint>> ready_;  ///< one entry per queued request
  std::size_t total_queued_ = 0;
  bool shutdown_ = false;

  LinkCostModel link_model_;
  PeerQuotaTable quotas_;
  NetStats stats_;
  util::SimClock clock_;

  std::vector<std::thread> workers_;
};

}  // namespace pti::transport
