// Deterministic in-process network simulator — the single-threaded
// reference implementation of the transport::Transport seam.
//
// Substitutes for the paper's real testbed (two Windows hosts with .NET
// remoting): peers attach under a name; send() routes a message to the
// recipient's handler synchronously (handlers may send nested requests,
// which models the protocol's mid-flight round trips), charging virtual
// latency and bandwidth on a virtual clock and counting every byte — the
// quantity the optimistic protocol is designed to save.
//
// Fault injection: a deterministic per-message drop schedule, an optional
// drop probability (seeded RNG) and directed link partitions let tests
// exercise the protocol's failure paths reproducibly. These controls are
// simulator-specific and intentionally NOT part of the Transport
// interface.
//
// Thread safety: none — SimNetwork is the deterministic single-threaded
// simulator; drive it from one thread. transport::AsyncTransport is the
// concurrent implementation.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "transport/message.hpp"
#include "transport/peer_quota.hpp"
#include "transport/transport.hpp"
#include "transport/transport_error.hpp"
#include "util/interning.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"
#include "util/string_util.hpp"

namespace pti::transport {

class SimNetwork final : public Transport {
 public:
  explicit SimNetwork(std::uint64_t seed = 42) : rng_(seed) {}

  void attach(std::string_view name, Handler handler) override;
  void detach(std::string_view name) override;
  [[nodiscard]] bool is_attached(std::string_view name) const noexcept override;

  /// Synchronous exchange: admits the request against the sender's quota,
  /// charges it, dispatches to the recipient, charges the response,
  /// returns it. Throws NetworkError on unknown recipients or injected
  /// drops and pti::ResourceExhaustedError on quota rejection.
  Message send(const Message& request) override;

  /// Hostile-peer governance (shared PeerQuotaTable semantics).
  void set_default_peer_quota(const PeerQuotaConfig& config) override {
    quotas_.set_default(config);
  }
  void set_peer_quota(std::string_view peer, const PeerQuotaConfig& config) override {
    quotas_.set_quota(peer, config);
  }
  [[nodiscard]] PeerQuotaTable* peer_quotas() noexcept override { return &quotas_; }

  void set_default_link(const LinkConfig& config) noexcept override {
    default_link_ = config;
  }
  /// Per-directed-link override ("from->to").
  void set_link(std::string_view from, std::string_view to,
                const LinkConfig& config) override;

  /// Deterministically drops the next `count` messages entering the network.
  void inject_drop_next(std::size_t count = 1) noexcept { forced_drops_ += count; }

  /// Schedules the nth message from now (1-based) to be dropped — lets
  /// tests kill a specific protocol step (e.g. the TypeInfoRequest inside
  /// a push) while the surrounding messages go through.
  void inject_drop_at(std::uint64_t nth) { scheduled_drops_.insert(seen_ + nth); }

  /// Partitions the directed link from->to: every message on it is dropped
  /// (and counted) until heal_partition(). Partition both directions to
  /// model a full network split; one direction models an asymmetric fault
  /// (requests arrive, responses vanish).
  void partition(std::string_view from, std::string_view to);
  void heal_partition(std::string_view from, std::string_view to);
  void heal_all_partitions() noexcept { partitions_.clear(); }
  [[nodiscard]] bool is_partitioned(std::string_view from,
                                    std::string_view to) const noexcept;

  [[nodiscard]] const NetStats& stats() const noexcept override { return stats_; }
  void reset_stats() noexcept override { stats_.reset(); }
  [[nodiscard]] util::SimClock& clock() noexcept override { return clock_; }

 private:
  [[nodiscard]] const LinkConfig& link_for(std::string_view from,
                                           std::string_view to) const noexcept;
  /// Charges one message traversal; returns false when it was dropped.
  bool charge(const Message& message);

  // Handlers are held by shared_ptr so detach() — even from inside the
  // executing handler itself — never destroys a std::function mid-call;
  // send() keeps the executing handler alive with a local copy. Names
  // collide case-insensitively, like type names.
  std::unordered_map<std::string, std::shared_ptr<Handler>, util::ICaseHash, util::ICaseEqual>
      handlers_;
  // Keyed on pair_key(from, to) of interned peer names: charging a message
  // probes with two no-insert symbol lookups instead of concatenating four
  // lowered strings per send.
  std::unordered_map<std::uint64_t, LinkConfig> links_;
  std::unordered_set<std::uint64_t> partitions_;
  LinkConfig default_link_;
  PeerQuotaTable quotas_;
  NetStats stats_;
  util::SimClock clock_;
  util::Rng rng_;
  std::size_t forced_drops_ = 0;
  std::uint64_t seen_ = 0;
  std::set<std::uint64_t> scheduled_drops_;
};

}  // namespace pti::transport
