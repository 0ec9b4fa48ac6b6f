// LinkCostModel — the shared link-configuration + drop/cost core of the
// concurrent transports (AsyncTransport, SocketTransport): the default
// link plus per-directed-link overrides behind a shared_mutex, and one
// lock-free SplitMix64 stream behind per-link drop_probability. Both
// transports delegate here so their cost models cannot diverge.
// SimNetwork keeps its own single-threaded deterministic variant
// (util::Rng draws).
//
// Deliberately NOT part of transport.hpp: the seam header is included by
// every layer above src/transport/, none of which needs this machinery.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <string_view>
#include <unordered_map>

#include "transport/transport.hpp"

namespace pti::transport {

class LinkCostModel {
 public:
  /// Seed of the drop stream; both concurrent transports start from it.
  static constexpr std::uint64_t kSeed = 42;

  void set_default_link(const LinkConfig& config) noexcept;
  void set_link(std::string_view from, std::string_view to, const LinkConfig& config);
  [[nodiscard]] LinkConfig link_for(std::string_view from, std::string_view to) const;

  /// Charges one traversal of `message`, `wire_bytes` long (its
  /// wire_size()), against `stats`/`clock`; false when the link's drop
  /// probability fired (the drop is counted).
  bool charge(const Message& message, std::size_t wire_bytes, NetStats& stats,
              util::SimClock& clock);

 private:
  [[nodiscard]] double next_uniform() noexcept;

  mutable std::shared_mutex mutex_;  ///< guards links_/default_link_
  std::unordered_map<std::uint64_t, LinkConfig> links_;
  LinkConfig default_link_;
  std::atomic<std::uint64_t> rng_state_{kSeed};
};

}  // namespace pti::transport
