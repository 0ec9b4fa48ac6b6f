// PeerQuotaTable — the shared enforcement core behind per-peer resource
// governance, playing the same role for quotas that LinkCostModel plays
// for traversal costs: one implementation, owned by value by all three
// transports, so rejection semantics and accounting stay identical across
// SimNetwork, AsyncTransport and SocketTransport.
//
// A table maps peer names (case-insensitive, like every endpoint map) to
// budget state for the four quota dimensions of PeerQuotaConfig:
//
//   admit()              the transports' one admission step: all three.
//   admit_frame()        frame-size cap + bytes/sec token bucket, charged
//                        on the message's wire_size() (its frame plus its
//                        simulated assembly bytes, saturating) against the
//                        transport's virtual clock, BEFORE the handler
//                        runs — an over-budget peer costs one admission
//                        check, not a handler execution.
//   acquire_inflight()   RAII-guarded concurrent-exchange slot.
//   charge_new_names()   cumulative distinct-name budget, charged by the
//                        layer that interns on a peer's behalf (the
//                        transports for TypeInfoRequest name lists and
//                        session intro names, Peer::fetch_descriptions at
//                        the registry boundary).
//
// Every violation throws pti::ResourceExhaustedError (classified
// core::ErrorCode::ResourceExhausted); in-process transports let it
// propagate to the caller, SocketTransport encodes it as an unforgeable
// "resource|" fault frame and re-raises it client-side.
//
// The table itself is governed: it tracks at most `max_tracked_peers`
// distinct peer states. Beyond that, unknown peers share one overflow
// bucket — a sender flooding fresh identities degrades its own service,
// not the table's memory bound.
//
// Thread safety: every member is safe from any thread. The peer map is
// behind a shared_mutex (states are created once and never erased, so
// admission normally takes the shared path); each state's token bucket is
// guarded by its own small mutex; counters are relaxed atomics. The
// enabled() fast path is a single relaxed load, so an unconfigured table
// costs nothing on the hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "transport/transport.hpp"
#include "util/string_util.hpp"

namespace pti::transport {

/// Rejection counters by quota dimension (relaxed; exact at quiescence).
struct PeerQuotaStats {
  std::uint64_t rejected_frame_size = 0;
  std::uint64_t rejected_rate = 0;
  std::uint64_t rejected_inflight = 0;
  std::uint64_t rejected_names = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return rejected_frame_size + rejected_rate + rejected_inflight + rejected_names;
  }
};

class PeerQuotaTable {
 public:
  PeerQuotaTable() = default;
  PeerQuotaTable(const PeerQuotaTable&) = delete;
  PeerQuotaTable& operator=(const PeerQuotaTable&) = delete;

  /// Quota for peers without a per-peer override. Replaces the default
  /// for peers whose state has not yet been created; existing states keep
  /// the config they were created with (set_quota overrides per peer).
  void set_default(const PeerQuotaConfig& config);

  /// Per-peer override; creates or reconfigures the peer's state.
  void set_quota(std::string_view peer, const PeerQuotaConfig& config);

  /// True once any limiting config has been installed. Transports gate
  /// all enforcement behind this single relaxed load.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Admission of one inbound message from `peer` whose wire_size() is
  /// `frame_bytes`, at virtual time `now_ns`: enforces the
  /// frame-size cap, then the bytes/sec token bucket. Throws
  /// pti::ResourceExhaustedError on rejection; no budget is consumed by a
  /// rejected frame beyond the tokens it could not afford.
  void admit_frame(std::string_view peer, std::size_t frame_bytes, std::uint64_t now_ns);

  /// RAII slot of a peer's max_inflight budget. Default-constructed (or
  /// moved-from) guards hold nothing.
  class InflightGuard {
   public:
    InflightGuard() noexcept = default;
    InflightGuard(InflightGuard&& other) noexcept
        : counter_(other.counter_) {
      other.counter_ = nullptr;
    }
    InflightGuard& operator=(InflightGuard&& other) noexcept {
      release();
      counter_ = other.counter_;
      other.counter_ = nullptr;
      return *this;
    }
    ~InflightGuard() { release(); }

   private:
    friend class PeerQuotaTable;
    explicit InflightGuard(std::atomic<std::uint32_t>* counter) noexcept
        : counter_(counter) {}
    void release() noexcept {
      if (counter_ != nullptr) counter_->fetch_sub(1, std::memory_order_acq_rel);
      counter_ = nullptr;
    }
    std::atomic<std::uint32_t>* counter_ = nullptr;
  };

  /// Claims one concurrent-exchange slot for `peer`, throwing
  /// pti::ResourceExhaustedError when max_inflight are already executing.
  [[nodiscard]] InflightGuard acquire_inflight(std::string_view peer);

  /// Admits `request` at `now_ns`: admit_frame() on its wire size, an
  /// in-flight slot (held by the returned guard), then charge_new_names().
  [[nodiscard]] InflightGuard admit(const Message& request, std::uint64_t now_ns);

  /// Charges `count` distinct new names against `peer`'s cumulative
  /// max_new_names budget; throws pti::ResourceExhaustedError when the
  /// budget cannot cover them (consuming nothing).
  void charge_new_names(std::string_view peer, std::size_t count);

  [[nodiscard]] PeerQuotaStats stats() const noexcept;
  void reset_stats() noexcept;

  /// Cap on tracked per-peer states (identity-flood protection). Peers
  /// beyond the cap share one overflow state under the default config.
  void set_max_tracked_peers(std::size_t cap) noexcept {
    max_tracked_peers_.store(cap, std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t tracked_peers() const;

 private:
  struct State {
    explicit State(const PeerQuotaConfig& c) noexcept
        : config(c),
          tokens(c.burst_bytes != 0 ? c.burst_bytes : c.bytes_per_sec) {}

    PeerQuotaConfig config;             // guarded by bucket_mutex
    std::mutex bucket_mutex;        // guards config + tokens + last_refill_ns

    [[nodiscard]] PeerQuotaConfig snapshot_config() {
      std::lock_guard lock(bucket_mutex);
      return config;
    }
    std::uint64_t tokens;           // available bytes
    std::uint64_t last_refill_ns = 0;
    std::atomic<std::uint32_t> inflight{0};
    std::atomic<std::uint64_t> names_used{0};
  };

  /// The peer's state, created under the default config on first contact
  /// (or the shared overflow state past the tracking cap).
  [[nodiscard]] State& state_of(std::string_view peer);

  [[nodiscard]] std::uint64_t bucket_depth(const PeerQuotaConfig& c) const noexcept {
    return c.burst_bytes != 0 ? c.burst_bytes : c.bytes_per_sec;
  }

  mutable std::shared_mutex mutex_;  // guards peers_ + default_/overflow_
  std::map<std::string, std::unique_ptr<State>, util::ICaseLess> peers_;
  PeerQuotaConfig default_config_;
  std::unique_ptr<State> overflow_;  // lazily created shared bucket
  std::atomic<std::size_t> max_tracked_peers_{4096};
  std::atomic<bool> enabled_{false};

  struct {
    std::atomic<std::uint64_t> frame_size{0};
    std::atomic<std::uint64_t> rate{0};
    std::atomic<std::uint64_t> inflight{0};
    std::atomic<std::uint64_t> names{0};
  } rejected_;
};

/// Distinct type names in `message` that are not currently interned — the
/// amount charge_new_names() would need to cover before handling it. The
/// caller-controlled names the serving side interns on the sender's behalf
/// are a TypeInfoRequest's name list and the intro names of a SessionPush
/// or of every SessionBatch entry; each counts once per message however
/// often it repeats, compared case-insensitively as SymbolTable folds it.
[[nodiscard]] std::size_t count_new_names(const Message& message);

}  // namespace pti::transport
