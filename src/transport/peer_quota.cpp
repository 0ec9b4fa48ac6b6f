#include "transport/peer_quota.hpp"

#include <algorithm>
#include <span>
#include <string_view>
#include <unordered_set>
#include <variant>

#include "util/error.hpp"
#include "util/interning.hpp"
#include "util/string_util.hpp"

namespace pti::transport {

void PeerQuotaTable::set_default(const PeerQuotaConfig& config) {
  std::unique_lock lock(mutex_);
  default_config_ = config;
  if (config.limits_anything()) enabled_.store(true, std::memory_order_relaxed);
}

void PeerQuotaTable::set_quota(std::string_view peer, const PeerQuotaConfig& config) {
  std::unique_lock lock(mutex_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) {
    peers_.emplace(std::string(peer), std::make_unique<State>(config));
  } else {
    // Reconfigure in place: clamp the bucket to the new depth, keep the
    // cumulative name count (a budget, not a rate).
    State& state = *it->second;
    std::lock_guard bucket(state.bucket_mutex);
    state.config = config;
    state.tokens = std::min(state.tokens, bucket_depth(config));
  }
  if (config.limits_anything()) enabled_.store(true, std::memory_order_relaxed);
}

PeerQuotaTable::State& PeerQuotaTable::state_of(std::string_view peer) {
  {
    std::shared_lock lock(mutex_);
    const auto it = peers_.find(peer);
    if (it != peers_.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = peers_.find(peer);
  if (it != peers_.end()) return *it->second;
  if (peers_.size() >= max_tracked_peers_.load(std::memory_order_relaxed)) {
    // Identity flood: peers beyond the tracking cap share one bucket, so
    // the table's own footprint stays bounded no matter how many fresh
    // sender names arrive.
    if (overflow_ == nullptr) overflow_ = std::make_unique<State>(default_config_);
    return *overflow_;
  }
  return *peers_.emplace(std::string(peer), std::make_unique<State>(default_config_))
              .first->second;
}

void PeerQuotaTable::admit_frame(std::string_view peer, std::size_t frame_bytes,
                                 std::uint64_t now_ns) {
  State& state = state_of(peer);
  // The whole admission runs under the peer's bucket mutex: `config` may
  // be reconfigured concurrently by set_quota(), which writes under the
  // same lock.
  std::lock_guard bucket(state.bucket_mutex);
  const PeerQuotaConfig& config = state.config;
  if (config.max_frame_bytes != 0 && frame_bytes > config.max_frame_bytes) {
    rejected_.frame_size.fetch_add(1, std::memory_order_relaxed);
    throw pti::ResourceExhaustedError(
        "peer '" + std::string(peer) + "' frame of " + std::to_string(frame_bytes) +
        " bytes exceeds its " + std::to_string(config.max_frame_bytes) +
        "-byte frame quota");
  }
  if (config.bytes_per_sec == 0) return;
  if (now_ns > state.last_refill_ns) {
    const std::uint64_t elapsed = now_ns - state.last_refill_ns;
    // 128-bit intermediate: elapsed_ns * rate overflows 64 bits after
    // ~half a minute at 100 MB/s.
    const auto refill = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(elapsed) * config.bytes_per_sec / 1'000'000'000u);
    state.tokens = std::min(bucket_depth(config), state.tokens + refill);
    state.last_refill_ns = now_ns;
  }
  if (frame_bytes > state.tokens) {
    rejected_.rate.fetch_add(1, std::memory_order_relaxed);
    throw pti::ResourceExhaustedError(
        "peer '" + std::string(peer) + "' exceeded its " +
        std::to_string(config.bytes_per_sec) + " bytes/sec quota (frame of " +
        std::to_string(frame_bytes) + " bytes, " + std::to_string(state.tokens) +
        " available)");
  }
  state.tokens -= frame_bytes;
}

PeerQuotaTable::InflightGuard PeerQuotaTable::acquire_inflight(std::string_view peer) {
  State& state = state_of(peer);
  const std::uint32_t max_inflight = state.snapshot_config().max_inflight;
  if (max_inflight == 0) return InflightGuard{};
  const std::uint32_t prior = state.inflight.fetch_add(1, std::memory_order_acq_rel);
  if (prior >= max_inflight) {
    state.inflight.fetch_sub(1, std::memory_order_acq_rel);
    rejected_.inflight.fetch_add(1, std::memory_order_relaxed);
    throw pti::ResourceExhaustedError(
        "peer '" + std::string(peer) + "' exceeded its in-flight exchange quota (" +
        std::to_string(max_inflight) + ")");
  }
  return InflightGuard{&state.inflight};
}

PeerQuotaTable::InflightGuard PeerQuotaTable::admit(const Message& request,
                                                    std::uint64_t now_ns) {
  admit_frame(request.sender, request.wire_size(), now_ns);
  InflightGuard inflight = acquire_inflight(request.sender);
  charge_new_names(request.sender, count_new_names(request));
  return inflight;
}

void PeerQuotaTable::charge_new_names(std::string_view peer, std::size_t count) {
  if (count == 0) return;
  State& state = state_of(peer);
  const std::uint64_t max_new_names = state.snapshot_config().max_new_names;
  if (max_new_names == 0) return;
  // CAS loop so a rejected charge consumes nothing: a peer at its budget
  // edge cannot burn the remainder with an oversized batch.
  std::uint64_t used = state.names_used.load(std::memory_order_relaxed);
  do {
    if (used + count > max_new_names) {
      rejected_.names.fetch_add(1, std::memory_order_relaxed);
      throw pti::ResourceExhaustedError(
          "peer '" + std::string(peer) + "' exceeded its distinct-name budget (" +
          std::to_string(max_new_names) + " names; " + std::to_string(count) +
          " more requested)");
    }
  } while (!state.names_used.compare_exchange_weak(used, used + count,
                                                   std::memory_order_acq_rel,
                                                   std::memory_order_relaxed));
}

PeerQuotaStats PeerQuotaTable::stats() const noexcept {
  PeerQuotaStats out;
  out.rejected_frame_size = rejected_.frame_size.load(std::memory_order_relaxed);
  out.rejected_rate = rejected_.rate.load(std::memory_order_relaxed);
  out.rejected_inflight = rejected_.inflight.load(std::memory_order_relaxed);
  out.rejected_names = rejected_.names.load(std::memory_order_relaxed);
  return out;
}

void PeerQuotaTable::reset_stats() noexcept {
  rejected_.frame_size.store(0, std::memory_order_relaxed);
  rejected_.rate.store(0, std::memory_order_relaxed);
  rejected_.inflight.store(0, std::memory_order_relaxed);
  rejected_.names.store(0, std::memory_order_relaxed);
}

std::size_t PeerQuotaTable::tracked_peers() const {
  std::shared_lock lock(mutex_);
  return peers_.size();
}

std::size_t count_new_names(const Message& message) {
  // Session pushes introduce type names inline instead of via a nested
  // TypeInfoRequest. A batch is charged for all its entries up front: the
  // whole frame is admitted or refused before any entry's handler runs,
  // so a hostile batch cannot smuggle names past the budget one entry at
  // a time.
  std::span<const std::string> requested;
  std::span<const SessionPush> pushes;
  if (const auto* info = std::get_if<TypeInfoRequest>(&message.payload)) {
    requested = info->type_names;
  } else if (const auto* push = std::get_if<SessionPush>(&message.payload)) {
    pushes = {push, 1};
  } else if (const auto* batch = std::get_if<SessionBatch>(&message.payload)) {
    pushes = batch->entries;
  }
  // Each name counts once, folded as SymbolTable folds it.
  const util::SymbolTable& names = util::SymbolTable::global();
  std::unordered_set<std::string_view, util::ICaseHash, util::ICaseEqual> fresh;
  const auto note = [&](std::string_view name) {
    if (!names.find(name).valid()) fresh.insert(name);
  };
  for (const std::string& name : requested) note(name);
  for (const SessionPush& push : pushes) {
    for (const SessionIntro& intro : push.intros) note(intro.type_name);
  }
  return fresh.size();
}

}  // namespace pti::transport
