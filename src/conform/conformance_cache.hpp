// Memoization of conformance verdicts.
//
// The paper measures ~12.66 ms per 1000 checks on simple types and calls
// it "a lower bound" for real types — which is exactly why a per-peer
// cache matters: a type's structure is immutable once registered, so a
// completed verdict (with its plan) never changes. Results whose check
// encountered unresolved type references are NOT cached; they may flip
// once the missing descriptions are downloaded.
//
// Keys are (source name id, target name id, options fingerprint): the
// interned ids are case-folded once at TypeDescription construction, so a
// lookup is a mixed hash-combine of three integers and an open probe — no
// string building, no case folding, zero heap allocations.
//
// Thread safety: the cache is sharded 16 ways by key hash. Each shard
// keeps a node-based map as the authoritative store (writers take the
// shard's mutex) plus an open-addressing read index of atomic
// (tag, entry*) slots published release/acquire — so lookup()/probe() are
// LOCK-FREE: a cached-verdict hit costs a hash, a couple of atomic loads
// and a key compare, the same order of magnitude as the single-threaded
// cache of PR 1. Entry pointers are stable map nodes (never erased during
// concurrent operation), which is what makes publishing them to lock-free
// readers sound; a reader racing an index grow may transiently miss a
// fresh key, which only costs a benign recompute + idempotent re-insert.
// Per-shard hit/miss/insertion counters are atomics.
//
// Reclamation: plain clear() requires external quiescence (no concurrent
// readers holding pointers). The epoch-era paths — evict_cold() and
// clear(EpochManager&) — are safe against concurrent readers that bracket
// their lookups in an EpochManager::Pin: evicted map nodes and replaced
// read-index tables are retired, not freed, and only reclaimed once every
// pin that could reference them has released. evict_cold() REBUILDS the
// shard's read index after extracting cold entries, so post-eviction
// probes can never hit an evicted key (important: keys hold interned ids,
// and an evicted id may be recycled for a different name).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "conform/conformance_plan.hpp"
#include "reflect/type_description.hpp"
#include "util/hash.hpp"
#include "util/interning.hpp"

namespace pti::conform {

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

struct CachedVerdict {
  bool conformant = false;
  ConformancePlan plan;
};

class ConformanceCache {
 public:
  /// Key: (source qualified-name id, target qualified-name id, options
  /// fingerprint). Interned ids already encode the case-folded names.
  struct Key {
    util::InternedName source;
    util::InternedName target;
    std::uint64_t options_fingerprint = 0;

    bool operator==(const Key&) const noexcept = default;
  };

  /// The key's hash: the read index takes its slot from the low bits and
  /// its tag from all of it. pair_key puts the source id in the high half
  /// and hash_combine carries bits only upward, so the whole combination
  /// is mixed: otherwise every source of one target shares one home slot.
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
      return static_cast<std::size_t>(util::mix64(
          util::hash_combine(util::pair_key(k.source, k.target), k.options_fingerprint)));
    }
  };

  /// Lock-free probe of one shard's read index; the returned pointer is
  /// stable (entries are node-based and never erased outside clear()).
  [[nodiscard]] const CachedVerdict* lookup(util::InternedName source,
                                            util::InternedName target,
                                            std::uint64_t options_fingerprint) noexcept;

  [[nodiscard]] const CachedVerdict* lookup(const reflect::TypeDescription& source,
                                            const reflect::TypeDescription& target,
                                            std::uint64_t options_fingerprint) noexcept {
    return lookup(source.name_id(), target.name_id(), options_fingerprint);
  }

  /// lookup() that records a hit when found but nothing on a miss — for
  /// fast paths that fall through to a full check on miss, where that
  /// check's own lookup records the single authoritative miss. Keeps each
  /// logical check at exactly one hit or one miss in the stats.
  [[nodiscard]] const CachedVerdict* probe(const reflect::TypeDescription& source,
                                           const reflect::TypeDescription& target,
                                           std::uint64_t options_fingerprint) noexcept;

  /// Batched lock-free probe: pass 1 hashes every key and prefetches its
  /// shard's index slot, pass 2 probes — the independent shard/slot cache
  /// lines are fetched in parallel instead of serially per lookup, which
  /// is what amortizes cache-shard traffic for bulk conformance queries.
  /// out[i] receives the verdict for keys[i] (nullptr when not cached).
  /// Hit accounting matches probe(): hits count, misses do not (the
  /// caller's fallback full check records the authoritative miss).
  void probe_batch(std::span<const Key> keys, const CachedVerdict** out) noexcept;

  /// Exclusive-locks one shard. Idempotent re-insertion of an equal
  /// verdict (two threads completing the same check) is benign.
  void insert(util::InternedName source, util::InternedName target,
              std::uint64_t options_fingerprint, CachedVerdict verdict);

  /// Erases every entry. NOT safe concurrently with readers that may still
  /// hold pointers returned by lookup()/probe(); quiesce first.
  void clear() noexcept;

  /// Epoch-era clear: erases every entry but retires the map nodes and
  /// index tables through `em` instead of freeing them, so readers that
  /// hold an EpochManager::Pin around their lookup()/probe() may run
  /// concurrently — pointers they already obtained stay valid until their
  /// pin releases and the epoch advances.
  void clear(util::EpochManager& em);

  /// Advances the usage clock one tick and returns the new tick. Lookup
  /// hits stamp their entry; evict_cold() measures idleness in ticks.
  std::uint32_t advance_tick() noexcept;

  /// Evicts up to `max_evict` entries not hit for at least
  /// `min_idle_ticks` ticks. Safe against concurrent PINNED readers (see
  /// clear(em)); shards whose entries were evicted get a freshly rebuilt
  /// read index, with the old table and the evicted nodes retired through
  /// `em`. Returns the number of entries evicted.
  std::size_t evict_cold(util::EpochManager& em, std::uint32_t min_idle_ticks,
                         std::size_t max_evict);

  [[nodiscard]] std::size_t size() const noexcept;

  /// Aggregated counters across all shards (by value: shards tick their
  /// own atomic counters, so there is no single struct to reference).
  [[nodiscard]] CacheStats stats() const noexcept;

  /// Per-shard counters — the observability hook for load-balance checks
  /// and a future eviction/epoch story.
  [[nodiscard]] CacheStats shard_stats(std::size_t shard) const noexcept;
  [[nodiscard]] static constexpr std::size_t shard_count() noexcept { return kShardCount; }

  void reset_stats() noexcept;

  ConformanceCache() = default;
  ~ConformanceCache();
  ConformanceCache(const ConformanceCache&) = delete;
  ConformanceCache& operator=(const ConformanceCache&) = delete;

 private:
  static constexpr std::size_t kShardCount = 16;
  static constexpr std::size_t kInitialSlots = 256;  // per shard, power of two

  struct ShardStats {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> insertions{0};
    std::atomic<std::uint64_t> evictions{0};
  };

  // Map node payload: the verdict plus its recency stamp. The stamp is
  // mutable+atomic so lock-free read hits can refresh it; nodes are never
  // moved once emplaced (node-based map), so the atomic never relocates.
  struct Node {
    explicit Node(CachedVerdict v) : verdict(std::move(v)) {}
    CachedVerdict verdict;
    mutable std::atomic<std::uint32_t> last_use{0};
  };

  using MapEntry = std::pair<const Key, Node>;
  using EntryMap = std::unordered_map<Key, Node, KeyHash>;

  // One slot of the lock-free read index. The writer stores `entry` first,
  // then publishes `tag` with release; a reader that observes the tag
  // (acquire) therefore observes a fully written entry. tag==0 means
  // empty, which terminates a reader's linear probe (no deletions).
  struct Slot {
    std::atomic<std::uint64_t> tag{0};
    std::atomic<const MapEntry*> entry{nullptr};
  };

  struct Table {
    explicit Table(std::size_t capacity) : mask(capacity - 1), slots(capacity) {}
    std::size_t mask;
    std::vector<Slot> slots;
    std::size_t used = 0;  // writer-only, guarded by the shard mutex
  };

  struct Shard {
    mutable std::shared_mutex mutex;  // writers exclusive; size() shared
    EntryMap entries;
    std::atomic<Table*> table{nullptr};
    // Tables replaced by growth; still probe-able by in-flight readers, so
    // they are only reclaimed at clear()/destruction or handed to the
    // EpochManager by the epoch-era paths (bounded: doubling means all
    // retired tables together are smaller than the live one).
    std::vector<Table*> retired;
    ShardStats stats;
  };

  [[nodiscard]] static std::size_t shard_of(std::size_t h) noexcept {
    // Use the high bits of a rescrambled hash: the low bits pick the index
    // slot, so reusing them for shard choice would correlate the two.
    // Widened first so the shift is defined even where size_t is 32 bits.
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(h) * 0x9E3779B97F4A7C15ULL) >> 60) &
           (kShardCount - 1);
  }
  [[nodiscard]] static std::uint64_t tag_of(std::size_t h) noexcept {
    return h == 0 ? 1 : static_cast<std::uint64_t>(h);
  }

  /// Lock-free read of the shard's index; counts a hit when found, and a
  /// miss only when `count_miss`.
  [[nodiscard]] const CachedVerdict* read(Shard& shard, const Key& key, std::size_t h,
                                          bool count_miss) noexcept;

  /// Writer-side publication into the index (shard mutex held).
  static void publish(Table& table, const MapEntry* entry) noexcept;

  /// Swaps in `fresh` (may be nullptr) as the shard's read index and
  /// retires the old and previously retired tables through `em` (shard
  /// mutex held).
  static void swap_index_locked(Shard& shard, Table* fresh, util::EpochManager& em);

  std::array<Shard, kShardCount> shards_;
  std::atomic<std::uint32_t> tick_{1};
};

}  // namespace pti::conform
