// Interned, case-folded string identity — the zero-allocation substrate
// under every name-keyed hot path (registry resolution, conformance-cache
// keys, recursion guards, simulated-network link lookup).
//
// The conformance rules compare names case-insensitively, so the seed code
// case-folded strings at every comparison point: each cache lookup built a
// fresh lowered key, each recursion-guard insert concatenated two lowered
// qualified names, and the registry ran character-folding comparisons on
// every tree probe. A SymbolTable folds and hashes each distinct name
// exactly once and hands out a 32-bit InternedName; equal ids mean equal
// folded names, so every later comparison is an integer compare and every
// later hash is a single multiply — no heap traffic.
//
// find()/find_qualified() never insert and never allocate: probing folds
// and hashes the candidate on the fly and compares it character-by-character
// against stored folded spellings. A name that was never interned cannot be
// the key of anything, so a miss is an authoritative "unknown".
//
// Thread safety: the table is sharded 16 ways by folded hash. Each shard
// stripes its probe index behind a std::shared_mutex (readers share,
// interning writers exclude only their shard), while the entry storage is
// chunked memory whose slots each publish a heap-allocated folded string
// through an atomic pointer — so the by-id accessors folded() and hash()
// are lock-free, and concurrent intern()/find() calls on distinct shards
// never contend at all.
//
// Reclamation (hostile-peer governance): ids and folded() views are stable
// until a name is explicitly evicted via evict_cold(), which (1) unlinks
// the slot from the probe index under the exclusive shard lock, (2) hands
// the folded string to a util::EpochManager retire list, and (3) recycles
// the slot for later interns. Lock-free readers that may overlap an
// eviction must bracket their use of folded() views in an
// EpochManager::Pin; callers that evict are responsible for only evicting
// names that no long-lived structure (registry, link table) still
// references — recency (`last_use` ticks) plus an `in_use` predicate is
// how the ResourceGovernor approximates that.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/hash.hpp"
#include "util/string_util.hpp"

namespace pti::util {

class EpochManager;

/// FNV-1a over the case-folded characters of `s`, continuing from `seed` —
/// the hash of the folded form without materializing it.
[[nodiscard]] constexpr std::uint64_t fold_hash(std::string_view s,
                                                std::uint64_t seed = kFnvOffset64) noexcept {
  std::uint64_t h = seed;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(to_lower(c));
    h *= kFnvPrime64;
  }
  return h;
}

/// Identity of a case-folded string in a SymbolTable. Two names intern to
/// the same id iff they are case-insensitively equal. Default-constructed
/// ids are invalid ("name unknown").
class InternedName {
 public:
  constexpr InternedName() noexcept = default;

  [[nodiscard]] constexpr bool valid() const noexcept { return id_ != kInvalid; }
  /// Raw index, usable as a dense array key. Only meaningful when valid().
  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return id_; }

  friend constexpr bool operator==(InternedName, InternedName) noexcept = default;

 private:
  friend class SymbolTable;
  static constexpr std::uint32_t kInvalid = 0xFFFFFFFFu;
  explicit constexpr InternedName(std::uint32_t id) noexcept : id_(id) {}

  std::uint32_t id_ = kInvalid;
};

/// Packs a (source, target) pair of interned names into one 64-bit key —
/// the conformance checker's recursion guards and memo tables key on this.
[[nodiscard]] constexpr std::uint64_t pair_key(InternedName a, InternedName b) noexcept {
  return (static_cast<std::uint64_t>(a.value()) << 32) | b.value();
}

/// Sharded table of case-folded names. Interning is amortized O(1); find()
/// is O(1) with zero allocations. Ids are stable until explicitly evicted.
///
/// Concurrency contract:
///  - intern()/intern_qualified(): safe from any thread; exclusive only
///    within the target shard (striped locking).
///  - find()/find_qualified(): safe from any thread; shared lock on one
///    shard, zero allocations.
///  - folded()/hash(): lock-free — they read the slot's published string
///    pointer with an acquire load and never touch the shard index. When
///    eviction may run concurrently, hold an EpochManager::Pin for as long
///    as the returned view is used.
///  - evict_cold(): exclusive per shard; retires strings through the
///    EpochManager instead of freeing, so concurrent pinned readers stay
///    valid.
///  - size(): lock-free, may transiently under-count concurrent interns.
class SymbolTable {
 public:
  SymbolTable();
  ~SymbolTable();
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// The process-wide table. TypeDescription, TypeRegistry, the
  /// conformance cache and SimNetwork all share it so their ids agree.
  [[nodiscard]] static SymbolTable& global();

  /// Folds `s` and returns its id, inserting on first sight. Throws
  /// pti::ResourceExhaustedError (classified ErrorCode::ResourceExhausted)
  /// if the target shard is at capacity (~256K names per shard, ~4M total)
  /// — the backstop behind per-peer name budgets and cold-name eviction.
  InternedName intern(std::string_view s);

  /// Interns the qualified form "ns.name" (or just "name" when `ns` is
  /// empty) without building the concatenation unless it is new. Throws
  /// like intern() at shard capacity.
  InternedName intern_qualified(std::string_view ns, std::string_view name);

  /// Id of `s` if it is currently interned; invalid otherwise. Never
  /// inserts, never allocates.
  [[nodiscard]] InternedName find(std::string_view s) const noexcept;

  /// find() of the qualified form "ns.name" without concatenating.
  [[nodiscard]] InternedName find_qualified(std::string_view ns,
                                            std::string_view name) const noexcept;

  /// The stored folded spelling; empty for evicted or invalid ids. Stable
  /// while the id is live; under concurrent eviction, valid for the
  /// duration of the caller's EpochManager::Pin. Lock-free.
  [[nodiscard]] std::string_view folded(InternedName id) const noexcept;

  /// The precomputed hash of the folded spelling; 0 for evicted or invalid
  /// ids. Lock-free.
  [[nodiscard]] std::uint64_t hash(InternedName id) const noexcept;

  /// Live (non-evicted) names across all shards (may lag concurrent
  /// interns/evictions).
  [[nodiscard]] std::size_t size() const noexcept;

  /// Number of shards (compile-time constant, exposed for stats/tests).
  [[nodiscard]] static constexpr std::size_t shard_count() noexcept { return kShardCount; }

  /// Live names in shard `shard` — the per-shard occupancy input to the
  /// cold-entry eviction policy.
  [[nodiscard]] std::size_t shard_size(std::size_t shard) const noexcept;

  /// Advances the usage clock one tick and returns the new tick. Intern
  /// and find hits stamp their entry with the current tick; evict_cold()
  /// measures idleness in ticks. The governor advances this once per
  /// sweep, so "idle for N ticks" means "unused for N sweeps".
  std::uint32_t advance_tick() noexcept;

  /// Evicts up to `max_evict` names that have not been touched for at
  /// least `min_idle_ticks` ticks and for which `in_use` (when provided)
  /// returns false. Evicted slots are recycled by later interns; the
  /// folded strings are retired through `em` and freed only once every
  /// pin that could reference them has released. Returns the number of
  /// names evicted.
  ///
  /// Caller contract: only evict names that nothing long-lived references
  /// — a recycled slot's id is reused for a DIFFERENT name, so any stale
  /// InternedName kept across an eviction would silently change meaning.
  /// The `in_use` predicate is the caller's veto (e.g. "still registered
  /// in some TypeRegistry").
  std::size_t evict_cold(EpochManager& em, std::uint32_t min_idle_ticks,
                         std::size_t max_evict,
                         const std::function<bool(InternedName)>& in_use = {});

 private:
  // Ids interleave shards: id = (slot << kShardBits) | shard. The shard is
  // picked from the folded hash, so both halves of the id are recoverable
  // without any lookup.
  static constexpr std::uint32_t kShardBits = 4;
  static constexpr std::uint32_t kShardCount = 1u << kShardBits;
  // Entry storage is chunked so a slot's address never moves: chunk
  // pointers are published once and each slot's string pointer is stored
  // with release before the slot becomes reachable, which is what makes
  // by-id reads lock-free. 256-entry chunks keep the first intern into a
  // shard cheap; 1024 chunk slots x 16 shards cap the table at ~4M
  // distinct live names (intern throws pti::ResourceExhaustedError beyond
  // that) while keeping the fixed footprint of an empty table small.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr std::uint32_t kMaxChunks = 1u << 10;  // 256K names per shard

  // One slot. `name` owns the heap-allocated folded spelling and is the
  // publication point: readers acquire-load it and see the `hash` stored
  // before it. nullptr means never-used or evicted. `last_use` is the
  // recency stamp for the eviction policy (relaxed; advisory only).
  struct Entry {
    std::atomic<const std::string*> name{nullptr};
    std::atomic<std::uint64_t> hash{0};
    mutable std::atomic<std::uint32_t> last_use{0};
  };
  using Chunk = std::array<Entry, kChunkSize>;

  struct Shard {
    mutable std::shared_mutex mutex;
    // folded hash -> slots in this shard; guarded by `mutex`. Only live
    // slots appear here (eviction unlinks before retiring the string).
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
    // Chunked entry storage; slot addresses never move, so by-id reads
    // need no lock. Chunks are allocated on demand and never freed until
    // table destruction.
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};
    // High-water slot count: slots < count have been used at least once.
    std::atomic<std::uint32_t> count{0};
    // Live (non-evicted) slots; count minus evictions plus reuses.
    std::atomic<std::uint32_t> live{0};
    // Evicted slots awaiting reuse; guarded by `mutex`.
    std::vector<std::uint32_t> free_slots;
  };

  [[nodiscard]] static constexpr std::size_t shard_of(std::uint64_t h) noexcept {
    // xor-fold so shard choice uses more than the low bits of FNV.
    return static_cast<std::size_t>((h ^ (h >> 32)) & (kShardCount - 1));
  }
  [[nodiscard]] static constexpr std::uint32_t make_id(std::size_t shard,
                                                       std::uint32_t slot) noexcept {
    return (slot << kShardBits) | static_cast<std::uint32_t>(shard);
  }

  /// Entry for a used slot of `shard`; requires slot < published count.
  [[nodiscard]] const Entry& entry_at(const Shard& shard, std::uint32_t slot) const noexcept;
  [[nodiscard]] Entry& entry_at(Shard& shard, std::uint32_t slot) noexcept;

  /// Probe under the caller-held shard lock (shared or exclusive); stamps
  /// the hit's last_use with the current tick.
  [[nodiscard]] InternedName find_in_shard(const Shard& shard, std::size_t shard_idx,
                                           std::uint64_t h, std::string_view ns,
                                           std::string_view name) const noexcept;

  /// Insert under the caller-held exclusive shard lock; reuses a free slot
  /// when one exists.
  InternedName insert_locked(Shard& shard, std::size_t shard_idx, std::uint64_t h,
                             std::string&& folded);

  std::array<Shard, kShardCount> shards_;
  std::atomic<std::uint32_t> tick_{1};
};

}  // namespace pti::util

template <>
struct std::hash<pti::util::InternedName> {
  [[nodiscard]] std::size_t operator()(pti::util::InternedName id) const noexcept {
    // Fibonacci scramble: raw ids are small sequential integers.
    return static_cast<std::size_t>(id.value() * 0x9E3779B97F4A7C15ULL);
  }
};
