// ResourceGovernor — the maintenance loop of hostile-peer resource
// governance: it ties the epoch manager, the interned-name table, and the
// conformance caches into one periodic sweep that keeps a long-running
// peer's memory bounded under churn.
//
// Division of labour (see docs/ARCHITECTURE.md, "Resource governance"):
//   * PeerQuotaTable bounds what a peer may ADD — bytes/sec, in-flight
//     exchanges, frame size, and crucially distinct *registered* names
//     (the TypeRegistry is append-only, so registration is the permanent
//     cost a budget must gate);
//   * the governor bounds what churn leaves BEHIND — transient interns
//     (envelope names of rejected pushes, names of detached peers, link
//     endpoints) and cold conformance verdicts, which no budget covers
//     because they are a side effect of merely *looking at* traffic.
//
// A sweep advances the stores' logical clocks, evicts entries idle for
// `min_idle_ticks` sweeps, and runs the epoch manager's reclaim step. A
// symbol is only evictable when NO watched registry references it and no
// added veto claims it (`TypeRegistry::references`): eviction recycles
// interned ids, so anything held by a long-lived id-keyed structure must
// be vetoed or a recycled id would alias into it.
//
// Safety contract (the quiescent-point rule, see util/epoch.hpp): readers
// that hold pointers into the stores without an EpochManager::Pin must not
// overlap a sweep. The transports pin around each message service, so a
// governor thread sweeping concurrently with message traffic is safe; code
// that probes the stores outside any transport (tests, tools) must either
// pin or keep the governor stopped.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/epoch.hpp"
#include "util/interning.hpp"

namespace pti::reflect {
class TypeRegistry;
}
namespace pti::conform {
class ConformanceCache;
}

namespace pti::core {

struct GovernorConfig {
  /// A store entry must have been idle for this many sweeps before it is
  /// evictable (>= 1; a just-used entry is never evicted).
  std::uint32_t min_idle_ticks = 2;
  /// Per-store eviction cap per sweep — bounds sweep latency so the
  /// governor thread never stalls message traffic behind a giant purge.
  std::size_t max_evict_per_sweep = 256;
};

/// What one sweep did (cumulative totals live on the stores themselves).
struct SweepReport {
  std::size_t cache_evicted = 0;  ///< conformance verdicts retired
  std::size_t names_evicted = 0;  ///< interned names retired
  std::size_t reclaimed = 0;      ///< retired objects actually freed
  std::uint64_t epoch = 0;        ///< global epoch after the sweep
};

class ResourceGovernor {
 public:
  explicit ResourceGovernor(GovernorConfig config = {},
                            util::EpochManager& em = util::EpochManager::global());
  ~ResourceGovernor();
  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  /// Registers `registry` as an eviction veto: any interned id it
  /// references is permanent. Watch every registry whose process shares
  /// the global SymbolTable. The registry must outlive the governor (or
  /// the last sweep).
  void watch(reflect::TypeRegistry& registry);

  /// Registers `cache` for cold-verdict eviction. Same lifetime rule.
  void watch(conform::ConformanceCache& cache);

  /// Adds an extra eviction veto for interned ids held by structures the
  /// governor cannot see (e.g. a SimNetwork's link/partition keys).
  void add_veto(std::function<bool(util::InternedName)> veto);

  /// Registers a hook invoked after every sweep, outside the sweep lock —
  /// the invalidation edge for state derived from the swept stores (e.g. a
  /// Peer's SessionTable verdict cache: hook it to invalidate_verdicts()
  /// so reclamation can never leave a stale cached verdict servable). The
  /// hook must be thread-safe and must not call back into the governor.
  void add_post_sweep_hook(std::function<void()> hook);

  /// One maintenance pass: advance ticks, evict cold cache entries, evict
  /// cold unreferenced symbols, reclaim. Thread-safe; callable directly
  /// (deterministic tests) or via the background thread.
  SweepReport sweep();

  /// Starts the background sweeper thread. No-op when already running.
  void start(std::chrono::milliseconds period);
  /// Stops and joins the sweeper thread. Idempotent; the destructor calls
  /// it.
  void stop();

  [[nodiscard]] std::size_t sweeps() const noexcept {
    return sweeps_.load(std::memory_order_relaxed);
  }

 private:
  /// The symbol-eviction veto: referenced by any watched registry or
  /// claimed by any added veto.
  [[nodiscard]] bool in_use(util::InternedName id) const;

  GovernorConfig config_;
  util::EpochManager& em_;

  mutable std::mutex mutex_;  ///< guards the watch/veto lists + sweep runs
  std::vector<reflect::TypeRegistry*> registries_;
  std::vector<conform::ConformanceCache*> caches_;
  std::vector<std::function<bool(util::InternedName)>> vetoes_;
  std::vector<std::function<void()>> post_sweep_hooks_;
  std::atomic<std::size_t> sweeps_{0};

  std::mutex run_mutex_;  ///< guards running_/stopping_ with stop_cv_
  std::condition_variable stop_cv_;
  std::thread sweeper_;
  bool running_ = false;
  bool stopping_ = false;
};

}  // namespace pti::core
