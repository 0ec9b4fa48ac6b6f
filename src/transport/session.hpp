// SessionTable — per-peer-pair protocol session state, the round-trip
// killer behind ROADMAP's "steady-state push is one exchange".
//
// One table lives inside each session-mode Peer and holds both directions:
//
//   * outbound (this peer as sender): per target peer, a session token and
//     a type-name → wire-id map. Wire ids are allocated at *plan* time (so
//     concurrent sends to the same target never collide) but marked
//     "introduced" only when the receiver acknowledged the push that
//     carried the intro — a quota refusal or transport failure leaves the
//     type un-introduced and the next push simply re-sends the intro under
//     the same wire id (receiver-side learning is idempotent).
//
//   * inbound (this peer as receiver): per sender peer, the mirror wire-id
//     → TypeInfoEntry map plus a conformance verdict cache keyed by the
//     root wire id. A cached verdict is only served when (a) the stored
//     envelope type set matches exactly, and (b) the table's invalidation
//     generation has not moved since the verdict was stored. add_interest
//     and governor sweeps bump the generation, so sessions never serve a
//     verdict computed against a stale interest set or evicted cache
//     state — they re-validate instead.
//
// Invalidation contract (the reclamation invariant): sessions own every
// string they hold (type names, descriptions' provenance, matched interest
// names) — nothing here pins a SymbolTable entry or a ConformanceCache
// slot, so epoch reclamation proceeds underneath without coordination;
// correctness is preserved by the generation check alone.
//
// Thread safety: all methods are safe to call concurrently. The two
// directions use separate mutexes; no lock is ever held across a network
// call (callers plan → send → commit in separate steps).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serial/envelope.hpp"
#include "transport/message.hpp"
#include "util/interning.hpp"

namespace pti::transport {

struct SessionConfig {
  /// Receiver-side cap on concurrently remembered sender sessions; the
  /// least recently used session is evicted when a new sender arrives at
  /// the cap (the evicted sender sees one Reset and replays with intros).
  std::size_t max_peer_sessions = 256;
  /// Sender-side batching window: async session pushes to the same
  /// recipient queue up and flush as one SessionBatch frame once this many
  /// are pending (or earlier — a synchronous send, an explicit flush(), or
  /// peer teardown drains the window). 1, the default, disables batching:
  /// every push is its own framed exchange, exactly the PR-9 protocol.
  std::size_t max_batch = 1;
};

class SessionTable {
 public:
  explicit SessionTable(SessionConfig config = {}) : config_(config) {}

  // ---- sender side -------------------------------------------------

  struct SendPlan {
    std::uint64_t token = 0;
    /// Wire ids parallel to the planned names.
    std::vector<std::uint32_t> wire_ids;
    /// Indexes into the names whose type still needs an inline intro.
    std::vector<std::size_t> fresh;
  };

  /// Binds wire ids for `names` in the session to `to` (allocating for
  /// unseen names) and reports which names the receiver has not
  /// acknowledged yet. Token 0 plans a push's envelope type set (root
  /// first), opening the session if needed. A nonzero token binds closure
  /// extras riding along under that push (supertypes, field types shipped
  /// so the receiver's check needs no nested fetch); when a reset replaced
  /// that token, nothing is bound.
  SendPlan plan(const std::string& to, const std::vector<std::string>& names,
                std::uint64_t token = 0);

  /// Marks the planned names as introduced — call only after the receiver
  /// acknowledged the push with SessionStatus::Ok. A stale token (the
  /// session was reset while the push was in flight) commits nothing.
  void commit_send(const std::string& to, std::uint64_t token,
                   const std::vector<std::string>& names,
                   const std::vector<std::size_t>& fresh);

  /// Drops all outbound state for `to` (on SessionStatus::Reset): the next
  /// plan starts a new token with every type fresh.
  void reset_peer(const std::string& to);

  // ---- receiver side -----------------------------------------------

  /// Wire-id bindings one inbound session may hold: far above an honest
  /// closure (a warm_session pair introduces 16 types), so only a sender
  /// binding fresh ids without end meets it.
  static constexpr std::size_t kMaxInboundBindings = 4096;

  /// Ensures an inbound session for (`from`, `token`) exists, replacing
  /// any session under a different token and evicting the least recently
  /// used sender at the cap.
  void open_inbound(const std::string& from, std::uint64_t token);

  /// Records one inline intro (idempotent; later intros for a known wire
  /// id win, which concurrent duplicate intros make identical anyway).
  /// Returns true when the wire id was not known yet. An intro that would
  /// bind past kMaxInboundBindings drops the session instead, so its push
  /// meets unknown wire ids and is answered Reset.
  bool learn(const std::string& from, std::uint64_t token, const SessionIntro& intro);

  /// Resolves a push's wire ids to owned TypeInfoEntry copies. Returns
  /// false — the caller must reply Reset — when the session is gone, the
  /// token is stale, or any wire id is unknown.
  bool resolve(const std::string& from, std::uint64_t token,
               const std::vector<std::uint32_t>& wire_types,
               std::vector<serial::TypeInfoEntry>& out) const;

  /// A protocol-level conformance verdict cached per root wire id.
  struct Verdict {
    bool conformant = false;
    bool code_ready = false;  ///< every envelope type's assembly is loaded
    std::string matched_interest;
    util::InternedName matched_id;
    std::string detail;  ///< rejection reason when !conformant
    std::vector<std::uint32_t> wire_types;
  };

  /// Serves a cached verdict for the exact envelope type set, provided it
  /// was stored under the current invalidation generation.
  [[nodiscard]] std::optional<Verdict> find_verdict(
      const std::string& from, std::uint64_t token, std::uint32_t root,
      const std::vector<std::uint32_t>& wire_types) const;

  /// Stores a verdict computed while the generation was `gen`; discarded
  /// when the generation moved meanwhile (compare-and-store).
  void store_verdict(const std::string& from, std::uint64_t token, std::uint32_t root,
                     Verdict verdict, std::uint64_t gen);

  /// Invalidation: interest-set changes and governor sweeps call this;
  /// every cached verdict becomes unservable and is recomputed on next use.
  void invalidate_verdicts() noexcept {
    generation_.fetch_add(1, std::memory_order_acq_rel);
  }
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  // ---- introspection (tests/diagnostics) ---------------------------

  [[nodiscard]] std::size_t inbound_sessions() const;

 private:
  struct OutboundSession {
    std::uint64_t token = 0;
    std::uint32_t next_wire_id = 1;  ///< 0 is reserved (never bound)
    struct Binding {
      std::uint32_t wire_id = 0;
      bool introduced = false;
    };
    std::unordered_map<std::string, Binding> bindings;
  };

  struct InboundSession {
    std::uint64_t token = 0;
    std::uint64_t last_use = 0;
    std::unordered_map<std::uint32_t, serial::TypeInfoEntry> wire_map;
    struct StoredVerdict {
      Verdict verdict;
      std::uint64_t generation = 0;
    };
    std::unordered_map<std::uint32_t, StoredVerdict> verdicts;
  };

  SessionConfig config_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> next_token_{1};

  mutable std::mutex outbound_mutex_;
  std::unordered_map<std::string, OutboundSession> outbound_;

  mutable std::mutex inbound_mutex_;
  std::uint64_t use_clock_ = 0;  ///< monotone LRU stamp, under inbound_mutex_
  std::unordered_map<std::string, InboundSession> inbound_;
};

}  // namespace pti::transport
