// LightweightPeer — a full protocol participant at population weight.
//
// Where transport::Peer carries a Domain, checker, serializer registry,
// proxy factory and per-peer caches (~tens of KB plus per-message XML
// work), a LightweightPeer carries two bitsets and a counter block
// (~hundreds of bytes) plus, in session mode, one bitset row per session
// partner, which is what makes 10^5-10^6 of them tractable.
// What it does NOT lighten is the protocol: it attaches to the same
// Transport seam, exchanges the same ObjectPush/TypeInfoRequest/
// CodeRequest messages with real envelope bytes and real description XML
// crossing the (simulated) wire, registers interests in the same shared
// InterestIndex, and matches via the same match_first scan Peer uses.
// As in Peer, each role has one core: decide() answers every push shape,
// settle() reads every session ack, and outcomes come from replies alone.
// The differences are all precomputation, delegated to TypeUniverse:
//   * pushed-type resolution is a content-hash probe, not an XML parse;
//   * the conformance verdict is a matrix probe, not a checker run (the
//     matrix was filled by the real checker, once);
//   * "known descriptions" and "loaded assemblies" are bitsets over the
//     universe's families instead of registry/domain state.
//
// Optimistic mode fetches descriptions and code on demand and skips the
// code fetch entirely on rejection — the paper's saving. Eager mode ships
// both with every push. The accept/reject decisions are identical.
//
// Thread safety: none; drive from the owning scenario's event loop.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/type_universe.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/peer.hpp"
#include "transport/transport.hpp"
#include "util/flat_id_map.hpp"

namespace pti::sim {

/// Per-peer fetch counters (aggregated into the scenario's stats).
struct PeerCounters {
  std::uint64_t typeinfo_requests = 0;
  std::uint64_t code_requests = 0;
  std::uint64_t code_bytes_fetched = 0;
};

class LightweightPeer {
 public:
  static constexpr std::uint32_t kNoInterest = 0xFFFFFFFFu;

  /// Registers in `hub`'s InterestIndex. In session mode, acks advertise
  /// description hashes into `hub`'s IntroRegistry and senders consult it
  /// to elide description bytes: a byte-saving hint, never a verdict input.
  LightweightPeer(std::uint32_t index, transport::Transport& network,
                  TypeUniverse& universe, transport::AssemblyHub& hub,
                  transport::ProtocolMode mode, bool use_sessions = false);
  ~LightweightPeer();
  LightweightPeer(const LightweightPeer&) = delete;
  LightweightPeer& operator=(const LightweightPeer&) = delete;

  [[nodiscard]] std::uint32_t index() const noexcept { return index_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] bool live() const noexcept { return live_; }
  [[nodiscard]] transport::SubscriberId subscriber() const noexcept { return sub_; }

  /// The interest families this peer subscribes with (fixed across
  /// leave/rejoin, so churn is reversible and deterministic). Set before
  /// the first join().
  void set_interests(std::vector<std::uint32_t> interest_families);
  [[nodiscard]] const std::vector<std::uint32_t>& interest_families() const noexcept {
    return interest_families_;
  }

  /// Attaches to the network and registers every interest in the shared
  /// index (idempotent when live).
  void join();
  /// Detaches and unregisters; the subscriber id returns to the index's
  /// free list (reused LIFO — part of the determinism contract).
  void leave();

  struct PushOutcome {
    bool delivered = false;  ///< receiver accepted (a conformant interest)
    bool dropped = false;    ///< the network dropped or faulted the exchange
    /// Interest family the receiver matched, read from the ack's detail
    /// (kNoInterest unless delivered).
    std::uint32_t matched = kNoInterest;
  };
  /// Publishes family `family` to `target` (one full protocol exchange).
  PushOutcome publish_to(const LightweightPeer& target, std::uint32_t family);
  /// Publishes several families to `target` as ONE SessionBatch frame
  /// (session mode only). Entries are processed by the receiver in order
  /// and acked positionally; a Reset slot gets its one replay on its own,
  /// so a refused entry never desynchronises the rest. Per-entry outcomes
  /// land in `out`, in input order.
  void publish_batch_to(const LightweightPeer& target,
                        const std::vector<std::uint32_t>& families,
                        std::vector<PushOutcome>& out);

  [[nodiscard]] const PeerCounters& counters() const noexcept { return counters_; }

 private:
  [[nodiscard]] transport::Message handle(const transport::Message& request);
  /// Cold receive: envelope resolution, eager extras and step 2
  /// (description fetch), then decide().
  [[nodiscard]] transport::PushAck handle_push(const std::string& sender,
                                               const transport::ObjectPush& push);
  /// The answer to one session push, for kind 9 and for each kind-11 slot:
  /// learns intros, prepays eager assemblies, Resets an unknown wire id,
  /// then decide(). A throw answers this slot alone with Error.
  [[nodiscard]] transport::SessionAck answer_session_push(
      const std::string& sender, const transport::SessionPush& push);
  /// The receiver core, Fig. 1 steps 3-5 for a resolved family: the first
  /// conformant interest, then the code fetch (once per family). A
  /// delivered ack's detail names the matched interest type.
  [[nodiscard]] transport::PushAck decide(const std::string& sender, std::uint32_t family);

  /// Builds one SessionPush for `family`; when `fresh`, attaches the intro
  /// (description bytes elided when the shared registry says `target`
  /// already advertised the hash).
  [[nodiscard]] transport::SessionPush build_session_entry(const std::string& target,
                                                           std::uint32_t family,
                                                           bool fresh);
  /// One unbatched SessionPush of `family`; on Reset, replays once when
  /// `may_replay`.
  PushOutcome push_session(const LightweightPeer& target, std::uint32_t family,
                           bool may_replay);
  /// Reads one SessionAck slot for `family`, sent to the target whose
  /// intro row is `row`: records the advertised hashes; Ok commits the
  /// intro (when `fresh`), Error is a drop, and Reset clears the row and
  /// returns nullopt, the caller's cue to replay.
  [[nodiscard]] std::optional<PushOutcome> settle(const std::string& target, std::size_t row,
                                                  const transport::SessionAck& ack,
                                                  std::uint32_t family, bool fresh);

  /// One bitset over the universe's families per session peer, keyed by
  /// scenario-local peer index; the rows live in one contiguous array.
  class SessionBits {
   public:
    explicit SessionBits(std::size_t families) : words_((families + 63) / 64) {}
    /// The row of `peer`, all clear on first use.
    [[nodiscard]] std::size_t row(std::uint64_t peer);
    [[nodiscard]] bool test(std::size_t row, std::uint32_t family) const noexcept {
      return ((bits_[row * words_ + family / 64] >> (family % 64)) & 1U) != 0;
    }
    void set(std::size_t row, std::uint32_t family) noexcept {
      bits_[row * words_ + family / 64] |= std::uint64_t{1} << (family % 64);
    }
    void clear(std::size_t row) noexcept;

   private:
    std::size_t words_;
    util::FlatIdMap rows_;  ///< peer -> row
    std::vector<std::uint64_t> bits_;
  };

  std::uint32_t index_;
  std::string name_;
  transport::Transport& network_;
  TypeUniverse& universe_;
  transport::AssemblyHub& hub_;
  transport::ProtocolMode mode_;

  bool live_ = false;
  transport::SubscriberId sub_ = transport::kNoSubscriber;
  std::vector<std::uint32_t> interest_families_;
  /// Families whose description / code this peer holds. Knowledge
  /// survives leave/rejoin (a rejoining peer keeps its caches), exactly
  /// like a real peer's registry.
  std::vector<bool> known_;
  std::vector<bool> loaded_;
  PeerCounters counters_;

  /// Session mode: pushes travel as SessionPush frames (wire id = family
  /// index + 1, token = peer index + 1 — both scenario-local, digest-safe).
  /// Sender side tracks which families each target acknowledged an intro
  /// for (commit-on-ack), by target index; receiver side mirrors which wire
  /// ids each sender introduced, by session token. Both survive
  /// leave/rejoin, exactly like known_/loaded_.
  bool use_sessions_ = false;
  SessionBits intro_sent_;
  SessionBits session_known_;
  /// Per-entry "carries an intro" flags of the frame being planned.
  std::vector<bool> batch_fresh_;
};

}  // namespace pti::sim
