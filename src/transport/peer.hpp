// Peer — one participant in the distributed system, implementing the
// paper's optimistic transport protocol (Fig. 1):
//
//   1. an object arrives wrapped in a hybrid envelope (type names +
//      download paths + payload) — no descriptions, no code;
//   2. the receiver requests descriptions for the type names it does not
//      know yet;
//   3. descriptions arrive; the receiver checks implicit structural
//      conformance against its types of interest (fetching further
//      referenced descriptions on demand);
//   4. only if some interest conforms does it request the code;
//   5. the code (assembly) arrives, the object is deserialized and handed
//      to the application wrapped as the interest type.
//
// Non-conformant pushes are rejected after step 3 — the saving the paper's
// protocol exists for: neither the (large) code nor redundant descriptions
// ever cross the wire. A Peer can also run in Eager mode (ships
// descriptions + assemblies with every object), the baseline benchmark E5
// compares against.
//
// Thread safety: a Peer tolerates concurrent *inbound* requests (a
// concurrent transport delivers on worker threads) and concurrent
// send_object()/send_object_async() calls from application threads — the
// stores underneath (registry, symbol table, conformance cache, domain,
// hub) are thread-safe, the stats are atomic, and the delivered list is
// guarded here. Configuration stays single-threaded: call
// add_interest / set_delivery_handler / set_extra_handler / host_assembly
// before (or between, from one thread) traffic, not during it. The
// delivery handler itself may run on any transport thread and must be
// thread-safe. delivered() returns a reference that is only stable at
// quiescent points; concurrent readers use delivered_count() /
// delivered_snapshot().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "conform/conformance_cache.hpp"
#include "conform/conformance_checker.hpp"
#include "proxy/dynamic_proxy.hpp"
#include "reflect/domain.hpp"
#include "serial/envelope.hpp"
#include "serial/object_serializer.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/protocol_stats.hpp"
#include "transport/session.hpp"
#include "transport/transport.hpp"
#include "util/interning.hpp"

namespace pti::transport {

enum class ProtocolMode : std::uint8_t {
  Optimistic,  ///< the paper's protocol: metadata and code on demand
  Eager,       ///< baseline: descriptions + assemblies with every object
};

/// Which conformance relation gates delivery (the paper's rules vs the
/// Section 2 baselines). All modes still produce adaptation plans through
/// the checker; the matcher only decides *whether* an interest matches.
enum class MatcherKind : std::uint8_t {
  ImplicitStructural,  ///< the paper's rule (default)
  Exact,               ///< type identity only (.NET CTS / plain RMI)
  Nominal,             ///< identity or declared subtyping (CORBA-style)
  TaggedStructural,    ///< Läufer et al.: tagged types, exact signatures
};

/// Cap on description-fetch rounds per conformance decision, and per
/// remote import's description closure.
inline constexpr std::size_t kMaxFetchRounds = 16;

struct PeerConfig {
  ProtocolMode mode = ProtocolMode::Optimistic;
  MatcherKind matcher = MatcherKind::ImplicitStructural;
  /// Payload serializer for pass-by-value objects ("soap", "binary", "xml").
  std::string payload_encoding = "soap";
  conform::ConformanceOptions conformance{};
  /// Keep every DeliveredObject in delivered() (the test/diagnostic
  /// record). Long-running or benchmarked peers turn this off — the
  /// delivery handler still fires per object, but nothing accumulates.
  bool retain_delivered = true;
  /// Session-layer protocol: pushes travel as SessionPush frames carrying
  /// compact wire ids and raw payload bytes; first-contact types ride
  /// along as inline intros and conformance verdicts are cached per
  /// session, so a warmed push is exactly one framed exchange.
  bool use_sessions = false;
  SessionConfig session{};
};

/// What the application receives when a pushed object matched an interest.
struct DeliveredObject {
  std::shared_ptr<reflect::DynObject> object;   ///< the raw deserialized object
  std::shared_ptr<reflect::DynObject> adapted;  ///< usable as the interest type
  std::string interest_type;                    ///< which interest matched
  /// Interned id of the matched interest's qualified name — the key the
  /// core layer dispatches handlers on without touching the string.
  util::InternedName interest_id;
  std::string sender;
};

class Peer {
 public:
  Peer(std::string name, Transport& network, std::shared_ptr<AssemblyHub> hub,
       PeerConfig config = {});
  ~Peer();
  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] reflect::Domain& domain() noexcept { return domain_; }
  [[nodiscard]] conform::ConformanceChecker& checker() noexcept { return checker_; }
  [[nodiscard]] conform::ConformanceCache& conformance_cache() noexcept { return cache_; }
  [[nodiscard]] proxy::ProxyFactory& proxies() noexcept { return proxies_; }
  [[nodiscard]] ProtocolStats& stats() noexcept { return stats_; }
  [[nodiscard]] const PeerConfig& config() const noexcept { return config_; }
  [[nodiscard]] Transport& network() noexcept { return network_; }
  [[nodiscard]] serial::SerializerRegistry& serializers() noexcept { return serializers_; }
  /// The session-layer state (wire-id tables, verdict cache). Present in
  /// every peer; only consulted when config().use_sessions is set. Wire a
  /// governor's post-sweep hook to sessions().invalidate_verdicts() so
  /// reclamation never leaves a stale cached verdict servable.
  [[nodiscard]] SessionTable& sessions() noexcept { return sessions_; }

  /// Loads the assembly locally and hosts it for download by other peers
  /// (descriptions get download path "net://<peer>/<assembly>"). Returns
  /// the registered descriptions in assembly order (empty on re-host).
  std::vector<const reflect::TypeDescription*> host_assembly(
      std::shared_ptr<const reflect::Assembly> assembly);

  /// Declares a type of interest; the name must resolve in the local
  /// registry (you subscribe with *your* type). Returns the interned id of
  /// the interest's qualified name (the dispatch key). Registration goes
  /// through the hub's shared InterestIndex — the one matching engine.
  util::InternedName add_interest(std::string_view type_name);
  /// Interest declared by an already-resolved local description — the
  /// handle-based fast path (no registry lookup).
  util::InternedName add_interest(const reflect::TypeDescription& interest);
  /// Interned ids of the declared interests, in declaration order.
  [[nodiscard]] std::vector<util::InternedName> interest_ids() const;

  using DeliveryHandler = std::function<void(const DeliveredObject&)>;
  void set_delivery_handler(DeliveryHandler handler) { on_delivery_ = std::move(handler); }

  /// Pass-by-value transfer of an object graph to another peer. Proxy
  /// wrappers are stripped before serialization (the wire carries real
  /// state). Throws NetworkError/ProtocolError on failure.
  PushAck send_object(std::string_view to, const std::shared_ptr<reflect::DynObject>& object);

  /// Non-blocking variant over Transport::send_async: serialization
  /// happens on the calling thread, the exchange on a transport thread.
  /// The future carries the PushAck or the exception send_object would
  /// have thrown. Under the synchronous fallback transports (SimNetwork)
  /// the exchange completes before this returns. In-flight async sends
  /// are tracked: ~Peer blocks until their completions have run, so the
  /// futures always resolve and never touch a dead peer.
  ///
  /// With config().session.max_batch > 1 (session mode only), async pushes
  /// to the same recipient queue in a batching window and travel as one
  /// SessionBatch frame once the window fills; each future resolves from
  /// its own slot of the batch's ack, so it reports what the push would
  /// have reported sent alone. A partially filled window flushes on a
  /// synchronous send to that recipient, on flush_session_batches(), and
  /// at peer teardown.
  [[nodiscard]] std::future<PushAck> send_object_async(
      std::string_view to, const std::shared_ptr<reflect::DynObject>& object);

  /// Drains every pending batching window now (no-op when none). Call
  /// after a burst of send_object_async calls shorter than max_batch.
  void flush_session_batches();

  /// Objects delivered to this peer so far (most recent last). The
  /// reference is stable only at quiescent points — while transport
  /// threads are delivering, use delivered_count()/delivered_snapshot().
  [[nodiscard]] const std::vector<DeliveredObject>& delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::size_t delivered_count() const;
  [[nodiscard]] std::vector<DeliveredObject> delivered_snapshot() const;

  /// Extension point: a hook that may consume messages before the standard
  /// protocol handler (the remoting layer installs itself here).
  using ExtraHandler = std::function<std::optional<Message>(const Message&)>;
  void set_extra_handler(ExtraHandler handler) { extra_handler_ = std::move(handler); }

  /// Fetches missing descriptions from `from`; returns how many were newly
  /// registered. Public because the remoting layer runs the same
  /// description dance for invocation arguments and results.
  std::size_t fetch_descriptions(std::string_view from, std::vector<std::string> names);

  /// Runs protocol steps 2+4+5 (descriptions, then code) for a set of
  /// type-info entries without interest matching — the remoting layer's
  /// path for making argument/result types usable.
  void ensure_types_usable(const std::vector<serial::TypeInfoEntry>& types,
                           std::string_view counterpart);

  /// The value that travels for `object`: null rejected, proxy unwrapped —
  /// the shared front half of every push shape and of remoting's marshal.
  [[nodiscard]] reflect::Value wire_value(const std::shared_ptr<reflect::DynObject>& object);

 private:
  Message handle(const Message& request);
  [[nodiscard]] TypeInfoResponse handle_typeinfo(const TypeInfoRequest& request);
  [[nodiscard]] CodeResponse handle_code(const CodeRequest& request);

  // --- receiver: one decision core, one function per protocol step ------

  using Verdict = SessionTable::Verdict;

  PushAck handle_object_push(const std::string& sender, const ObjectPush& push);
  /// Answers kind 9, or one entry of kind 11: the push's ack with its
  /// known-description advertisement, or an Error slot with what it failed
  /// with, so a failing entry never fails the rest of its batch.
  SessionAck answer_session_push(const std::string& sender, const SessionPush& push);
  /// Learns the push's intros and decides it; `held` receives the content
  /// hashes of the intro descriptions the receiver now holds.
  SessionAck process_session_push(const std::string& sender, const SessionPush& push,
                                  std::vector<std::uint64_t>& held);
  /// Records `held` (capped) and advertises it in `ack`; a Reset ack
  /// carries the receiver's whole known set instead, capped.
  void advertise_known_descriptions(std::vector<std::uint64_t> held, SessionAck& ack);

  /// Protocol steps 2–5 for a push whose graph types are `types` (root
  /// first). A session push passes itself as `session`: its verdict is
  /// served from and stored in the session's cache.
  [[nodiscard]] Verdict decide(const std::string& sender,
                               const std::vector<serial::TypeInfoEntry>& types,
                               const SessionPush* session);
  /// The delivery tail: the decoded `root`, wrapped as the matched interest.
  PushAck deliver(const std::string& sender, const reflect::Value& root, Verdict verdict);
  /// Step 2: fetches the descriptions of `types` this peer lacks (refused
  /// when !may_fetch). Returns false when none was missing.
  bool describe_types(const std::vector<serial::TypeInfoEntry>& types, std::string_view from,
                      bool may_fetch);
  /// Step 3's conformance check, fetching referenced descriptions on demand.
  [[nodiscard]] conform::CheckResult check_with_fetch(
      const reflect::TypeDescription& source, const reflect::TypeDescription& target,
      std::string_view sender);
  /// Steps 4–5: loads the code of every type in `types`. Returns whether
  /// any assembly was downloaded.
  bool ensure_code(const std::vector<serial::TypeInfoEntry>& types, std::string_view sender);
  /// The registry boundary for supplied descriptions: parse all, charge
  /// `from`'s distinct-name budget for the new ones, then register all.
  std::size_t register_descriptions(std::string_view from,
                                    const std::vector<std::string>& descriptions_xml);
  void load_prepaid_assemblies(const std::vector<std::string>& assembly_names);

  // --- sender: one completion path ----------------------------------------

  /// Serializes the object (and, in Eager mode, its metadata/code closure)
  /// into the wire payload of a push.
  [[nodiscard]] ObjectPush build_push(const std::shared_ptr<reflect::DynObject>& object);

  /// What a session push carries for one object: the graph's TypeInfo
  /// entries (root first) and the standalone payload bytes.
  struct SessionObject {
    std::vector<serial::TypeInfoEntry> types;
    std::string encoding;
    std::vector<std::uint8_t> payload;
  };
  [[nodiscard]] SessionObject build_session_object(
      const std::shared_ptr<reflect::DynObject>& object);

  /// Transitive description closure of `roots` in deterministic DFS order
  /// (primitives and unknown names skipped) — what Eager mode ships and
  /// what session intros piggyback.
  [[nodiscard]] std::vector<const reflect::TypeDescription*> collect_closure(
      std::vector<std::string> roots);

  /// What to commit once a planned session push is acknowledged.
  struct SessionPlan {
    std::uint64_t token = 0;
    std::vector<std::string> names;
    std::vector<std::size_t> fresh;
  };
  /// What earlier entries of the same frame carry: intros by type name,
  /// eager-prepaid assemblies by assembly name.
  struct Carried {
    std::set<std::string, util::ICaseLess> intros;
    std::set<std::string, util::ICaseLess> assemblies;
  };
  /// Plans the push in `plan` as if it travelled alone. Its intros and
  /// prepaid assemblies skip what `carried` holds and add their own: the
  /// receiver learns each from the first entry of the frame that carries it.
  [[nodiscard]] SessionPush build_session_push(const std::string& to,
                                               const SessionObject& object, SessionPlan& plan,
                                               Carried& carried);

  /// One async session push awaiting its ack.
  struct PendingPush {
    SessionObject object;
    std::promise<PushAck> promise;
    SessionPlan plan;  ///< made when its window is sent
    bool may_replay = true;
  };
  /// Sends a window as one exchange — a SessionBatch for a batching queue,
  /// else its single SessionPush — and settles each slot from the reply.
  /// Failures resolve the futures; nothing is thrown.
  void send_window(const std::string& recipient, std::vector<PendingPush> window, bool batch);
  void flush_batch_window(const std::string& recipient);

  /// The one tracked async send: ~Peer waits for every `complete` to run.
  template <class Complete>
  void dispatch(Message request, Complete complete);
  /// The per-slot settle: Ok commits `plan` and yields the PushAck, Error
  /// throws what the push failed with, Reset drops the session and yields
  /// nullopt for the caller's one replay (or throws when none is left).
  std::optional<PushAck> settle(const std::string& to, SessionAck& ack,
                                const SessionPlan* plan, bool may_replay);

  std::string name_;
  Transport& network_;
  std::shared_ptr<AssemblyHub> hub_;
  PeerConfig config_;

  reflect::Domain domain_;
  conform::ConformanceCache cache_;
  conform::ConformanceChecker checker_;
  proxy::ProxyFactory proxies_;
  serial::SerializerRegistry serializers_;

  /// This peer's subscriber slot in hub_->interests() — the shared
  /// inverted index that owns the interest registrations themselves.
  SubscriberId sub_ = kNoSubscriber;

  /// Guards delivered_ (transport worker threads append concurrently).
  mutable std::mutex delivered_mutex_;
  std::vector<DeliveredObject> delivered_;

  /// Outbound async sends whose completion callback has not run yet.
  /// ~Peer waits for zero — the callbacks capture `this` for the stats.
  struct OutboundTracker {
    std::mutex mutex;
    std::condition_variable idle;
    std::size_t in_flight = 0;

    void add() {
      std::scoped_lock lock(mutex);
      ++in_flight;
    }
    void done() noexcept {
      // Notify UNDER the mutex: the waiter in wait_idle may destroy this
      // tracker the moment it re-acquires the lock and sees zero, so the
      // notify must complete before the lock is released.
      std::scoped_lock lock(mutex);
      --in_flight;
      idle.notify_all();
    }
    void wait_idle() {
      std::unique_lock lock(mutex);
      idle.wait(lock, [this] { return in_flight == 0; });
    }
  };
  OutboundTracker outbound_;

  DeliveryHandler on_delivery_;
  ExtraHandler extra_handler_;
  ProtocolStats stats_;
  SessionTable sessions_;

  /// Batching windows, one per recipient (session mode, max_batch > 1).
  /// The lock is never held across a network call: flush extracts the
  /// window under the lock and sends outside it.
  std::mutex batch_mutex_;
  std::unordered_map<std::string, std::vector<PendingPush>> batch_windows_;

  /// Content hashes (FNV-64 of canonical XML) of type descriptions this
  /// peer holds, as receiver — what gets advertised in Reset/first acks.
  /// At most IntroRegistry::kMaxHashesPerReceiver: no sender keeps more.
  mutable std::mutex desc_hashes_mutex_;
  std::unordered_set<std::uint64_t> known_desc_hashes_;
};

}  // namespace pti::transport
