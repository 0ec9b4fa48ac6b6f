// transport::SessionTable + the session-layer protocol — the differential
// suite pinning ISSUE 9's contract:
//
//   * cold-then-warm over all three transports: after first contact, a
//     push is exactly ONE framed exchange (request + SessionAck — the
//     NetStats message delta is 2), and every delivery — cold or warm, on
//     any transport — hands the application byte-identical objects;
//   * Reset recovery: a receiver that evicted a sender's session (LRU cap)
//     answers Reset, and the sender transparently replays once with all
//     intros — the push still lands;
//   * hostile consistency: a quota refusal before OR mid-session commits
//     nothing on either side, and the very next admitted push succeeds
//     without a reset;
//   * invalidation: add_interest and governor sweeps bump the verdict
//     generation, so a cached REJECT can never outlive the interest set or
//     the reclamation pass that made it stale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "core/resource_governor.hpp"
#include "fixtures/sample_types.hpp"
#include "protocol_fuzz_common.hpp"
#include "push_shapes.hpp"
#include "tap_transport.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/async_transport.hpp"
#include "transport/intro_registry.hpp"
#include "transport/peer.hpp"
#include "transport/sim_network.hpp"
#include "transport/socket_transport.hpp"
#include "transport/transport_error.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pti {
namespace {

using transport::AssemblyHub;
using transport::AsyncTransport;
using transport::Message;
using transport::Peer;
using transport::PeerConfig;
using transport::PeerQuotaConfig;
using transport::ProtocolMode;
using transport::PushAck;
using transport::SessionAck;
using transport::SessionBatch;
using transport::SessionBatchAck;
using transport::SessionIntro;
using transport::SessionPush;
using transport::SessionStatus;
using transport::SimNetwork;
using transport::SocketTransport;

/// A fixed, guaranteed-conformant shape (no RNG: every transport run must
/// serialize the identical graph so delivered bytes can be compared).
[[nodiscard]] fuzz::Schema fixed_schema() {
  fuzz::Schema schema;
  schema.fields = {{"f0", "int32"}, {"f1", "string"}, {"f2", "int64"}};
  schema.has_child = true;
  schema.child_fields = {{"c0", "string"}, {"c1", "int32"}};
  return schema;
}

[[nodiscard]] fuzz::ValuePlan fixed_values(const fuzz::Schema& schema) {
  util::Rng rng(0x5E55BEEFULL);  // fixed seed => identical values every run
  return fuzz::random_values(schema, rng);
}

/// Serializes a delivered object back to payload bytes through the
/// receiver's own registry — the byte-identity probe.
[[nodiscard]] std::vector<std::uint8_t> payload_bytes_of(Peer& receiver,
                                                         const transport::DeliveredObject& d) {
  return receiver.serializers().get("soap").serialize(reflect::Value(d.object));
}

/// The differential core: one sender/receiver session pair over `net`,
/// one cold push, then three synchronous warm pushes and one async warm
/// push — each warmed exchange must cost exactly two messages (request +
/// ack) and deliver bytes identical to the cold delivery. Returns the
/// delivered payload bytes via `payload_out` so callers can compare runs
/// across transports.
void run_cold_then_warm(transport::Transport& net, const std::string& tag,
                        ProtocolMode mode, std::vector<std::uint8_t>& payload_out) {
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig config{.mode = mode, .use_sessions = true};
  Peer sender("sender", net, hub, config);
  Peer receiver("receiver", net, hub, config);

  const fuzz::Schema schema = fixed_schema();
  util::Rng dummy(1);  // Copy-mode receiver derivation draws nothing
  sender.host_assembly(fuzz::sender_assembly(tag + "s", schema));
  receiver.host_assembly(
      fuzz::receiver_assembly(tag + "r", schema, fuzz::InterestMode::Copy, dummy));
  receiver.add_interest(tag + "r.Thing");
  const fuzz::ValuePlan values = fixed_values(schema);

  // Cold push: intros ride inline, so there is never a TypeInfoRequest —
  // Optimistic still pays one nested code fetch (4 messages total), Eager
  // prepays the assembly inside the push (one exchange even when cold).
  const std::uint64_t cold_before = net.stats().messages.get();
  const PushAck cold =
      sender.send_object("receiver", fuzz::make_object(sender, tag + "s", schema, values));
  ASSERT_TRUE(cold.delivered) << cold.detail;
  const std::uint64_t cold_messages = net.stats().messages.get() - cold_before;
  EXPECT_EQ(cold_messages, mode == ProtocolMode::Optimistic ? 4u : 2u);
  EXPECT_EQ(receiver.stats().typeinfo_requests, 0u)
      << "descriptions must piggyback as intros, never as nested fetches";
  EXPECT_EQ(receiver.stats().session_intros, 2u);  // Thing + Child

  // Warmed pushes: exactly one framed exchange, decided from the session's
  // verdict cache.
  constexpr int kWarmPushes = 3;
  for (int i = 0; i < kWarmPushes; ++i) {
    const std::uint64_t before = net.stats().messages.get();
    const PushAck warm = sender.send_object(
        "receiver", fuzz::make_object(sender, tag + "s", schema, values));
    ASSERT_TRUE(warm.delivered) << warm.detail;
    EXPECT_EQ(warm.detail, cold.detail);
    EXPECT_EQ(net.stats().messages.get() - before, 2u)
        << "warm push " << i << " took more than one framed exchange";
  }
  // And the async path shares the same session state and cost.
  {
    const std::uint64_t before = net.stats().messages.get();
    auto future = sender.send_object_async(
        "receiver", fuzz::make_object(sender, tag + "s", schema, values));
    const PushAck warm = future.get();
    ASSERT_TRUE(warm.delivered) << warm.detail;
    EXPECT_EQ(net.stats().messages.get() - before, 2u);
  }
  EXPECT_EQ(receiver.stats().session_verdict_hits, kWarmPushes + 1u);
  EXPECT_EQ(receiver.stats().session_pushes, kWarmPushes + 2u);
  EXPECT_EQ(receiver.stats().session_resets, 0u);
  EXPECT_EQ(sender.stats().session_retries, 0u);

  // Byte-identical deliveries: every warm delivery re-serializes to the
  // exact bytes of the cold one.
  const auto delivered = receiver.delivered_snapshot();
  ASSERT_EQ(delivered.size(), kWarmPushes + 2u);
  payload_out = payload_bytes_of(receiver, delivered.front());
  ASSERT_FALSE(payload_out.empty());
  for (std::size_t d = 1; d < delivered.size(); ++d) {
    EXPECT_EQ(delivered[d].interest_type, delivered.front().interest_type);
    EXPECT_EQ(payload_bytes_of(receiver, delivered[d]), payload_out)
        << "delivery " << d << " differs from the cold delivery";
  }
  for (const auto& [field, sent] : values.fields) {
    fuzz::expect_same_value(delivered.front().object->get(field), sent,
                            tag + " field " + field);
  }
}

TEST(SessionLayer, WarmedPushIsOneExchangeOnAllThreeTransports) {
  // The same fixed round over the simulator, the thread-pool transport and
  // real loopback sockets: identical one-exchange behavior, and the
  // delivered payload bytes agree across all three.
  std::vector<std::uint8_t> sim_payload;
  std::vector<std::uint8_t> async_payload;
  std::vector<std::uint8_t> socket_payload;
  {
    SimNetwork net;
    run_cold_then_warm(net, "sescw", ProtocolMode::Optimistic, sim_payload);
  }
  {
    AsyncTransport net;
    run_cold_then_warm(net, "sescw", ProtocolMode::Optimistic, async_payload);
    net.drain();
  }
  {
    SocketTransport net;
    run_cold_then_warm(net, "sescw", ProtocolMode::Optimistic, socket_payload);
  }
  EXPECT_EQ(async_payload, sim_payload);
  EXPECT_EQ(socket_payload, sim_payload);
}

TEST(SessionLayer, EagerSessionIsOneExchangeEvenWhenCold) {
  // Eager + sessions prepays descriptions AND assembly bytes inside the
  // push itself: the run_cold_then_warm helper asserts the cold exchange
  // already costs exactly 2 messages in Eager mode.
  std::vector<std::uint8_t> payload;
  SimNetwork net;
  run_cold_then_warm(net, "seseg", ProtocolMode::Eager, payload);
}

TEST(SessionLayer, BatchedWindowTravelsAsOneFrame) {
  // max_batch = 3: three async pushes to the same recipient fill the
  // window and cross the wire as ONE SessionBatch frame — two messages
  // for three deliveries — with per-slot acks resolving every future.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  config.session.max_batch = 3;
  Peer sender("sender", net, hub, config);
  Peer receiver("receiver", net, hub, config);

  const fuzz::Schema schema = fixed_schema();
  util::Rng dummy(1);
  sender.host_assembly(fuzz::sender_assembly("sbw", schema));
  receiver.host_assembly(
      fuzz::receiver_assembly("sbwr", schema, fuzz::InterestMode::Copy, dummy));
  receiver.add_interest("sbwr.Thing");
  const fuzz::ValuePlan values = fixed_values(schema);

  // Warm the session synchronously so the batch below is pure warm path.
  const PushAck cold =
      sender.send_object("receiver", fuzz::make_object(sender, "sbw", schema, values));
  ASSERT_TRUE(cold.delivered) << cold.detail;

  const std::uint64_t before = net.stats().messages.get();
  std::vector<std::future<PushAck>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(sender.send_object_async(
        "receiver", fuzz::make_object(sender, "sbw", schema, values)));
  }
  for (auto& f : futures) {
    const PushAck ack = f.get();
    ASSERT_TRUE(ack.delivered) << ack.detail;
    EXPECT_EQ(ack.detail, cold.detail);
  }
  EXPECT_EQ(net.stats().messages.get() - before, 2u)
      << "a full window must travel as one framed exchange";
  EXPECT_EQ(receiver.stats().session_batches, 1u);
  EXPECT_EQ(receiver.stats().session_verdict_hits, 3u);
  EXPECT_EQ(receiver.stats().session_resets, 0u);
  EXPECT_EQ(sender.stats().session_retries, 0u);
  EXPECT_EQ(receiver.delivered_snapshot().size(), 4u);
}

/// alice (teamA) and bob (interested in teamB.Person) with batching
/// windows of `max_batch`; bob has never heard from alice. Every
/// SessionBatch alice sends passes through `on_batch` on its way in.
struct FirstContact {
  explicit FirstContact(std::size_t max_batch, ProtocolMode mode = ProtocolMode::Optimistic)
      : hub(std::make_shared<AssemblyHub>()),
        alice("alice", net, hub, config(max_batch, mode)),
        bob("bob", net, hub, config(max_batch, mode)) {
    alice.host_assembly(fixtures::team_a_people());
    bob.host_assembly(fixtures::team_b_people());
    bob.add_interest("teamB.Person");
    net.on_send = [this](Message& request) {
      if (auto* batch = std::get_if<SessionBatch>(&request.payload); batch && on_batch) {
        on_batch(*batch);
      }
    };
  }
  static PeerConfig config(std::size_t max_batch, ProtocolMode mode) {
    PeerConfig config{.mode = mode, .use_sessions = true};
    config.session.max_batch = max_batch;
    return config;
  }
  std::shared_ptr<reflect::DynObject> address() {
    const reflect::Value args[] = {reflect::Value("Main St"),
                                   reflect::Value(std::int32_t{42})};
    return alice.domain().instantiate("teamA.Address", args);
  }
  /// A Person with an Address: both types travel in the envelope.
  std::shared_ptr<reflect::DynObject> person(const std::string& name) {
    const reflect::Value args[] = {reflect::Value(name)};
    auto person = alice.domain().instantiate("teamA.Person", args);
    person->set("address", reflect::Value(address()));
    return person;
  }

  testing_support::TapTransport net;
  std::function<void(SessionBatch&)> on_batch;
  std::shared_ptr<AssemblyHub> hub;
  Peer alice;
  Peer bob;
};

TEST(SessionLayer, FirstContactWindowCarriesEachIntroOnce) {
  // Four first-contact pushes in one window: every entry plans its types
  // as fresh (nothing is committed before the ack), but only the first
  // entry carries the intros, and the others resolve on the bindings the
  // receiver learns from it. In Eager mode the first entry alone also
  // prepays the assembly.
  for (const ProtocolMode mode : {ProtocolMode::Optimistic, ProtocolMode::Eager}) {
    const bool eager = mode == ProtocolMode::Eager;
    SCOPED_TRACE(eager ? "eager" : "optimistic");
    FirstContact peers(4, mode);
    std::vector<SessionBatch> batches;
    peers.on_batch = [&batches](SessionBatch& batch) { batches.push_back(batch); };
    std::vector<std::future<PushAck>> acks;
    for (int i = 0; i < 4; ++i) {
      acks.push_back(
          peers.alice.send_object_async("bob", peers.person("P" + std::to_string(i))));
    }
    for (auto& ack : acks) {
      const PushAck delivered = ack.get();
      EXPECT_TRUE(delivered.delivered) << delivered.detail;
    }
    ASSERT_EQ(batches.size(), 1u);
    const SessionBatch& batch = batches.front();
    ASSERT_EQ(batch.entries.size(), 4u);
    std::size_t intros = 0;
    std::size_t xml_bytes = 0;
    for (const SessionPush& entry : batch.entries) {
      intros += entry.intros.size();
      for (const SessionIntro& intro : entry.intros) xml_bytes += intro.description_xml.size();
    }
    EXPECT_EQ(batch.entries.front().intros.size(), 3u);  // Person, Address, INamed
    EXPECT_EQ(intros, 3u);
    EXPECT_EQ(xml_bytes, 1620u);
    const SessionPush& first = batch.entries.front();
    EXPECT_EQ(first.intro_assembly_names,
              eager ? std::vector<std::string>{"teamA.people"} : std::vector<std::string>{});
    EXPECT_EQ(first.intro_assembly_bytes > 0, eager);
    for (std::size_t i = 1; i < batch.entries.size(); ++i) {
      EXPECT_TRUE(batch.entries[i].intro_assembly_names.empty()) << "entry " << i;
      EXPECT_EQ(batch.entries[i].intro_assembly_bytes, 0u) << "entry " << i;
    }
    EXPECT_EQ(peers.bob.stats().session_resets, 0u);
    EXPECT_EQ(peers.alice.stats().session_retries, 0u);
    EXPECT_EQ(peers.bob.delivered_snapshot().size(), 4u);
  }
}

TEST(SessionLayer, EagerWindowPrepaysEachAssemblyOnce) {
  // An entry that still carries some intros skips the assemblies an
  // earlier entry of the same frame prepaid: entry 0 (an Address) prepays
  // teamA.people, and entry 1 (a Person with an Address) introduces Person
  // and INamed but ships no assembly bytes.
  FirstContact peers(2, ProtocolMode::Eager);
  std::vector<SessionBatch> batches;
  peers.on_batch = [&batches](SessionBatch& batch) { batches.push_back(batch); };
  std::future<PushAck> address = peers.alice.send_object_async("bob", peers.address());
  std::future<PushAck> person = peers.alice.send_object_async("bob", peers.person("Ada"));
  EXPECT_FALSE(address.get().delivered);  // bob wants Persons only
  const PushAck landed = person.get();
  EXPECT_TRUE(landed.delivered) << landed.detail;

  ASSERT_EQ(batches.size(), 1u);
  const SessionBatch& batch = batches.front();
  ASSERT_EQ(batch.entries.size(), 2u);
  EXPECT_EQ(batch.entries[0].intros.size(), 1u);  // Address
  EXPECT_EQ(batch.entries[0].intro_assembly_names, std::vector<std::string>{"teamA.people"});
  EXPECT_GT(batch.entries[0].intro_assembly_bytes, 0u);
  EXPECT_EQ(batch.entries[1].intros.size(), 2u);  // Person, INamed
  EXPECT_TRUE(batch.entries[1].intro_assembly_names.empty());
  EXPECT_EQ(batch.entries[1].intro_assembly_bytes, 0u);
  EXPECT_EQ(peers.bob.stats().code_requests, 0u);  // the prepay served both
}

TEST(SessionLayer, LaterEntryReplaysOnceWhenTheCarryingEntryFails) {
  // Entry 0 carries the window's intros and fails while learning them (its
  // description XML is corrupted in transit). Entry 1 then names a wire id
  // bob never learned: bob answers Reset, and entry 1 lands after exactly
  // one replay, with its own intros under a new token.
  FirstContact peers(2);
  peers.on_batch = [](SessionBatch& batch) {
    for (SessionIntro& intro : batch.entries.front().intros) intro.description_xml = "<broken";
  };
  std::future<PushAck> first = peers.alice.send_object_async("bob", peers.person("First"));
  std::future<PushAck> second = peers.alice.send_object_async("bob", peers.person("Second"));
  EXPECT_ANY_THROW((void)first.get());
  const PushAck landed = second.get();
  EXPECT_TRUE(landed.delivered) << landed.detail;
  EXPECT_EQ(peers.bob.stats().session_resets, 1u);
  EXPECT_EQ(peers.alice.stats().session_retries, 1u);
  EXPECT_EQ(peers.bob.delivered_snapshot().size(), 1u);
}

TEST(SessionLayer, PartialWindowFlushesOnSyncSendAndExplicitFlush) {
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  config.session.max_batch = 8;
  Peer sender("sender", net, hub, config);
  Peer receiver("receiver", net, hub, config);

  const fuzz::Schema schema = fixed_schema();
  util::Rng dummy(1);
  sender.host_assembly(fuzz::sender_assembly("sbf", schema));
  receiver.host_assembly(
      fuzz::receiver_assembly("sbfr", schema, fuzz::InterestMode::Copy, dummy));
  receiver.add_interest("sbfr.Thing");
  const fuzz::ValuePlan values = fixed_values(schema);
  const auto make = [&] { return fuzz::make_object(sender, "sbf", schema, values); };

  ASSERT_TRUE(sender.send_object("receiver", make()).delivered);

  // Two parked pushes, then a synchronous send: the sync path must flush
  // the window FIRST (order preserved), then run its own exchange.
  auto f0 = sender.send_object_async("receiver", make());
  auto f1 = sender.send_object_async("receiver", make());
  const std::uint64_t before = net.stats().messages.get();
  const PushAck sync = sender.send_object("receiver", make());
  ASSERT_TRUE(sync.delivered) << sync.detail;
  EXPECT_EQ(net.stats().messages.get() - before, 4u)
      << "one batch frame for the window, one frame for the sync push";
  ASSERT_TRUE(f0.get().delivered);
  ASSERT_TRUE(f1.get().delivered);
  EXPECT_EQ(receiver.stats().session_batches, 1u);

  // An explicit flush drains a lone parked push; a second flush is a no-op.
  auto f2 = sender.send_object_async("receiver", make());
  sender.flush_session_batches();
  ASSERT_TRUE(f2.get().delivered);
  EXPECT_EQ(receiver.stats().session_batches, 2u);
  const std::uint64_t idle = net.stats().messages.get();
  sender.flush_session_batches();
  EXPECT_EQ(net.stats().messages.get(), idle);
  EXPECT_EQ(receiver.delivered_snapshot().size(), 5u);
}

TEST(SessionLayer, SharedIntroRegistryElidesSecondSenderDescriptions) {
  // alice and bob host the SAME generated assembly (identical description
  // XML). alice's cold push ships the descriptions; carol's ack advertises
  // their content hashes into the hub-level registry; bob's cold push then
  // skips the description bytes entirely — his intros still bind wire ids,
  // carol still delivers, and nobody ever falls back to a TypeInfoRequest.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  Peer alice("alice", net, hub, config);
  Peer bob("bob", net, hub, config);
  Peer carol("carol", net, hub, config);

  const fuzz::Schema schema = fixed_schema();
  util::Rng dummy(1);
  // ONE assembly instance hosted by both senders: "the same type" means
  // the same assembly (same GUIDs, so byte-identical description XML) —
  // two independently built look-alikes are distinct types and would
  // rightly hash apart.
  const auto shared_assembly = fuzz::sender_assembly("sirs", schema);
  alice.host_assembly(shared_assembly);
  bob.host_assembly(shared_assembly);
  carol.host_assembly(
      fuzz::receiver_assembly("sirr", schema, fuzz::InterestMode::Copy, dummy));
  carol.add_interest("sirr.Thing");
  const fuzz::ValuePlan values = fixed_values(schema);

  const PushAck first =
      alice.send_object("carol", fuzz::make_object(alice, "sirs", schema, values));
  ASSERT_TRUE(first.delivered) << first.detail;
  EXPECT_EQ(alice.stats().session_intro_skips, 0u);
  EXPECT_GT(hub->intro_registry().known_count("carol"), 0u);

  const std::uint64_t bytes_before = net.stats().bytes.get();
  const PushAck second =
      bob.send_object("carol", fuzz::make_object(bob, "sirs", schema, values));
  const std::uint64_t second_bytes = net.stats().bytes.get() - bytes_before;
  ASSERT_TRUE(second.delivered) << second.detail;
  EXPECT_EQ(bob.stats().session_intro_skips, 2u);  // Thing + Child elided
  EXPECT_EQ(carol.stats().typeinfo_requests, 0u);
  EXPECT_EQ(carol.stats().session_resets, 0u);
  EXPECT_EQ(carol.delivered_snapshot().size(), 2u);

  // The elided cold push is strictly smaller than the described one. Both
  // runs repeat the identical protocol otherwise (optimistic, one nested
  // code fetch), so the delta is exactly the description bytes.
  SimNetwork isolated;
  auto fresh_hub = std::make_shared<AssemblyHub>();
  Peer dave("dave", isolated, fresh_hub, config);
  Peer erin("erin", isolated, fresh_hub, config);
  dave.host_assembly(fuzz::sender_assembly("sirs", schema));
  erin.host_assembly(
      fuzz::receiver_assembly("sirr", schema, fuzz::InterestMode::Copy, dummy));
  erin.add_interest("sirr.Thing");
  const std::uint64_t cold_before = isolated.stats().bytes.get();
  ASSERT_TRUE(
      dave.send_object("erin", fuzz::make_object(dave, "sirs", schema, values)).delivered);
  const std::uint64_t described_bytes = isolated.stats().bytes.get() - cold_before;
  EXPECT_LT(second_bytes, described_bytes);
}

// Every session push shape settles through the same per-slot path: a
// Reset replays the sync push, the unbatched async push and the batch slot
// alike, exactly once.
class SessionReplay : public ::testing::TestWithParam<testing_support::PushShape> {};

TEST_P(SessionReplay, EvictedSessionResetsAndReplaysTransparently) {
  // carol remembers at most ONE sender session: alice and bob pushing
  // alternately evict each other every time. Every evicted sender sees a
  // Reset ack and must replay once with all intros — the application-level
  // result (delivered == true) never changes.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig sender_config = testing_support::with_shape(
      PeerConfig{.mode = ProtocolMode::Optimistic, .use_sessions = true}, GetParam());
  PeerConfig receiver_config = sender_config;
  receiver_config.session.max_peer_sessions = 1;
  Peer alice("alice", net, hub, sender_config);
  Peer bob("bob", net, hub, sender_config);
  Peer carol("carol", net, hub, receiver_config);

  const fuzz::Schema schema = fixed_schema();
  util::Rng dummy(1);
  alice.host_assembly(fuzz::sender_assembly("sevA", schema));
  bob.host_assembly(fuzz::sender_assembly("sevB", schema));
  carol.host_assembly(
      fuzz::receiver_assembly("sevRa", schema, fuzz::InterestMode::Copy, dummy));
  carol.host_assembly(
      fuzz::receiver_assembly("sevRb", schema, fuzz::InterestMode::Copy, dummy));
  carol.add_interest("sevRa.Thing");
  carol.add_interest("sevRb.Thing");
  const fuzz::ValuePlan values = fixed_values(schema);

  for (int round = 0; round < 3; ++round) {
    const PushAck a = testing_support::push_as(
        GetParam(), alice, "carol", fuzz::make_object(alice, "sevA", schema, values));
    ASSERT_TRUE(a.delivered) << "alice round " << round << ": " << a.detail;
    const PushAck b = testing_support::push_as(
        GetParam(), bob, "carol", fuzz::make_object(bob, "sevB", schema, values));
    ASSERT_TRUE(b.delivered) << "bob round " << round << ": " << b.detail;
    EXPECT_EQ(carol.sessions().inbound_sessions(), 1u);
  }

  // Round 0 establishes both sessions (bob's cold push evicts alice's
  // session silently — his own intros are fresh, so nothing resets); from
  // round 1 on, every push comes from the just-evicted sender: 2 resets
  // per round, each followed by exactly one replay.
  EXPECT_EQ(carol.stats().session_resets, 4u);
  EXPECT_EQ(alice.stats().session_retries + bob.stats().session_retries, 4u);
  EXPECT_EQ(carol.stats().objects_delivered, 6u);
  EXPECT_EQ(carol.delivered_snapshot().size(), 6u);
  // Frame kinds: a flushed batching window is a SessionBatch even with one
  // entry; sync pushes, unbatched async pushes and replays are SessionPush.
  EXPECT_EQ(carol.stats().session_batches,
            GetParam() == testing_support::PushShape::Batched ? 6u : 0u);
}

INSTANTIATE_TEST_SUITE_P(PushShapes, SessionReplay,
                         ::testing::Values(testing_support::PushShape::Sync,
                                           testing_support::PushShape::Async,
                                           testing_support::PushShape::Batched),
                         testing_support::shape_param_name);

TEST(SessionLayer, FailingBatchEntryFailsOnlyItsOwnSlot) {
  // A window of two first contacts: entry 0's code is published; entry 1's
  // assembly is loaded by the sender but never published to the hub, so
  // its code fetch fails. The receiver delivers entry 0, and entry 0's
  // future must say so; only entry 1's future fails, with what the same
  // push sent alone fails with.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  config.session.max_batch = 2;
  Peer sender("sender", net, hub, config);
  Peer receiver("receiver", net, hub, config);

  const fuzz::Schema schema = fixed_schema();
  util::Rng dummy(1);
  sender.host_assembly(fuzz::sender_assembly("pa", schema));
  sender.domain().load_assembly(fuzz::sender_assembly("pb", schema), "net://sender/pb.gen");
  receiver.host_assembly(
      fuzz::receiver_assembly("pbr", schema, fuzz::InterestMode::Copy, dummy));
  receiver.add_interest("pbr.Thing");
  const fuzz::ValuePlan values = fixed_values(schema);

  auto ok = sender.send_object_async("receiver", fuzz::make_object(sender, "pa", schema, values));
  auto bad =
      sender.send_object_async("receiver", fuzz::make_object(sender, "pb", schema, values));
  const PushAck delivered = ok.get();
  EXPECT_TRUE(delivered.delivered) << delivered.detail;
  EXPECT_EQ(delivered.detail, "pbr.Thing");
  std::string batched_error;
  try {
    (void)bad.get();
    ADD_FAILURE() << "the entry whose code is unavailable was acknowledged";
  } catch (const transport::ProtocolError& e) {
    batched_error = e.what();
  }
  EXPECT_NE(batched_error.find("assembly 'pb.gen' is not available from 'sender'"),
            std::string::npos)
      << batched_error;
  EXPECT_EQ(receiver.stats().session_batches, 1u);
  EXPECT_EQ(receiver.delivered_snapshot().size(), 1u);

  // Sent alone, the failing push throws the same error.
  try {
    (void)sender.send_object("receiver", fuzz::make_object(sender, "pb", schema, values));
    ADD_FAILURE() << "the unbatched push was acknowledged";
  } catch (const transport::ProtocolError& e) {
    EXPECT_EQ(std::string(e.what()), batched_error);
  }
  EXPECT_EQ(receiver.delivered_snapshot().size(), 1u);
}

TEST(SessionLayer, QuotaRefusalLeavesSessionConsistent) {
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  Peer sender("sender", net, hub, config);
  Peer receiver("receiver", net, hub, config);

  const fuzz::Schema schema = fixed_schema();
  util::Rng dummy(1);
  sender.host_assembly(fuzz::sender_assembly("sqfs", schema));
  receiver.host_assembly(
      fuzz::receiver_assembly("sqfr", schema, fuzz::InterestMode::Copy, dummy));
  receiver.add_interest("sqfr.Thing");
  const fuzz::ValuePlan values = fixed_values(schema);
  const auto push = [&] {
    return sender.send_object("receiver",
                              fuzz::make_object(sender, "sqfs", schema, values));
  };

  // Phase 1: the cold push (payload + inline intros) exceeds the frame cap
  // and is refused AT THE SEAM — the receiver never sees it, so neither
  // side commits anything.
  PeerQuotaConfig strict;
  strict.max_frame_bytes = 64;
  net.set_peer_quota("sender", strict);
  EXPECT_THROW((void)push(), pti::ResourceExhaustedError);
  EXPECT_EQ(receiver.stats().session_pushes, 0u);
  EXPECT_EQ(receiver.sessions().inbound_sessions(), 0u);

  // Phase 2: lift the quota — the next push still carries its intros
  // (nothing was marked introduced) and simply succeeds.
  net.set_peer_quota("sender", PeerQuotaConfig{});
  const PushAck cold = push();
  ASSERT_TRUE(cold.delivered) << cold.detail;
  EXPECT_EQ(receiver.stats().session_intros, 2u);

  // Phase 3: tighten the cap mid-session, below even the warm push size.
  // The refusal must not poison the established session on either side.
  net.set_peer_quota("sender", strict);
  EXPECT_THROW((void)push(), pti::ResourceExhaustedError);

  // Phase 4: lift again — the warmed path resumes untouched: verdict hit,
  // one exchange, no reset, no replay.
  net.set_peer_quota("sender", PeerQuotaConfig{});
  const std::uint64_t before = net.stats().messages.get();
  const PushAck warm = push();
  ASSERT_TRUE(warm.delivered) << warm.detail;
  EXPECT_EQ(net.stats().messages.get() - before, 2u);
  EXPECT_EQ(receiver.stats().session_verdict_hits, 1u);
  EXPECT_EQ(receiver.stats().session_resets, 0u);
  EXPECT_EQ(sender.stats().session_retries, 0u);
}

TEST(SessionLayer, HostileIntroNamesAreChargedBeforeTheHandlerRuns) {
  // A hand-crafted SessionPush flooding never-interned intro names is the
  // session-mode variant of the TypeInfoRequest name flood: the distinct-
  // name budget must refuse it at the transport seam, leaving the
  // receiver's session table untouched.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  Peer receiver("receiver", net, hub, config);

  PeerQuotaConfig strict;
  strict.max_new_names = 2;
  net.set_default_peer_quota(strict);

  SessionPush flood;
  flood.token = 77;
  for (int i = 0; i < 3; ++i) {
    SessionIntro intro;
    intro.wire_id = static_cast<std::uint32_t>(i + 1);
    intro.type_name = "sessflood.never.N" + std::to_string(i);
    flood.intros.push_back(std::move(intro));
  }
  EXPECT_THROW((void)net.send(Message{"mallory", "receiver", std::move(flood)}),
               pti::ResourceExhaustedError);
  EXPECT_EQ(receiver.stats().session_pushes, 0u);
  EXPECT_EQ(receiver.sessions().inbound_sessions(), 0u);
  ASSERT_NE(net.peer_quotas(), nullptr);
  EXPECT_EQ(net.peer_quotas()->stats().rejected_names, 1u);
}

TEST(SessionLayer, StuffedAcksCannotGrowTheIntroRegistry) {
  // A hostile receiver answers every session push with acks stuffed with
  // never-seen description hashes. The sender folds every ack into the hub
  // registry — on the sync, the unbatched async and the batched path — and
  // the receiver's set must stay at the cap however many acks arrive.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  Peer sender("sender", net, hub, config);
  config.session.max_batch = 2;
  Peer batcher("batcher", net, hub, config);
  const fuzz::Schema schema = fixed_schema();
  const auto assembly = fuzz::sender_assembly("sstuff", schema);
  sender.host_assembly(assembly);
  batcher.host_assembly(assembly);
  const fuzz::ValuePlan values = fixed_values(schema);

  constexpr std::size_t kCap = transport::IntroRegistry::kMaxHashesPerReceiver;
  std::uint64_t next_hash = 1;
  const auto stuffed_ack = [&] {
    SessionAck ack{SessionStatus::Ok, true, "mallory.Thing", {}};
    for (std::size_t i = 0; i < kCap / 2 + 1; ++i) {
      ack.known_desc_hashes.push_back(next_hash++);
    }
    return ack;
  };
  net.attach("mallory", [&](const Message& m) {
    if (const auto* batch = std::get_if<SessionBatch>(&m.payload)) {
      SessionBatchAck back;
      for (std::size_t i = 0; i < batch->entries.size(); ++i) {
        back.entries.push_back(stuffed_ack());
      }
      return Message{"mallory", m.sender, std::move(back)};
    }
    return Message{"mallory", m.sender, stuffed_ack()};
  });
  const auto known = [&] { return hub->intro_registry().known_count("mallory"); };
  const auto object = [&](Peer& from) {
    return fuzz::make_object(from, "sstuff", schema, values);
  };

  ASSERT_TRUE(sender.send_object("mallory", object(sender)).delivered);
  EXPECT_EQ(known(), kCap / 2 + 1);
  ASSERT_TRUE(sender.send_object("mallory", object(sender)).delivered);
  EXPECT_EQ(known(), kCap);
  ASSERT_TRUE(sender.send_object_async("mallory", object(sender)).get().delivered);
  EXPECT_EQ(known(), kCap);
  auto f0 = batcher.send_object_async("mallory", object(batcher));
  auto f1 = batcher.send_object_async("mallory", object(batcher));
  ASSERT_TRUE(f0.get().delivered);
  ASSERT_TRUE(f1.get().delivered);
  EXPECT_EQ(known(), kCap);
  EXPECT_GE(next_hash, 5 * (kCap / 2 + 1));  // every ack was stuffed
}

TEST(SessionLayer, InboundSessionBindingsAreCapped) {
  // A hostile sender binds fresh wire ids to the already-interned int32,
  // which the name budget charges nothing. The intro that would pass the
  // cap answers Reset and drops the inbound session, with every binding it
  // held; a session at the cap still works.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  Peer receiver("receiver", net, hub, config);
  PeerQuotaConfig strict;
  strict.max_new_names = 2;
  net.set_default_peer_quota(strict);

  constexpr std::size_t kCap = transport::SessionTable::kMaxInboundBindings;
  const auto push = [&](std::uint64_t token, std::size_t intros) {
    SessionPush flood;
    flood.token = token;
    flood.wire_types = {1};
    flood.encoding = "binary";
    for (std::size_t i = 0; i < intros; ++i) {
      flood.intros.push_back(
          SessionIntro{static_cast<std::uint32_t>(i + 1), "int32", "", "", ""});
    }
    Message reply = net.send(Message{"mallory", "receiver", std::move(flood)});
    return std::get<SessionAck>(reply.payload).status;
  };

  EXPECT_EQ(push(7, kCap + 1), SessionStatus::Reset);
  EXPECT_EQ(receiver.sessions().inbound_sessions(), 0u);
  EXPECT_EQ(push(7, 0), SessionStatus::Reset) << "wire id 1 outlived the dropped session";
  EXPECT_EQ(push(8, kCap), SessionStatus::Ok);
  EXPECT_EQ(push(8, 0), SessionStatus::Ok);
  EXPECT_EQ(receiver.stats().session_resets, 2u);
}

TEST(SessionLayer, AcksAdvertiseOnlyHeldDescriptions) {
  // carol hosts the assembly alice sends from, so she already holds what
  // alice's intros describe, and her ack advertises it. mallory's intro
  // names a registered type but carries junk XML: carol never parses it,
  // and its hash must appear neither in that push's ack nor in a later
  // Reset ack, which carries everything carol holds.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  Peer alice("alice", net, hub, config);
  Peer carol("carol", net, hub, config);
  const auto people = fixtures::team_a_people();
  alice.host_assembly(people);
  carol.host_assembly(people);
  carol.add_interest("teamA.Person");

  const reflect::Value args[] = {reflect::Value("Ada")};
  const PushAck landed =
      alice.send_object("carol", alice.domain().instantiate("teamA.Person", args));
  ASSERT_TRUE(landed.delivered) << landed.detail;
  EXPECT_EQ(hub->intro_registry().known_count("carol"), 3u);  // Person, Address, INamed

  // mallory pushes an int32 (wire id 2), which carol rejects undecoded.
  const auto mallory = [&](std::uint32_t wire_type, std::string xml) {
    SessionPush push;
    push.token = 9;
    push.wire_types = {wire_type};
    push.encoding = "binary";
    push.intros.push_back(SessionIntro{1, "teamA.Person", std::move(xml), "", ""});
    push.intros.push_back(SessionIntro{2, "int32", "", "", ""});
    Message reply = net.send(Message{"mallory", "carol", std::move(push)});
    return std::get<SessionAck>(reply.payload);
  };
  const std::string junk = "<junk>not a description</junk>";
  const SessionAck ok = mallory(2, junk);
  EXPECT_EQ(ok.status, SessionStatus::Ok);
  EXPECT_TRUE(ok.known_desc_hashes.empty());

  const SessionAck reset = mallory(99, junk);
  EXPECT_EQ(reset.status, SessionStatus::Reset);
  EXPECT_EQ(reset.known_desc_hashes.size(), 3u);
  EXPECT_EQ(std::count(reset.known_desc_hashes.begin(), reset.known_desc_hashes.end(),
                       util::fnv1a64(junk)),
            0);
}

TEST(SessionLayer, AddInterestInvalidatesCachedRejects) {
  // A cached session REJECT must not survive a new interest: add_interest
  // bumps the verdict generation, so the next push re-runs conformance and
  // delivers.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  Peer sender("sender", net, hub, config);
  Peer receiver("receiver", net, hub, config);

  const fuzz::Schema schema = fixed_schema();
  sender.host_assembly(fuzz::sender_assembly("sivs", schema));
  const fuzz::ValuePlan values = fixed_values(schema);
  const auto push = [&] {
    return sender.send_object("receiver",
                              fuzz::make_object(sender, "sivs", schema, values));
  };

  // No interests yet: rejected, and the rejection verdict is cached —
  // the second push is decided from the cache in one exchange.
  EXPECT_FALSE(push().delivered);
  const std::uint64_t before = net.stats().messages.get();
  EXPECT_FALSE(push().delivered);
  EXPECT_EQ(net.stats().messages.get() - before, 2u);
  EXPECT_EQ(receiver.stats().session_verdict_hits, 1u);

  // The new interest conforms: the stale REJECT must not be served.
  util::Rng dummy(1);
  receiver.host_assembly(
      fuzz::receiver_assembly("sivr", schema, fuzz::InterestMode::Copy, dummy));
  receiver.add_interest("sivr.Thing");
  const PushAck after = push();
  ASSERT_TRUE(after.delivered) << after.detail;
  EXPECT_EQ(receiver.stats().session_verdict_hits, 1u);  // recomputed, not served
  EXPECT_EQ(receiver.stats().objects_delivered, 1u);

  // And the recomputed ACCEPT is itself cached again.
  EXPECT_TRUE(push().delivered);
  EXPECT_EQ(receiver.stats().session_verdict_hits, 2u);
}

TEST(SessionLayer, GovernorSweepInvalidatesCachedVerdicts) {
  // The reclamation contract: a governor post-sweep hook wired to
  // sessions().invalidate_verdicts() makes every sweep bump the
  // generation, so verdicts cached before the sweep are recomputed — a
  // sweep can therefore never leave a stale verdict servable.
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  const PeerConfig config{.mode = ProtocolMode::Optimistic, .use_sessions = true};
  Peer sender("sender", net, hub, config);
  Peer receiver("receiver", net, hub, config);

  core::ResourceGovernor governor;
  governor.add_post_sweep_hook([&receiver] { receiver.sessions().invalidate_verdicts(); });

  const fuzz::Schema schema = fixed_schema();
  util::Rng dummy(1);
  sender.host_assembly(fuzz::sender_assembly("sgvs", schema));
  receiver.host_assembly(
      fuzz::receiver_assembly("sgvr", schema, fuzz::InterestMode::Copy, dummy));
  receiver.add_interest("sgvr.Thing");
  const fuzz::ValuePlan values = fixed_values(schema);
  const auto push = [&] {
    return sender.send_object("receiver",
                              fuzz::make_object(sender, "sgvs", schema, values));
  };

  ASSERT_TRUE(push().delivered);
  ASSERT_TRUE(push().delivered);
  EXPECT_EQ(receiver.stats().session_verdict_hits, 1u);

  const std::uint64_t generation = receiver.sessions().generation();
  (void)governor.sweep();
  EXPECT_GT(receiver.sessions().generation(), generation);

  // Recomputed (still delivered — the interest is intact), then cached
  // again under the new generation.
  ASSERT_TRUE(push().delivered);
  EXPECT_EQ(receiver.stats().session_verdict_hits, 1u);
  ASSERT_TRUE(push().delivered);
  EXPECT_EQ(receiver.stats().session_verdict_hits, 2u);
}

// SessionTable::plan: token 0 plans a push's envelope names, opening the
// session if needed; a push's token binds its closure extras.

TEST(SessionTablePlan, PlanUnderAReplacedTokenBindsNothing) {
  transport::SessionTable table;
  const auto push = table.plan("bob", {"a.Root"});
  table.reset_peer("bob");
  const auto raced = table.plan("bob", {"a.Extra"}, push.token);
  EXPECT_EQ(raced.token, push.token);
  EXPECT_TRUE(raced.wire_ids.empty());
  EXPECT_TRUE(raced.fresh.empty());

  // Nor does it bind in the session a later push opened.
  const auto next = table.plan("bob", {"a.Root"});
  ASSERT_NE(next.token, push.token);
  EXPECT_TRUE(table.plan("bob", {"a.Extra"}, push.token).wire_ids.empty());
  EXPECT_EQ(table.plan("bob", {"a.Extra"}, next.token).wire_ids,
            (std::vector<std::uint32_t>{2}));
}

TEST(SessionTablePlan, ClosureExtrasCommitWithTheirPush) {
  transport::SessionTable table;
  const auto push = table.plan("bob", {"a.Root", "int32"});
  EXPECT_EQ(push.wire_ids, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(push.fresh, (std::vector<std::size_t>{0, 1}));
  const auto extras = table.plan("bob", {"a.Super", "a.Field"}, push.token);
  EXPECT_EQ(extras.token, push.token);
  EXPECT_EQ(extras.wire_ids, (std::vector<std::uint32_t>{3, 4}));
  EXPECT_EQ(extras.fresh, (std::vector<std::size_t>{0, 1}));

  table.commit_send("bob", push.token, {"a.Root", "int32", "a.Super", "a.Field"},
                    {0, 1, 2, 3});
  const auto warm = table.plan("bob", {"a.Root", "a.Super", "a.Field"});
  EXPECT_EQ(warm.token, push.token);
  EXPECT_EQ(warm.wire_ids, (std::vector<std::uint32_t>{1, 3, 4}));
  EXPECT_TRUE(warm.fresh.empty());
}

TEST(SessionTablePlan, ResetPeerStartsANewTokenWithEveryNameFresh) {
  transport::SessionTable table;
  const auto first = table.plan("bob", {"a.Root", "a.Leaf"});
  table.commit_send("bob", first.token, {"a.Root", "a.Leaf"}, first.fresh);
  EXPECT_TRUE(table.plan("bob", {"a.Root", "a.Leaf"}).fresh.empty());

  table.reset_peer("bob");
  const auto again = table.plan("bob", {"a.Root", "a.Leaf"});
  EXPECT_NE(again.token, first.token);
  EXPECT_EQ(again.wire_ids, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(again.fresh, (std::vector<std::size_t>{0, 1}));
}

}  // namespace
}  // namespace pti
