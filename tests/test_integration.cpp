// End-to-end integration scenarios across the full stack: multiple peers,
// mixed payload encodings, deep and cyclic object graphs, permuted
// signatures, and protocol accounting invariants.
#include <gtest/gtest.h>

#include "break_cycles.hpp"
#include "core/interop.hpp"
#include "fixtures/sample_types.hpp"

namespace pti {
namespace {

using core::InteropRuntime;
using core::InteropSystem;
using reflect::Value;
using transport::DeliveredObject;

TEST(Integration, PaperSection31ScenarioBothDirections) {
  InteropSystem system;
  InteropRuntime& alice = system.create_runtime("alice");
  InteropRuntime& bob = system.create_runtime("bob");
  alice.publish_assembly(fixtures::team_a_people());
  bob.publish_assembly(fixtures::team_b_people());

  // A -> B.
  std::string b_saw;
  bob.subscribe("teamB.Person",
                [&](const DeliveredObject& ev) {
                  b_saw = bob.call(ev.adapted, "getPersonName").as_string();
                });
  const Value a_args[] = {Value("FromA")};
  EXPECT_TRUE(alice.send("bob", alice.make("teamA.Person", a_args)).delivered);
  EXPECT_EQ(b_saw, "FromA");

  // B -> A (the symmetric direction).
  std::string a_saw;
  alice.subscribe("teamA.Person",
                  [&](const DeliveredObject& ev) {
                    a_saw = alice.call(ev.adapted, "getName").as_string();
                  });
  const Value b_args[] = {Value("FromB")};
  EXPECT_TRUE(bob.send("alice", bob.make("teamB.Person", b_args)).delivered);
  EXPECT_EQ(a_saw, "FromB");
}

TEST(Integration, PermutedMeetingExchange) {
  InteropSystem system;
  InteropRuntime& planner = system.create_runtime("planner-app");
  InteropRuntime& agenda = system.create_runtime("agenda-app");
  planner.publish_assembly(fixtures::planner_meetings());
  agenda.publish_assembly(fixtures::agenda_meetings());

  std::int64_t seen_start = 0;
  std::string seen_title;
  planner.subscribe("planner.Meeting", [&](const DeliveredObject& ev) {
    seen_title = planner.call(ev.adapted, "getTitle").as_string();
    seen_start = planner.call(ev.adapted, "getMeetingStart").as_int64();
    // Drive the permuted mutator through the planner interface.
    const Value resched[] = {Value("moved"), Value(std::int64_t{2000})};
    planner.call(ev.adapted, "reschedule", resched);
  });

  const Value args[] = {Value(std::int64_t{930}), Value("standup")};
  auto meeting = agenda.make("agenda.Meeting", args);
  EXPECT_TRUE(agenda.send("planner-app", meeting).delivered);
  EXPECT_EQ(seen_title, "standup");
  EXPECT_EQ(seen_start, 930);

  // The delivered copy (not the original) was rescheduled, with arguments
  // permuted into agenda order.
  const auto& copy = planner.peer().delivered().front().object;
  EXPECT_EQ(copy->get("title").as_string(), "moved");
  EXPECT_EQ(copy->get("startTime").as_int64(), 2000);
  EXPECT_EQ(meeting->get("title").as_string(), "standup");  // by value
}

TEST(Integration, CyclicGraphSurvivesTheWire) {
  InteropSystem system;
  InteropRuntime& a = system.create_runtime("a");
  InteropRuntime& b = system.create_runtime("b");
  a.publish_assembly(fixtures::lists_a());
  b.publish_assembly(fixtures::lists_b());

  // Build a 3-node ring on a.
  const Value v1[] = {Value(std::int32_t{1})};
  const Value v2[] = {Value(std::int32_t{2})};
  const Value v3[] = {Value(std::int32_t{3})};
  auto n1 = a.make("listsA.Node", v1);
  auto n2 = a.make("listsA.Node", v2);
  auto n3 = a.make("listsA.Node", v3);
  n1->set("next", Value(n2));
  n2->set("next", Value(n3));
  n3->set("next", Value(n1));

  b.subscribe("listsB.Node", [](const DeliveredObject&) {});
  EXPECT_TRUE(a.send("b", n1).delivered);

  const auto& ring = b.peer().delivered().front().object;
  // The cycle closed on the receiving side.
  const auto& r2 = ring->get("next").as_object();
  const auto& r3 = r2->get("next").as_object();
  EXPECT_EQ(r3->get("next").as_object().get(), ring.get());
  // And the adapted view dispatches renamed methods on it.
  const auto& adapted = b.peer().delivered().front().adapted;
  EXPECT_EQ(b.call(adapted, "getNodeValue").as_int32(), 1);
  testing_support::break_cycles({Value(n1), Value(ring)});
}

TEST(Integration, MixedEncodingsInteroperate) {
  for (const char* encoding : {"soap", "binary", "xml"}) {
    InteropSystem system;
    transport::PeerConfig sender_cfg;
    sender_cfg.payload_encoding = encoding;
    InteropRuntime& alice = system.create_runtime("alice", sender_cfg);
    InteropRuntime& bob = system.create_runtime("bob");  // default soap receiver
    alice.publish_assembly(fixtures::team_a_people());
    bob.publish_assembly(fixtures::team_b_people());
    bob.subscribe("teamB.Person", [](const DeliveredObject&) {});

    const Value args[] = {Value(std::string("Via-") + encoding)};
    auto person = alice.make("teamA.Person", args);
    const Value addr[] = {Value("Main"), Value(std::int32_t{1})};
    person->set("address", Value(alice.make("teamA.Address", addr)));

    EXPECT_TRUE(alice.send("bob", person).delivered) << encoding;
    const auto& got = bob.peer().delivered().front();
    if (std::string_view(encoding) == "xml") {
      // The XML mechanism serializes public fields only (XmlSerializer
      // semantics): the private name travels as its default value.
      EXPECT_EQ(bob.call(got.adapted, "getPersonName").as_string(), "") << encoding;
    } else {
      EXPECT_EQ(bob.call(got.adapted, "getPersonName").as_string(),
                std::string("Via-") + encoding);
    }
  }
}

TEST(Integration, ManyPeersManyTypes) {
  InteropSystem system;
  InteropRuntime& hub_peer = system.create_runtime("hub");
  hub_peer.publish_assembly(fixtures::team_b_people());
  hub_peer.subscribe("teamB.Person", [](const DeliveredObject&) {});

  constexpr int kSenders = 5;
  std::vector<InteropRuntime*> senders;
  for (int i = 0; i < kSenders; ++i) {
    InteropRuntime& s = system.create_runtime("sender-" + std::to_string(i));
    s.publish_assembly(fixtures::team_a_people());
    senders.push_back(&s);
  }

  for (int round = 0; round < 3; ++round) {
    for (InteropRuntime* s : senders) {
      const Value args[] = {Value(s->name() + "#" + std::to_string(round))};
      EXPECT_TRUE(s->send("hub", s->make("teamA.Person", args)).delivered);
    }
  }
  EXPECT_EQ(hub_peer.stats().objects_delivered, 15u);
  // All senders share one type universe: descriptions and code were
  // fetched only on the first push (two description requests: the
  // envelope's types, then the referenced INamed interface), everything
  // else hit caches.
  EXPECT_EQ(hub_peer.stats().typeinfo_requests, 2u);
  EXPECT_EQ(hub_peer.stats().code_requests, 1u);
  EXPECT_EQ(hub_peer.stats().typeinfo_cache_hits, 14u);
}

TEST(Integration, AccountingInvariants) {
  InteropSystem system;
  InteropRuntime& alice = system.create_runtime("alice");
  InteropRuntime& bob = system.create_runtime("bob");
  alice.publish_assembly(fixtures::team_a_people());
  alice.publish_assembly(fixtures::bank_accounts());
  bob.publish_assembly(fixtures::team_b_people());
  bob.subscribe("teamB.Person", [](const DeliveredObject&) {});

  for (int i = 0; i < 4; ++i) {
    const Value args[] = {Value("P" + std::to_string(i))};
    (void)alice.send("bob", alice.make("teamA.Person", args));
  }
  const Value eve[] = {Value("Eve")};
  for (int i = 0; i < 3; ++i) {
    (void)alice.send("bob", alice.make("bank.Account", eve));
  }

  const auto& stats = bob.stats();
  EXPECT_EQ(stats.objects_received, stats.objects_delivered + stats.objects_rejected);
  EXPECT_EQ(stats.objects_delivered, 4u);
  EXPECT_EQ(stats.objects_rejected, 3u);
  EXPECT_EQ(alice.stats().objects_sent, 7u);
  // Conformance cache: the Account rejection was computed once, then hit.
  EXPECT_GT(bob.peer().conformance_cache().stats().hits, 0u);
}

TEST(Integration, EndToEndVirtualTimeAdvances) {
  InteropSystem system;
  system.network().set_default_link(
      {.latency_ns = 2'000'000, .bandwidth_bytes_per_sec = 1'000'000.0});
  InteropRuntime& alice = system.create_runtime("alice");
  InteropRuntime& bob = system.create_runtime("bob");
  alice.publish_assembly(fixtures::team_a_people());
  bob.publish_assembly(fixtures::team_b_people());
  bob.subscribe("teamB.Person", [](const DeliveredObject&) {});

  const Value args[] = {Value("T")};
  (void)alice.send("bob", alice.make("teamA.Person", args));
  // First push: push + ack + typeinfo round trip + code round trip = at
  // least 6 messages x 2 ms latency.
  EXPECT_GE(system.network().clock().now_ns(), 12'000'000u);
}

}  // namespace
}  // namespace pti
