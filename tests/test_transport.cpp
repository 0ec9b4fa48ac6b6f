// Tests for the simulated network and the optimistic transport protocol
// (Fig. 1): on-demand descriptions and code, caching, rejection without
// code download, the eager baseline, failure injection (drop schedules,
// partitions, classified errors), the endpoint attach/detach contract
// (one typed suite over all three transports), and the thread-pool-backed
// AsyncTransport.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <semaphore>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/interop.hpp"
#include "fixtures/sample_types.hpp"
#include "push_shapes.hpp"
#include "serial/frame_codec.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/async_transport.hpp"
#include "transport/peer.hpp"
#include "transport/sim_network.hpp"
#include "transport/socket_transport.hpp"
#include "transport/transport_error.hpp"
#include "transport_types.hpp"

namespace pti::transport {
namespace {

using reflect::DynObject;
using reflect::Value;

// --- SimNetwork -------------------------------------------------------------

TEST(SimNetwork, RoutesAndCharges) {
  SimNetwork net;
  net.attach("echo", [](const Message& m) {
    return Message{"echo", m.sender, PushAck{true, "ok"}};
  });
  const Message reply = net.send(Message{"client", "echo", CodeRequest{"x"}});
  EXPECT_TRUE(std::get<PushAck>(reply.payload).delivered);
  EXPECT_EQ(reply.sender, "echo");
  EXPECT_EQ(reply.recipient, "client");
  EXPECT_EQ(net.stats().messages, 2u);  // request + response
  EXPECT_GT(net.stats().bytes, 0u);
  EXPECT_GT(net.clock().now_ns(), 0u);
}

TEST(SimNetwork, ForcedDropsThrowDeterministically) {
  SimNetwork net;
  net.attach("svc", [](const Message& m) {
    return Message{"svc", m.sender, PushAck{true, ""}};
  });
  net.inject_drop_next(1);
  EXPECT_THROW((void)net.send(Message{"a", "svc", CodeRequest{"x"}}), NetworkError);
  EXPECT_EQ(net.stats().drops, 1u);
  // Next message goes through.
  EXPECT_NO_THROW((void)net.send(Message{"a", "svc", CodeRequest{"x"}}));
}

TEST(SimNetwork, PerLinkConfigAffectsLatency) {
  SimNetwork net;
  net.attach("svc", [](const Message& m) {
    return Message{"svc", m.sender, PushAck{true, ""}};
  });
  net.set_default_link({.latency_ns = 0, .bandwidth_bytes_per_sec = 1e12});
  (void)net.send(Message{"a", "svc", CodeRequest{"x"}});
  const auto t0 = net.clock().now_ns();
  net.set_link("a", "svc", {.latency_ns = 5'000'000, .bandwidth_bytes_per_sec = 1e12});
  (void)net.send(Message{"a", "svc", CodeRequest{"x"}});
  EXPECT_GE(net.clock().now_ns() - t0, 5'000'000u);
}

TEST(MessageSizes, CodeDominatesDescriptions) {
  const Message code{"a", "b", CodeResponse{"asm", true, 50'000}};
  const Message info{"a", "b", TypeInfoResponse{{std::string(600, 'x')}, {}}};
  EXPECT_GT(code.wire_size(), info.wire_size());
  EXPECT_STREQ(code.kind_name(), "CodeResponse");
}

// --- the optimistic protocol (Fig. 1) ---------------------------------------

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : hub_(std::make_shared<AssemblyHub>()),
        alice_("alice", net_, hub_),
        bob_("bob", net_, hub_) {
    alice_.host_assembly(fixtures::team_a_people());
    bob_.host_assembly(fixtures::team_b_people());
    bob_.add_interest("teamB.Person");
  }

  std::shared_ptr<DynObject> make_a_person(std::string_view name) {
    const Value args[] = {Value(name)};
    auto person = alice_.domain().instantiate("teamA.Person", args);
    const Value addr[] = {Value("Main St"), Value(std::int32_t{42})};
    person->set("address", Value(alice_.domain().instantiate("teamA.Address", addr)));
    return person;
  }

  SimNetwork net_;
  std::shared_ptr<AssemblyHub> hub_;
  Peer alice_;
  Peer bob_;
};

TEST_F(ProtocolTest, FullFigureOneFlow) {
  const PushAck ack = alice_.send_object("bob", make_a_person("Alice"));
  EXPECT_TRUE(ack.delivered);
  EXPECT_EQ(ack.detail, "teamB.Person");

  // Step 2/3 happened: one request for the envelope's unknown types
  // (Person, Address), and one more for teamA.INamed — referenced by the
  // Person description but not part of the object graph, so fetched on
  // demand during the conformance check.
  EXPECT_EQ(bob_.stats().typeinfo_requests, 2u);
  // Step 4/5 happened: bob downloaded the assembly.
  EXPECT_EQ(bob_.stats().code_requests, 1u);
  EXPECT_TRUE(bob_.domain().has_assembly("teamA.people"));
  EXPECT_TRUE(bob_.domain().is_loaded("teamA.Person"));

  // The delivered object is usable as bob's own type.
  ASSERT_EQ(bob_.delivered().size(), 1u);
  const DeliveredObject& delivered = bob_.delivered().front();
  EXPECT_EQ(delivered.interest_type, "teamB.Person");
  EXPECT_EQ(delivered.sender, "alice");
  EXPECT_EQ(bob_.proxies().invoke(delivered.adapted, "getPersonName", {}).as_string(),
            "Alice");
  // Deep access works across the wire too.
  const Value address = bob_.proxies().invoke(delivered.adapted, "getAddress", {});
  EXPECT_EQ(bob_.proxies().invoke(address.as_object(), "getStreetName", {}).as_string(),
            "Main St");
}

TEST_F(ProtocolTest, SecondPushOfSameTypeUsesCaches) {
  (void)alice_.send_object("bob", make_a_person("One"));
  const auto typeinfo_before = bob_.stats().typeinfo_requests;
  const auto code_before = bob_.stats().code_requests;
  net_.reset_stats();

  (void)alice_.send_object("bob", make_a_person("Two"));
  // No further metadata or code round trips — the optimistic saving.
  EXPECT_EQ(bob_.stats().typeinfo_requests, typeinfo_before);
  EXPECT_EQ(bob_.stats().code_requests, code_before);
  EXPECT_EQ(bob_.stats().typeinfo_cache_hits, 1u);
  EXPECT_EQ(bob_.stats().code_cache_hits, 1u);
  EXPECT_EQ(net_.stats().messages, 2u);  // push + ack only
}

TEST_F(ProtocolTest, NonConformantPushIsRejectedWithoutCodeDownload) {
  alice_.host_assembly(fixtures::bank_accounts());
  const Value args[] = {Value("Eve")};
  auto account = alice_.domain().instantiate("bank.Account", args);

  const PushAck ack = alice_.send_object("bob", account);
  EXPECT_FALSE(ack.delivered);
  EXPECT_EQ(bob_.stats().objects_rejected, 1u);
  // Descriptions were fetched (needed for the conformance decision)...
  EXPECT_GE(bob_.stats().typeinfo_requests, 1u);
  // ...but code was NOT (the protocol's whole point).
  EXPECT_EQ(bob_.stats().code_requests, 0u);
  EXPECT_FALSE(bob_.domain().has_assembly("bank.accounts"));
  EXPECT_TRUE(bob_.delivered().empty());
}

TEST_F(ProtocolTest, NoInterestNoDelivery) {
  Peer carol("carol", net_, hub_);  // no interests at all
  const PushAck ack = alice_.send_object("carol", make_a_person("X"));
  EXPECT_FALSE(ack.delivered);
  EXPECT_EQ(carol.stats().code_requests, 0u);
}

TEST_F(ProtocolTest, ProxiesAreStrippedBeforeSending) {
  // bob receives alice's person, adapts it, sends the *proxy* back.
  (void)alice_.send_object("bob", make_a_person("Alice"));
  alice_.add_interest("teamA.Person");
  const auto& adapted = bob_.delivered().front().adapted;
  ASSERT_TRUE(proxy::ProxyFactory::is_proxy(*adapted));

  const PushAck ack = bob_.send_object("alice", adapted);
  EXPECT_TRUE(ack.delivered);
  const auto& received = alice_.delivered().front().object;
  // What crossed the wire is the real teamA.Person state, not a wrapper.
  EXPECT_EQ(received->type_name(), "teamA.Person");
  EXPECT_FALSE(received->has_field(proxy::kProxySourceField));
  EXPECT_EQ(received->get("name").as_string(), "Alice");
}

TEST_F(ProtocolTest, ThirdPartyForwardingDownloadsFromOrigin) {
  // alice -> bob (bob now knows teamA types), then bob -> carol: carol
  // must fetch the assembly from *alice* (the download path's host).
  (void)alice_.send_object("bob", make_a_person("Alice"));
  Peer carol("carol", net_, hub_);
  carol.host_assembly(fixtures::team_b_people());
  carol.add_interest("teamB.Person");

  const auto& received = bob_.delivered().front().object;
  const PushAck ack = bob_.send_object("carol", received);
  EXPECT_TRUE(ack.delivered);
  EXPECT_TRUE(carol.domain().has_assembly("teamA.people"));
  // alice served one code download for bob and one for carol.
  EXPECT_EQ(alice_.stats().code_served, 2u);
}

TEST_F(ProtocolTest, MissingAssemblySurfacesAsProtocolError) {
  // A type whose assembly nobody hosts: build description-only knowledge
  // by hosting on a third peer, killing it, then pushing from alice.
  auto ghost_assembly = fixtures::bank_accounts();
  {
    Peer ghost("ghost", net_, std::make_shared<AssemblyHub>());  // separate hub!
    ghost.host_assembly(ghost_assembly);
  }
  // alice knows the type (loads locally into her domain + our hub), but the
  // download path points at the detached ghost peer.
  alice_.domain().load_assembly(ghost_assembly, "net://ghost/bank.accounts");
  bob_.add_interest("teamB.Person");
  const Value args[] = {Value("Eve")};
  auto account = alice_.domain().instantiate("bank.Account", args);
  // Rejected on conformance grounds — no code fetch attempted, no error.
  const PushAck ack = alice_.send_object("bob", account);
  EXPECT_FALSE(ack.delivered);

  // Now make bob interested in something the account *does* conform to:
  // its own type, known only by description.
  bob_.fetch_descriptions("alice", {"bank.Account"});
  bob_.add_interest("bank.Account");
  EXPECT_THROW((void)alice_.send_object("bob", account), ProtocolError);
}

TEST_F(ProtocolTest, DroppedResponseSurfacesAsError) {
  net_.inject_drop_next(1);
  EXPECT_THROW((void)alice_.send_object("bob", make_a_person("X")), NetworkError);
}

TEST_F(ProtocolTest, DroppedMidProtocolStepSurfacesAsError) {
  // Message #1 is the push itself; message #2 is bob's TypeInfoRequest.
  // Killing the latter makes the push fail with a protocol-level error
  // reported back to alice (bob catches the network failure, answers with
  // an ErrorReply, send_object converts it).
  net_.inject_drop_at(2);
  EXPECT_THROW((void)alice_.send_object("bob", make_a_person("X")), ProtocolError);
  EXPECT_EQ(net_.stats().drops, 1u);
  EXPECT_TRUE(bob_.delivered().empty());

  // The system recovers: the very next push succeeds end to end.
  EXPECT_TRUE(alice_.send_object("bob", make_a_person("Y")).delivered);
}

TEST_F(ProtocolTest, DroppedCodeResponseSurfacesAsError) {
  // Messages within the first push: 1 push, 2 typeinfo req, 3 typeinfo
  // resp, 4 typeinfo req (INamed), 5 resp, 6 code req, 7 code resp.
  net_.inject_drop_at(7);
  EXPECT_THROW((void)alice_.send_object("bob", make_a_person("X")), ProtocolError);
  EXPECT_FALSE(bob_.domain().has_assembly("teamA.people"));
  // Recovery on retry.
  EXPECT_TRUE(alice_.send_object("bob", make_a_person("Y")).delivered);
  EXPECT_TRUE(bob_.domain().has_assembly("teamA.people"));
}

TEST_F(ProtocolTest, MalformedEnvelopeIsReportedNotFatal) {
  ObjectPush garbage;
  garbage.envelope = {0x00, 0x01, 0x02, 0x03};
  const Message response = net_.send(Message{"alice", "bob", std::move(garbage)});
  const auto* error = std::get_if<ErrorReply>(&response.payload);
  ASSERT_NE(error, nullptr);
  // The peer keeps working afterwards.
  EXPECT_TRUE(alice_.send_object("bob", make_a_person("OK")).delivered);
}

TEST_F(ProtocolTest, UnexpectedMessageKindsGetErrorReplies) {
  const Message response =
      net_.send(Message{"alice", "bob", PushAck{true, "spurious"}});
  const auto* error = std::get_if<ErrorReply>(&response.payload);
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->message.find("cannot handle"), std::string::npos);
}

TEST_F(ProtocolTest, InterestMustBeLocallyKnown) {
  EXPECT_THROW(bob_.add_interest("totally.Unknown"), ProtocolError);
}

TEST_F(ProtocolTest, TypeInfoRequestsAnswerOnlyKnownTypes) {
  Message request{"bob", "alice", TypeInfoRequest{{"teamA.Person", "no.Such"}}};
  const Message response = net_.send(request);
  const auto& info = std::get<TypeInfoResponse>(response.payload);
  EXPECT_EQ(info.descriptions_xml.size(), 1u);
  ASSERT_EQ(info.unknown.size(), 1u);
  EXPECT_EQ(info.unknown.front(), "no.Such");
}

TEST_F(ProtocolTest, DeliveryHandlerFires) {
  std::vector<std::string> seen;
  bob_.set_delivery_handler([&seen, this](const DeliveredObject& d) {
    seen.push_back(bob_.proxies().invoke(d.adapted, "getPersonName", {}).as_string());
  });
  (void)alice_.send_object("bob", make_a_person("Ada"));
  (void)alice_.send_object("bob", make_a_person("Grace"));
  EXPECT_EQ(seen, (std::vector<std::string>{"Ada", "Grace"}));
}

// --- matcher modes (Section 2 baselines end-to-end) ---------------------------

// Every push shape runs the same decision core: the cold ObjectPush, the
// session push and the batched window must gate identically.
using testing_support::PushShape;

class MatcherModeTest
    : public ::testing::TestWithParam<std::tuple<MatcherKind, PushShape>> {};

TEST_P(MatcherModeTest, GatesDeliveryAccordingToTheRelation) {
  const auto [matcher, shape] = GetParam();
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  PeerConfig receiver_config = testing_support::with_shape({}, shape);
  receiver_config.matcher = matcher;
  Peer alice("alice", net, hub, testing_support::with_shape({}, shape));
  Peer bob("bob", net, hub, receiver_config);
  alice.host_assembly(fixtures::team_a_people());
  bob.host_assembly(fixtures::team_a_people());  // bob also knows teamA
  bob.host_assembly(fixtures::team_b_people());
  bob.add_interest("teamB.Person");
  bob.add_interest("teamA.Person");

  const Value args[] = {Value("Ada")};
  auto person = alice.domain().instantiate("teamA.Person", args);
  const PushAck ack = testing_support::push_as(shape, alice, "bob", person);

  switch (matcher) {
    case MatcherKind::ImplicitStructural:
      // First interest (teamB.Person) already matches implicitly.
      EXPECT_TRUE(ack.delivered);
      EXPECT_EQ(ack.detail, "teamB.Person");
      break;
    case MatcherKind::Exact:
    case MatcherKind::Nominal:
    case MatcherKind::TaggedStructural:
      // Only the identical type matches under the baselines.
      EXPECT_TRUE(ack.delivered);
      EXPECT_EQ(ack.detail, "teamA.Person");
      break;
  }
}

std::string matcher_mode_name(const ::testing::TestParamInfo<MatcherModeTest::ParamType>& info) {
  static constexpr const char* kMatchers[] = {"ImplicitStructural", "Exact", "Nominal",
                                              "TaggedStructural"};
  return std::string(kMatchers[static_cast<int>(std::get<0>(info.param))]) +
         testing_support::shape_name(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllMatchers, MatcherModeTest,
    ::testing::Combine(::testing::Values(MatcherKind::ImplicitStructural, MatcherKind::Exact,
                                         MatcherKind::Nominal, MatcherKind::TaggedStructural),
                       ::testing::Values(PushShape::Cold, PushShape::Sync,
                                         PushShape::Batched)),
    matcher_mode_name);

class MatcherModeNegative : public ::testing::TestWithParam<PushShape> {};

TEST_P(MatcherModeNegative, BaselinesRejectWhatImplicitAccepts) {
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  PeerConfig exact_config = testing_support::with_shape({}, GetParam());
  exact_config.matcher = MatcherKind::Exact;
  Peer alice("alice", net, hub, testing_support::with_shape({}, GetParam()));
  Peer bob("bob", net, hub, exact_config);
  alice.host_assembly(fixtures::team_a_people());
  bob.host_assembly(fixtures::team_b_people());
  bob.add_interest("teamB.Person");  // only the foreign-shaped interest

  const Value args[] = {Value("Ada")};
  const PushAck ack = testing_support::push_as(
      GetParam(), alice, "bob", alice.domain().instantiate("teamA.Person", args));
  EXPECT_FALSE(ack.delivered);
  EXPECT_EQ(bob.stats().objects_rejected, 1u);
}

INSTANTIATE_TEST_SUITE_P(PushShapes, MatcherModeNegative,
                         ::testing::Values(PushShape::Cold, PushShape::Sync,
                                           PushShape::Batched),
                         testing_support::shape_param_name);

// --- eager baseline ---------------------------------------------------------

TEST(EagerProtocol, ShipsEverythingUpFront) {
  SimNetwork net;
  auto hub = std::make_shared<AssemblyHub>();
  PeerConfig eager;
  eager.mode = ProtocolMode::Eager;
  Peer alice("alice", net, hub, eager);
  Peer bob("bob", net, hub, eager);
  alice.host_assembly(fixtures::team_a_people());
  bob.host_assembly(fixtures::team_b_people());
  bob.add_interest("teamB.Person");

  const Value args[] = {Value("Alice")};
  auto person = alice.domain().instantiate("teamA.Person", args);
  const PushAck ack = alice.send_object("bob", person);
  EXPECT_TRUE(ack.delivered);
  // Everything arrived with the push: zero extra round trips.
  EXPECT_EQ(bob.stats().typeinfo_requests, 0u);
  EXPECT_EQ(bob.stats().code_requests, 0u);
  EXPECT_TRUE(bob.domain().has_assembly("teamA.people"));
}

TEST(EagerProtocol, CostsMoreBytesOnRepeatedPushes) {
  const auto run = [](ProtocolMode mode) {
    SimNetwork net;
    auto hub = std::make_shared<AssemblyHub>();
    PeerConfig config;
    config.mode = mode;
    Peer alice("alice", net, hub, config);
    Peer bob("bob", net, hub, config);
    alice.host_assembly(fixtures::team_a_people());
    bob.host_assembly(fixtures::team_b_people());
    bob.add_interest("teamB.Person");
    for (int i = 0; i < 10; ++i) {
      const Value args[] = {Value("P" + std::to_string(i))};
      (void)alice.send_object("bob", alice.domain().instantiate("teamA.Person", args));
    }
    return net.stats().bytes;
  };
  const auto optimistic_bytes = run(ProtocolMode::Optimistic);
  const auto eager_bytes = run(ProtocolMode::Eager);
  EXPECT_LT(optimistic_bytes, eager_bytes)
      << "optimistic=" << optimistic_bytes << " eager=" << eager_bytes;
}

// --- endpoint contract (attach/detach semantics) -----------------------------
//
// One body per rule, run over every transport: SimNetwork keeps its own
// endpoint map, the concurrent transports share EndpointRegistry.

template <class T>
class EndpointContract : public ::testing::Test {};
TYPED_TEST_SUITE(EndpointContract, testing_support::AllTransports,
                 testing_support::TransportName);

/// Attaches a handler under `name` that answers PushAck{true, detail}.
void attach_replying(Transport& net, const std::string& name, std::string detail) {
  net.attach(name, [name, detail](const Message& m) {
    return Message{name, m.sender, PushAck{true, detail}};
  });
}

[[nodiscard]] std::string reply_detail(Transport& net, const std::string& to) {
  return std::get<PushAck>(net.send(Message{"client", to, CodeRequest{"x"}}).payload).detail;
}

TYPED_TEST(EndpointContract, DoubleAttachThrows) {
  TypeParam net;
  attach_replying(net, "svc", "first");
  EXPECT_THROW(attach_replying(net, "svc", "second"), TransportError);
  // Case-insensitive: endpoint names collide like type names do.
  EXPECT_THROW(attach_replying(net, "SVC", "third"), TransportError);
  // The empty name is reserved by the wire protocol (unaddressed messages
  // mark transport faults) — rejected by every implementation.
  EXPECT_THROW(attach_replying(net, "", "empty"), TransportError);
  EXPECT_THROW(net.attach("other", Transport::Handler{}), TransportError);
  EXPECT_FALSE(net.is_attached("other"));
  // The original handler stayed in place and keeps working.
  EXPECT_EQ(reply_detail(net, "svc"), "first");
}

TYPED_TEST(EndpointContract, DetachUnknownNameIsNoop) {
  TypeParam net;
  EXPECT_NO_THROW(net.detach("never-attached"));
  attach_replying(net, "svc", "ok");
  EXPECT_NO_THROW(net.detach("other"));
  EXPECT_TRUE(net.is_attached("svc"));
}

TYPED_TEST(EndpointContract, ReattachAfterDetachWorks) {
  TypeParam net;
  attach_replying(net, "svc", "old");
  net.detach("svc");
  EXPECT_FALSE(net.is_attached("svc"));
  attach_replying(net, "svc", "new");
  EXPECT_EQ(reply_detail(net, "svc"), "new");
}

TYPED_TEST(EndpointContract, DetachFromInsideOwnHandlerIsSafe) {
  // A handler detaching its own endpoint mid-execution returns at once
  // (it cannot wait for itself) and completes the in-flight exchange —
  // the handler must not be destroyed under its own feet. Afterwards the
  // endpoint is gone.
  TypeParam net;
  net.attach("ephemeral", [&net](const Message& m) {
    net.detach("ephemeral");
    return Message{"ephemeral", m.sender, PushAck{true, "last words"}};
  });
  EXPECT_EQ(reply_detail(net, "ephemeral"), "last words");
  EXPECT_FALSE(net.is_attached("ephemeral"));
  EXPECT_THROW((void)net.send(Message{"client", "ephemeral", CodeRequest{"x"}}),
               NetworkError);
}

TYPED_TEST(EndpointContract, UnknownRecipientIsANetworkError) {
  TypeParam net;
  EXPECT_THROW((void)net.send(Message{"a", "ghost", CodeRequest{"x"}}), NetworkError);
  std::future<Message> future = net.send_async(Message{"a", "ghost", CodeRequest{"x"}});
  EXPECT_THROW((void)future.get(), NetworkError);
}

// --- send_async: every callback runs exactly once ---------------------------
//
// Every future resolves exactly once, however a transport completes its
// requests: inline (SimNetwork), from endpoint inboxes (AsyncTransport) or
// from a run of pipelined replies (SocketTransport).

template <class T>
class SendAsyncContract : public ::testing::Test {};
TYPED_TEST_SUITE(SendAsyncContract, testing_support::AllTransports,
                 testing_support::TransportName);

TYPED_TEST(SendAsyncContract, EveryCallbackRunsOnceWithItsOwnReply) {
  // SocketTransport gets one outbound worker, so its queued requests leave
  // as runs and their callbacks must also run in send order.
  constexpr bool kSocket = std::is_same_v<TypeParam, SocketTransport>;
  std::unique_ptr<TypeParam> owned;
  if constexpr (kSocket) {
    owned = std::make_unique<TypeParam>(SocketTransportConfig{.async_workers = 1});
  } else {
    owned = std::make_unique<TypeParam>();
  }
  TypeParam& net = *owned;
  net.attach("echo", [](const Message& m) {
    const std::string& sequence = std::get<CodeRequest>(m.payload).assembly_name;
    return Message{"echo", m.sender, PushAck{true, sequence}};
  });
  constexpr int kSends = 64;
  std::mutex mutex;
  std::vector<int> order;
  std::vector<int> calls(kSends, 0);
  int wrong_replies = 0;
  for (int i = 0; i < kSends; ++i) {
    net.send_async(Message{"client", "echo", CodeRequest{std::to_string(i)}},
                   [&, i](Message reply, std::exception_ptr error) {
                     const std::string expected = std::to_string(i);
                     std::lock_guard lock(mutex);
                     order.push_back(i);
                     ++calls[i];
                     if (error || std::get<PushAck>(reply.payload).detail != expected) {
                       ++wrong_replies;
                     }
                   });
  }
  if constexpr (!std::is_same_v<TypeParam, SimNetwork>) {
    net.drain();
    EXPECT_EQ(net.pending(), 0u);
  }
  std::lock_guard lock(mutex);
  EXPECT_EQ(calls, std::vector<int>(kSends, 1));
  EXPECT_EQ(wrong_replies, 0);
  if constexpr (!std::is_same_v<TypeParam, AsyncTransport>) {
    std::vector<int> sent(kSends);
    std::iota(sent.begin(), sent.end(), 0);
    EXPECT_EQ(order, sent);
  }
}

// --- one byte model ----------------------------------------------------------
//
// Every transport charges NetStats what Message::wire_size() measures: the
// frame FrameCodec writes plus the simulated assembly bytes it counts. On
// SocketTransport the frames are the bytes that really cross the socket.

template <class T>
class ByteModel : public ::testing::Test {};
TYPED_TEST_SUITE(ByteModel, testing_support::AllTransports, testing_support::TransportName);

TYPED_TEST(ByteModel, NetStatsChargeFramesPlusSimulatedBytes) {
  SessionPush warm;
  warm.token = 7;
  warm.wire_types = {1};
  warm.encoding = "binary";
  warm.payload.assign(64, 0x5A);
  SessionPush intro = warm;
  intro.intros.push_back({2, "teamA.Address", "<type/>", "teamA.people", "net://a/p"});
  intro.intro_assembly_names = {"teamA.people"};
  intro.intro_assembly_bytes = 700;
  SessionPush prepaid = warm;
  prepaid.intro_assembly_bytes = 300;
  ObjectPush push;
  push.envelope.assign(300, 0x42);
  push.eager_descriptions_xml = {"<type name=\"teamA.Person\"/>"};
  push.eager_assembly_names = {"teamA.people"};
  push.eager_assembly_bytes = 5000;
  const SessionAck ok{SessionStatus::Ok, true, "teamB.Person", {}};
  // Request and response payloads, with 5000 + 4096 + 700 + 300 simulated
  // bytes among them.
  const std::vector<std::pair<MessagePayload, MessagePayload>> exchanges = {
      {push, PushAck{true, "teamB.Person"}},
      {TypeInfoRequest{{"teamA.Person"}}, TypeInfoResponse{{"<type/>"}, {}}},
      {CodeRequest{"teamA.people"}, CodeResponse{"teamA.people", true, 4096}},
      {SessionBatch{{warm, intro}}, SessionBatchAck{{ok, ok}}},
      {prepaid, ok}};
  constexpr std::uint64_t kSimulated = 5000 + 4096 + 700 + 300;

  TypeParam net;
  std::atomic<std::size_t> next{0};
  net.attach("server", [&](const Message& m) {
    return Message{"server", m.sender, exchanges[next++].second};
  });
  std::uint64_t modelled = 0;
  std::uint64_t frames = 0;
  const serial::FrameCodec codec;
  const std::uint64_t bytes_before = net.stats().bytes;
  std::uint64_t sent_before = 0;
  if constexpr (std::is_same_v<TypeParam, SocketTransport>) {
    sent_before = net.socket_stats().wire_bytes_sent;
  }
  for (const auto& [request, response] : exchanges) {
    const Message out{"client", "server", request};
    const Message back{"server", "client", response};
    (void)net.send(out);
    modelled += out.wire_size() + back.wire_size();
    frames += codec.encode(out).size() + codec.encode(back).size();
  }
  EXPECT_EQ(net.stats().bytes - bytes_before, modelled);
  EXPECT_EQ(modelled, frames + kSimulated);
  if constexpr (std::is_same_v<TypeParam, SocketTransport>) {
    EXPECT_EQ(net.socket_stats().wire_bytes_sent - sent_before, frames);
  }
}

template <class T>
class EndpointContractConcurrent : public ::testing::Test {};
TYPED_TEST_SUITE(EndpointContractConcurrent, testing_support::ConcurrentTransports,
                 testing_support::TransportName);

TYPED_TEST(EndpointContractConcurrent, DetachBlocksUntilInFlightHandlerFinishes) {
  TypeParam net;
  std::counting_semaphore<8> started(0);
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  std::atomic<bool> handler_finished{false};
  net.attach("slow", [&](const Message& m) {
    started.release();
    gate_open.wait();
    handler_finished.store(true);
    return Message{"slow", m.sender, PushAck{true, ""}};
  });
  auto f1 = net.send_async(Message{"c", "slow", CodeRequest{"1"}});
  started.acquire();  // the handler is executing now
  std::atomic<bool> detach_returned{false};
  std::thread detacher([&] {
    net.detach("slow");
    // The quiescence guarantee: when detach returns, no execution is in
    // flight — the handler observably ran to completion first.
    EXPECT_TRUE(handler_finished.load());
    detach_returned.store(true);
  });
  // New deliveries fail at once, in both forms, even while detach waits.
  while (net.is_attached("slow")) std::this_thread::yield();
  auto f2 = net.send_async(Message{"c", "slow", CodeRequest{"2"}});
  EXPECT_THROW((void)f2.get(), NetworkError);
  EXPECT_THROW((void)net.send(Message{"c", "slow", CodeRequest{"3"}}), NetworkError);
  EXPECT_FALSE(detach_returned.load());
  gate.set_value();
  detacher.join();
  EXPECT_TRUE(std::get<PushAck>(f1.get().payload).delivered);
}

// SocketTransport is left out on purpose: there a's handler runs on a
// different reader thread from b's, so the thread-local reentrancy check
// cannot see that b's execution is waiting on a, and detach("b") waits
// forever (the documented limit in transport.hpp). The in-process
// transports run a nested send's handler on the sending thread.
template <class T>
class EndpointContractNested : public ::testing::Test {};
TYPED_TEST_SUITE(EndpointContractNested, testing_support::InProcessTransports,
                 testing_support::TransportName);

TYPED_TEST(EndpointContractNested, NestedDetachOfExecutingHandlerIsSafe) {
  // b's handler does a nested send to a, whose handler detaches b — while
  // b's handler is still executing. b must finish its exchange unharmed.
  TypeParam net;
  net.attach("a", [&net](const Message& m) {
    net.detach("b");
    return Message{"a", m.sender, PushAck{true, ""}};
  });
  net.attach("b", [&net](const Message& m) {
    (void)net.send(Message{"b", "a", CodeRequest{"poison"}});
    return Message{"b", m.sender, PushAck{true, "survived"}};
  });
  EXPECT_EQ(reply_detail(net, "b"), "survived");
  EXPECT_FALSE(net.is_attached("b"));
  EXPECT_TRUE(net.is_attached("a"));
}

// --- fault injection: drop schedules + partitions, classified errors ---------

// One InteropSystem universe over a SimNetwork the test keeps a handle to,
// so protocol steps can be killed deterministically and the public try_*
// API's error classification checked end to end. First-push message order:
//   1 ObjectPush  2 TypeInfoRequest  3 TypeInfoResponse  4 TypeInfoRequest
//   (teamA.INamed)  5 TypeInfoResponse  6 CodeRequest  7 CodeResponse
//   8 PushAck.
class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : net_ptr_(new SimNetwork()),
        system_(std::unique_ptr<Transport>(net_ptr_)),
        alice_(system_.create_runtime("alice")),
        bob_(system_.create_runtime("bob")) {
    (void)alice_.publish_assembly(fixtures::team_a_people());
    (void)bob_.publish_assembly(fixtures::team_b_people());
    bob_.subscribe("teamB.Person", [](const DeliveredObject&) {});
  }

  std::shared_ptr<DynObject> make_person(std::string_view name) {
    const Value args[] = {Value(name)};
    return alice_.make("teamA.Person", args);
  }

  SimNetwork& net() { return *net_ptr_; }

  SimNetwork* net_ptr_;  // owned by system_
  core::InteropSystem system_;
  core::InteropRuntime& alice_;
  core::InteropRuntime& bob_;
};

TEST_F(FaultInjectionTest, DroppedPushClassifiesAsNetworkError) {
  net().inject_drop_next(1);
  const auto result = alice_.try_send("bob", make_person("X"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, core::ErrorCode::Network);
  // The push never arrived: the receiver saw nothing.
  EXPECT_EQ(bob_.stats().objects_received, 0u);
  EXPECT_EQ(net().stats().drops, 1u);
  // Recovery: the next push completes the whole flow.
  EXPECT_TRUE(alice_.send("bob", make_person("Y")).delivered);
}

TEST_F(FaultInjectionTest, DroppedTypeInfoRequestAbortsAndRecovers) {
  net().inject_drop_at(2);  // bob's step-2 TypeInfoRequest
  const auto result = alice_.try_send("bob", make_person("X"));
  ASSERT_FALSE(result.has_value());
  // bob caught the network failure mid-protocol and answered with an
  // ErrorReply, which surfaces at alice as a protocol-level error.
  EXPECT_EQ(result.error().code, core::ErrorCode::Protocol);
  EXPECT_EQ(bob_.stats().objects_received, 1u);
  EXPECT_EQ(bob_.stats().objects_delivered, 0u);
  EXPECT_EQ(bob_.stats().typeinfo_requests, 1u);  // initiated, then dropped
  EXPECT_EQ(net().stats().drops, 1u);

  // Retry: nothing was cached by the aborted attempt, so the full dance
  // (2 description round trips + 1 code download) runs and succeeds.
  EXPECT_TRUE(alice_.send("bob", make_person("Y")).delivered);
  EXPECT_EQ(bob_.stats().typeinfo_requests, 3u);
  EXPECT_EQ(bob_.stats().code_requests, 1u);
  EXPECT_EQ(bob_.stats().objects_delivered, 1u);
}

TEST_F(FaultInjectionTest, DroppedTypeInfoResponseAbortsAndRecovers) {
  net().inject_drop_at(3);  // alice's step-3 TypeInfoResponse
  const auto result = alice_.try_send("bob", make_person("X"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, core::ErrorCode::Protocol);
  // alice served the description even though it never arrived (the pushed
  // person has no address set, so the envelope carries one type).
  EXPECT_EQ(alice_.stats().typeinfo_served, 1u);
  EXPECT_EQ(bob_.stats().typeinfo_requests, 1u);
  EXPECT_FALSE(bob_.domain().has_assembly("teamA.people"));

  EXPECT_TRUE(alice_.send("bob", make_person("Y")).delivered);
  EXPECT_EQ(bob_.stats().typeinfo_requests, 3u);
}

TEST_F(FaultInjectionTest, DroppedCodeRequestAbortsWithoutCodeAndRecovers) {
  net().inject_drop_at(6);  // bob's step-4 CodeRequest
  const auto result = alice_.try_send("bob", make_person("X"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, core::ErrorCode::Protocol);
  // Conformance was decided (descriptions arrived), the download died.
  EXPECT_EQ(bob_.stats().typeinfo_requests, 2u);
  EXPECT_EQ(bob_.stats().code_requests, 1u);
  EXPECT_FALSE(bob_.domain().has_assembly("teamA.people"));
  EXPECT_EQ(bob_.stats().objects_delivered, 0u);

  // Retry: descriptions are cached now; only the code download repeats.
  EXPECT_TRUE(alice_.send("bob", make_person("Y")).delivered);
  EXPECT_EQ(bob_.stats().typeinfo_cache_hits, 1u);
  EXPECT_EQ(bob_.stats().code_requests, 2u);
  EXPECT_TRUE(bob_.domain().has_assembly("teamA.people"));
}

TEST_F(FaultInjectionTest, FullPartitionDropsThePushItself) {
  net().partition("alice", "bob");
  net().partition("bob", "alice");
  const auto result = alice_.try_send("bob", make_person("X"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, core::ErrorCode::Network);
  EXPECT_EQ(bob_.stats().objects_received, 0u);
  EXPECT_EQ(net().stats().drops, 1u);

  net().heal_all_partitions();
  EXPECT_TRUE(alice_.send("bob", make_person("Y")).delivered);
}

TEST_F(FaultInjectionTest, AsymmetricPartitionKillsTheReturnPath) {
  // Requests reach bob, every bob->alice message vanishes: bob's step-2
  // request dies first, his ErrorReply dies too — alice sees the network
  // failure directly.
  net().partition("bob", "alice");
  const auto result = alice_.try_send("bob", make_person("X"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, core::ErrorCode::Network);
  EXPECT_EQ(bob_.stats().objects_received, 1u);
  EXPECT_EQ(bob_.stats().objects_delivered, 0u);
  EXPECT_EQ(net().stats().drops, 2u);  // TypeInfoRequest + ErrorReply

  net().heal_partition("bob", "alice");
  EXPECT_TRUE(alice_.send("bob", make_person("Y")).delivered);
  // The universe converged despite the outage: later pushes are all-cache.
  EXPECT_TRUE(alice_.send("bob", make_person("Z")).delivered);
  EXPECT_EQ(bob_.stats().typeinfo_cache_hits, 1u);
  EXPECT_EQ(bob_.stats().code_cache_hits, 1u);
}

TEST_F(FaultInjectionTest, PartitionToUnknownPeerStillClassifiesUnknownPeer) {
  const auto result = alice_.try_send("ghost", make_person("X"));
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, core::ErrorCode::UnknownPeer);
}

// --- AsyncTransport ----------------------------------------------------------

namespace async_helpers {

/// An AsyncTransport echo endpoint answering every request with a PushAck.
void attach_echo(Transport& net, std::string name) {
  net.attach(name, [name](const Message& m) {
    return Message{name, m.sender, PushAck{true, "ok"}};
  });
}

}  // namespace async_helpers

TEST(AsyncTransportTest, SyncSendRoutesAndChargesDeterministically) {
  AsyncTransport net({.workers = 2});
  async_helpers::attach_echo(net, "echo");
  net.set_default_link({.latency_ns = 1'000'000, .bandwidth_bytes_per_sec = 1e12});
  const Message reply = net.send(Message{"client", "echo", CodeRequest{"x"}});
  EXPECT_TRUE(std::get<PushAck>(reply.payload).delivered);
  EXPECT_EQ(reply.sender, "echo");
  EXPECT_EQ(reply.recipient, "client");
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_GT(net.stats().bytes, 0u);
  // Virtual-clock determinism: both traversals charged exactly 1 ms
  // latency plus negligible transmission time at 1 TB/s.
  EXPECT_GE(net.clock().now_ns(), 2'000'000u);
  EXPECT_LT(net.clock().now_ns(), 2'100'000u);
}

TEST(AsyncTransportTest, FutureFormDeliversTheResponse) {
  AsyncTransport net({.workers = 2});
  async_helpers::attach_echo(net, "echo");
  std::future<Message> future = net.send_async(Message{"client", "echo", CodeRequest{"x"}});
  const Message reply = future.get();
  EXPECT_TRUE(std::get<PushAck>(reply.payload).delivered);
  EXPECT_EQ(reply.recipient, "client");
  net.drain();
  EXPECT_EQ(net.stats().messages, 2u);
}

TEST(AsyncTransportTest, CallbackFormRunsOnCompletion) {
  AsyncTransport net({.workers = 2});
  async_helpers::attach_echo(net, "echo");
  std::promise<bool> delivered;
  net.send_async(Message{"client", "echo", CodeRequest{"x"}},
                 [&delivered](Message response, std::exception_ptr error) {
                   delivered.set_value(!error &&
                                       std::get<PushAck>(response.payload).delivered);
                 });
  EXPECT_TRUE(delivered.get_future().get());
}

TEST(AsyncTransportTest, BackpressureRejectPolicyFailsOverflow) {
  AsyncTransport net({.workers = 1,
                      .max_inbox = 1,
                      .overflow = AsyncTransportConfig::Overflow::Reject});
  std::counting_semaphore<8> started(0);
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  net.attach("slow", [&](const Message& m) {
    started.release();
    gate_open.wait();
    return Message{"slow", m.sender, PushAck{true, ""}};
  });
  // First request occupies the single worker...
  auto f1 = net.send_async(Message{"c", "slow", CodeRequest{"1"}});
  started.acquire();
  // ...second fills the inbox, third overflows.
  auto f2 = net.send_async(Message{"c", "slow", CodeRequest{"2"}});
  auto f3 = net.send_async(Message{"c", "slow", CodeRequest{"3"}});
  EXPECT_THROW((void)f3.get(), TransportError);
  gate.set_value();
  EXPECT_TRUE(std::get<PushAck>(f1.get().payload).delivered);
  EXPECT_TRUE(std::get<PushAck>(f2.get().payload).delivered);
}

TEST(AsyncTransportTest, BackpressureBlockPolicyWaitsForSpace) {
  AsyncTransport net({.workers = 1,
                      .max_inbox = 1,
                      .overflow = AsyncTransportConfig::Overflow::Block});
  std::counting_semaphore<8> started(0);
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  net.attach("slow", [&](const Message& m) {
    started.release();
    gate_open.wait();
    return Message{"slow", m.sender, PushAck{true, ""}};
  });
  auto f1 = net.send_async(Message{"c", "slow", CodeRequest{"1"}});
  started.acquire();  // worker busy, inbox empty
  auto f2 = net.send_async(Message{"c", "slow", CodeRequest{"2"}});  // inbox full now
  // The third send_async must block until the worker frees inbox space.
  std::thread blocked([&net] {
    auto f3 = net.send_async(Message{"c", "slow", CodeRequest{"3"}});
    EXPECT_TRUE(std::get<PushAck>(f3.get().payload).delivered);
  });
  gate.set_value();
  blocked.join();
  EXPECT_TRUE(std::get<PushAck>(f1.get().payload).delivered);
  EXPECT_TRUE(std::get<PushAck>(f2.get().payload).delivered);
  net.drain();
  EXPECT_EQ(net.stats().messages, 6u);
  EXPECT_EQ(net.pending(), 0u);
}

TEST(AsyncTransportTest, HandlerContextSendAsyncFailsFastInsteadOfDeadlocking) {
  // Block-policy backpressure must not apply to sends issued from inside
  // a handler: with one worker executing that handler, waiting for inbox
  // space only workers can free would deadlock the whole pool. The
  // handler-context send fails fast with TransportError instead.
  AsyncTransport net({.workers = 1,
                      .max_inbox = 1,
                      .overflow = AsyncTransportConfig::Overflow::Block});
  std::counting_semaphore<8> started(0);
  std::promise<void> filled;
  std::shared_future<void> filled_ready = filled.get_future().share();
  net.attach("b", [](const Message& m) {
    return Message{"b", m.sender, PushAck{true, "b-ok"}};
  });
  net.attach("a", [&](const Message& m) {
    started.release();
    filled_ready.wait();  // b's inbox is full now; the sole worker is here
    auto nested = net.send_async(Message{"a", "b", CodeRequest{"nested"}});
    bool rejected = false;
    try {
      (void)nested.get();
    } catch (const TransportError&) {
      rejected = true;
    }
    return Message{"a", m.sender, PushAck{rejected, "handler-send"}};
  });

  auto to_a = net.send_async(Message{"c", "a", CodeRequest{"go"}});
  started.acquire();
  auto to_b = net.send_async(Message{"c", "b", CodeRequest{"fill"}});  // inbox full
  filled.set_value();
  EXPECT_TRUE(std::get<PushAck>(to_a.get().payload).delivered)
      << "nested handler send must have been rejected, not blocked";
  EXPECT_TRUE(std::get<PushAck>(to_b.get().payload).delivered);
  net.drain();
}

TEST(AsyncTransportTest, DetachFailsQueuedRequests) {
  AsyncTransport net({.workers = 1});
  std::counting_semaphore<8> started(0);
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  net.attach("slow", [&](const Message& m) {
    started.release();
    gate_open.wait();
    return Message{"slow", m.sender, PushAck{true, ""}};
  });
  auto executing = net.send_async(Message{"c", "slow", CodeRequest{"1"}});
  started.acquire();
  auto queued = net.send_async(Message{"c", "slow", CodeRequest{"2"}});
  std::thread detacher([&net] { net.detach("slow"); });
  while (net.is_attached("slow")) std::this_thread::yield();
  // A request stays bound to the endpoint it was queued for: reattaching
  // the name while detach still waits must not hand it the old request.
  std::atomic<int> reattached_calls{0};
  net.attach("slow", [&](const Message& m) {
    ++reattached_calls;
    return Message{"slow", m.sender, PushAck{true, "reattached"}};
  });
  gate.set_value();
  detacher.join();
  EXPECT_TRUE(std::get<PushAck>(executing.get().payload).delivered);
  EXPECT_THROW((void)queued.get(), NetworkError);  // detached before delivery
  auto fresh = net.send_async(Message{"c", "slow", CodeRequest{"3"}});
  EXPECT_EQ(std::get<PushAck>(fresh.get().payload).detail, "reattached");
  EXPECT_EQ(reattached_calls.load(), 1);
}

TEST(AsyncTransportTest, FullProtocolRunsOverAsyncTransport) {
  // The whole Fig. 1 flow — including the nested mid-protocol round trips
  // the receiver's handler makes — over the concurrent transport, both
  // through the sync path and through send_object_async futures.
  auto hub = std::make_shared<AssemblyHub>();
  AsyncTransport net({.workers = 2});
  Peer alice("alice", net, hub);
  Peer bob("bob", net, hub);
  alice.host_assembly(fixtures::team_a_people());
  bob.host_assembly(fixtures::team_b_people());
  bob.add_interest("teamB.Person");

  const Value args[] = {Value("Sync")};
  const PushAck sync_ack =
      alice.send_object("bob", alice.domain().instantiate("teamA.Person", args));
  EXPECT_TRUE(sync_ack.delivered);
  EXPECT_EQ(sync_ack.detail, "teamB.Person");

  std::vector<std::future<PushAck>> pending;
  for (int i = 0; i < 4; ++i) {
    const Value async_args[] = {Value("Async" + std::to_string(i))};
    pending.push_back(alice.send_object_async(
        "bob", alice.domain().instantiate("teamA.Person", async_args)));
  }
  for (auto& f : pending) EXPECT_TRUE(f.get().delivered);
  net.drain();
  EXPECT_EQ(bob.delivered_count(), 5u);
  EXPECT_EQ(bob.stats().objects_delivered, 5u);
  EXPECT_EQ(alice.stats().objects_sent, 5u);
  // Metadata/code crossed the wire once; later pushes were all-cache.
  EXPECT_EQ(bob.stats().code_requests, 1u);
  EXPECT_EQ(bob.stats().typeinfo_cache_hits, 4u);
  // The delivered objects are usable as bob's own type.
  const auto snapshot = bob.delivered_snapshot();
  ASSERT_EQ(snapshot.size(), 5u);
  EXPECT_EQ(
      bob.proxies().invoke(snapshot.front().adapted, "getPersonName", {}).as_string(),
      "Sync");
}

TEST(AsyncTransportTest, DestroyingSenderWithInFlightAsyncSendIsSafe) {
  // The completion callback of send_object_async touches the sending peer
  // (stats); ~Peer must therefore wait for outstanding completions. Pin
  // it: destroy the sender while its push sits behind a blocked worker —
  // the future must still resolve and nothing may touch freed memory.
  auto hub = std::make_shared<AssemblyHub>();
  AsyncTransport net({.workers = 1});
  std::counting_semaphore<8> started(0);
  std::promise<void> gate;
  std::shared_future<void> gate_open = gate.get_future().share();
  net.attach("wall", [&](const Message& m) {
    started.release();
    gate_open.wait();
    return Message{"wall", m.sender, PushAck{true, ""}};
  });

  Peer bob("bob", net, hub);
  bob.host_assembly(fixtures::team_b_people());
  bob.add_interest("teamB.Person");

  std::future<PushAck> pending;
  std::thread destroyer;
  {
    Peer alice("alice", net, hub);
    alice.host_assembly(fixtures::team_a_people());
    const Value args[] = {Value("Warm")};
    // Warm bob first (sync, runs inline): the queued push below must not
    // need alice's endpoint for descriptions after she is gone.
    ASSERT_TRUE(
        alice.send_object("bob", alice.domain().instantiate("teamA.Person", args))
            .delivered);
    const Value ghost_args[] = {Value("Ghost")};
    auto person = alice.domain().instantiate("teamA.Person", ghost_args);
    // Occupy the only worker, then queue alice's push behind it.
    auto blocker = net.send_async(Message{"c", "wall", CodeRequest{"x"}});
    started.acquire();
    pending = alice.send_object_async("bob", person);
    // ~Peer (alice) must block on the outstanding completion; unblock the
    // worker from another thread so destruction can finish.
    destroyer = std::thread([&gate] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      gate.set_value();
    });
    (void)blocker;
  }  // alice destroyed here — after her completion ran
  destroyer.join();
  EXPECT_TRUE(pending.get().delivered);
  EXPECT_EQ(bob.delivered_count(), 2u);
}

TEST(AsyncTransportTest, SystemUniverseOverAsyncTransport) {
  auto owned = std::make_unique<AsyncTransport>(AsyncTransportConfig{.workers = 2});
  AsyncTransport& net = *owned;
  core::InteropSystem system(std::move(owned));
  auto& sender = system.create_runtime("sender");
  auto& receiver = system.create_runtime("receiver");
  (void)sender.publish_assembly(fixtures::team_a_people());
  (void)receiver.publish_assembly(fixtures::team_b_people());
  std::atomic<int> events{0};
  const auto person_b = receiver.type("teamB.Person");
  auto sub = receiver.subscribe(person_b, [&](const DeliveredObject&) { ++events; });

  std::vector<std::future<PushAck>> pending;
  for (int i = 0; i < 8; ++i) {
    const Value args[] = {Value("P" + std::to_string(i))};
    pending.push_back(sender.send_async("receiver", sender.make("teamA.Person", args)));
  }
  int delivered = 0;
  for (auto& f : pending) delivered += f.get().delivered ? 1 : 0;
  net.drain();
  EXPECT_EQ(delivered, 8);
  EXPECT_EQ(events.load(), 8);
  EXPECT_EQ(receiver.peer().delivered_count(), 8u);
  EXPECT_EQ(receiver.stats().objects_received, 8u);
}

// Concurrent first contacts: a push whose check finds a type missing that a
// concurrent push has just registered must check again, not give up. A
// single universe hits that window in roughly one run in ten.
TEST(AsyncTransportTest, ConcurrentFirstContactsAllDeliver) {
  for (int round = 0; round < 40; ++round) {
    auto owned = std::make_unique<AsyncTransport>(AsyncTransportConfig{.workers = 2});
    core::InteropSystem system(std::move(owned));
    auto& sender = system.create_runtime("sender");
    auto& receiver = system.create_runtime("receiver");
    (void)sender.publish_assembly(fixtures::team_a_people());
    (void)receiver.publish_assembly(fixtures::team_b_people());
    auto sub = receiver.subscribe(receiver.type("teamB.Person"), [](const DeliveredObject&) {});
    std::vector<std::future<PushAck>> pending;
    for (int i = 0; i < 8; ++i) {
      const Value args[] = {Value("P" + std::to_string(i))};
      pending.push_back(sender.send_async("receiver", sender.make("teamA.Person", args)));
    }
    for (auto& f : pending) {
      const PushAck ack = f.get();
      ASSERT_TRUE(ack.delivered) << "round " << round << ": " << ack.detail;
    }
  }
}

// --- assembly hub -------------------------------------------------------------

TEST(AssemblyHub, PublishAndFetch) {
  AssemblyHub hub;
  EXPECT_FALSE(hub.has("teamA.people"));
  hub.publish(fixtures::team_a_people());
  EXPECT_TRUE(hub.has("TEAMA.PEOPLE"));  // case-insensitive
  EXPECT_NE(hub.fetch("teamA.people"), nullptr);
  EXPECT_EQ(hub.fetch("nope"), nullptr);
  EXPECT_THROW(hub.publish(nullptr), TransportError);
}

}  // namespace
}  // namespace pti::transport
