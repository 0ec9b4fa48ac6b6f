// Tests for the v2 handle-based public API: TypeHandle identity, the
// Expected/try_ error channel (and its agreement with the throwing
// overloads), Subscription RAII semantics, batch conformance, and the
// pluggable Transport seam.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/interop.hpp"
#include "fixtures/sample_types.hpp"
#include "tap_transport.hpp"
#include "transport/sim_network.hpp"

namespace pti::core {
namespace {

using reflect::Value;

class ApiV2Test : public ::testing::Test {
 protected:
  ApiV2Test()
      : alice_(system_.create_runtime("alice")), bob_(system_.create_runtime("bob")) {
    alice_.publish_assembly(fixtures::team_a_people());
    bob_.publish_assembly(fixtures::team_b_people());
  }

  InteropSystem system_;
  InteropRuntime& alice_;
  InteropRuntime& bob_;
};

// --- TypeHandle --------------------------------------------------------------

TEST_F(ApiV2Test, TypeResolvesOnceAndCompares) {
  const TypeHandle person = alice_.type("teamA.Person");
  ASSERT_TRUE(person.valid());
  EXPECT_EQ(person.qualified_name(), "teamA.Person");
  EXPECT_EQ(person.description().name(), "Person");

  // Simple-name and differently-cased lookups resolve to the same handle.
  EXPECT_EQ(alice_.type("Person"), person);
  EXPECT_EQ(alice_.type("TEAMA.PERSON"), person);

  // Unknown names give an invalid handle, not an exception.
  const TypeHandle unknown = alice_.type("no.Such");
  EXPECT_FALSE(unknown.valid());
  EXPECT_FALSE(unknown == person);
  EXPECT_THROW((void)unknown.description(), reflect::ReflectError);

  const auto missing = alice_.try_type("no.Such");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, ErrorCode::UnknownType);
}

TEST_F(ApiV2Test, PublishAssemblyReturnsHandles) {
  const auto handles = alice_.publish_assembly(fixtures::bank_accounts());
  ASSERT_FALSE(handles.empty());
  for (const TypeHandle& h : handles) {
    ASSERT_TRUE(h.valid());
    EXPECT_EQ(alice_.type(h.qualified_name()), h);
  }
  const auto failed = alice_.try_publish_assembly(nullptr);
  ASSERT_FALSE(failed.has_value());
  EXPECT_THROW(alice_.publish_assembly(nullptr), transport::TransportError);
}

TEST_F(ApiV2Test, HandlesStayValidAcrossLaterPublishes) {
  const TypeHandle person = alice_.type("teamA.Person");
  alice_.publish_assembly(fixtures::bank_accounts());  // registry grows
  EXPECT_EQ(person.qualified_name(), "teamA.Person");  // pointer still good
  EXPECT_EQ(alice_.type("teamA.Person"), person);
}

// --- make / call / adapt -----------------------------------------------------

TEST_F(ApiV2Test, MakeAndCallThroughHandles) {
  const TypeHandle person = alice_.type("teamA.Person");
  const Value args[] = {Value("Ada")};
  auto obj = alice_.make(person, args);
  EXPECT_EQ(alice_.call(obj, "getName").as_string(), "Ada");

  auto tried = alice_.try_make(person, args);
  ASSERT_TRUE(tried.has_value());
  EXPECT_EQ(alice_.call(*tried, "getName").as_string(), "Ada");
}

TEST_F(ApiV2Test, MakeErrorPaths) {
  // Unknown type, string form: try_ reports UnknownType; throwing form
  // raises the v1 ReflectError.
  auto unknown = alice_.try_make("no.Such");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, ErrorCode::UnknownType);
  EXPECT_THROW((void)alice_.make("no.Such"), reflect::ReflectError);

  // Invalid handle.
  auto invalid = alice_.try_make(TypeHandle{});
  ASSERT_FALSE(invalid.has_value());
  EXPECT_EQ(invalid.error().code, ErrorCode::InvalidHandle);
  EXPECT_THROW((void)alice_.make(TypeHandle{}), reflect::ReflectError);

  // Known description whose code is not loaded locally: bob knows nothing
  // about teamA yet, so alice's handle naming a teamA type has no local
  // counterpart on bob — and a description-only type cannot be made.
  auto imported = bob_.try_make("teamA.Person");
  ASSERT_FALSE(imported.has_value());
  EXPECT_EQ(imported.error().code, ErrorCode::UnknownType);

  // Error::raise() rethrows the original exception type.
  EXPECT_THROW(unknown.error().raise(), reflect::ReflectError);
}

TEST_F(ApiV2Test, CallErrorPath) {
  const Value args[] = {Value("Ada")};
  auto person = alice_.make(alice_.type("teamA.Person"), args);
  auto missing = alice_.try_call(person, "noSuchMethod");
  ASSERT_FALSE(missing.has_value());
  EXPECT_EQ(missing.error().code, ErrorCode::Reflection);
  EXPECT_THROW((void)alice_.call(person, "noSuchMethod"), pti::Error);
}

TEST_F(ApiV2Test, AdaptThroughHandlesAndErrorPaths) {
  alice_.publish_assembly(fixtures::bank_accounts());
  const Value args[] = {Value("Ada")};
  auto person = alice_.make(alice_.type("teamA.Person"), args);

  // Conformant adaptation works and is callable.
  const TypeHandle named = alice_.type("teamA.INamed");
  auto as_named = alice_.adapt(person, named);
  EXPECT_EQ(alice_.call(as_named, "getName").as_string(), "Ada");
  auto tried = alice_.try_adapt(person, named);
  ASSERT_TRUE(tried.has_value());

  // Non-conformant adaptation: NonConformant via try_, throws via adapt.
  const TypeHandle account = alice_.type("bank.Account");
  auto refused = alice_.try_adapt(person, account);
  ASSERT_FALSE(refused.has_value());
  EXPECT_EQ(refused.error().code, ErrorCode::NonConformant);
  EXPECT_FALSE(refused.error().message.empty());
  EXPECT_THROW((void)alice_.adapt(person, account), proxy::NonConformantError);

  // Unknown target name and invalid handle.
  auto unknown = alice_.try_adapt(person, "no.Such");
  ASSERT_FALSE(unknown.has_value());
  EXPECT_EQ(unknown.error().code, ErrorCode::UnknownType);
  auto invalid = alice_.try_adapt(person, TypeHandle{});
  ASSERT_FALSE(invalid.has_value());
  EXPECT_EQ(invalid.error().code, ErrorCode::InvalidHandle);
}

// --- conformance -------------------------------------------------------------

TEST_F(ApiV2Test, ConformanceThroughHandles) {
  alice_.publish_assembly(fixtures::bank_accounts());
  const TypeHandle person = alice_.type("teamA.Person");
  const TypeHandle named = alice_.type("teamA.INamed");
  const TypeHandle account = alice_.type("bank.Account");

  EXPECT_TRUE(alice_.check_conformance(person, named).conformant);
  EXPECT_FALSE(alice_.check_conformance(account, person).conformant);
  EXPECT_TRUE(alice_.conforms(person, named));
  EXPECT_FALSE(alice_.conforms(account, person));
  EXPECT_FALSE(alice_.conforms(TypeHandle{}, named));

  auto tried = alice_.try_check_conformance(person, named);
  ASSERT_TRUE(tried.has_value());
  EXPECT_TRUE(tried->conformant);
  auto invalid = alice_.try_check_conformance(TypeHandle{}, named);
  ASSERT_FALSE(invalid.has_value());
  EXPECT_EQ(invalid.error().code, ErrorCode::InvalidHandle);
}

TEST_F(ApiV2Test, BatchConformanceMatchesIndividualVerdicts) {
  alice_.publish_assembly(fixtures::bank_accounts());
  const TypeHandle person = alice_.type("teamA.Person");
  const TypeHandle named = alice_.type("teamA.INamed");
  const TypeHandle account = alice_.type("bank.Account");

  std::vector<InteropRuntime::HandlePair> pairs;
  for (int i = 0; i < 100; ++i) {
    pairs.emplace_back(person, named);
    pairs.emplace_back(account, person);
    pairs.emplace_back(TypeHandle{}, named);  // invalid -> false
  }
  const std::vector<bool> verdicts = alice_.check_conformance(pairs);
  ASSERT_EQ(verdicts.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); i += 3) {
    EXPECT_TRUE(verdicts[i]);
    EXPECT_FALSE(verdicts[i + 1]);
    EXPECT_FALSE(verdicts[i + 2]);
  }

  // The span form writes into caller storage.
  bool out[6] = {};
  alice_.check_conformance(std::span<const InteropRuntime::HandlePair>(pairs.data(), 6),
                           out);
  EXPECT_TRUE(out[0]);
  EXPECT_FALSE(out[1]);
  EXPECT_FALSE(out[2]);
  EXPECT_TRUE(out[3]);
}

// --- subscriptions -----------------------------------------------------------

TEST_F(ApiV2Test, SubscriptionDeliversAndUnsubscribes) {
  const TypeHandle person_b = bob_.type("teamB.Person");
  int calls = 0;
  Subscription sub = bob_.subscribe(person_b, [&](const auto&) { ++calls; });
  EXPECT_TRUE(sub.active());
  EXPECT_EQ(bob_.handler_count(person_b), 1u);

  const Value args[] = {Value("Ada")};
  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  EXPECT_EQ(calls, 1);

  sub.unsubscribe();
  EXPECT_FALSE(sub.active());
  EXPECT_EQ(bob_.handler_count(person_b), 0u);
  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  EXPECT_EQ(calls, 1);  // handler no longer fires (interest still matches)
}

TEST_F(ApiV2Test, SubscriptionRaiiAndRelease) {
  const TypeHandle person_b = bob_.type("teamB.Person");
  int raii_calls = 0;
  int released_calls = 0;
  {
    Subscription scoped = bob_.subscribe(person_b, [&](const auto&) { ++raii_calls; });
    bob_.subscribe(person_b, [&](const auto&) { ++released_calls; }).release();
    EXPECT_EQ(bob_.handler_count(person_b), 2u);
  }  // `scoped` unsubscribes here; the released handler stays
  EXPECT_EQ(bob_.handler_count(person_b), 1u);

  const Value args[] = {Value("Ada")};
  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  EXPECT_EQ(raii_calls, 0);
  EXPECT_EQ(released_calls, 1);
}

TEST_F(ApiV2Test, SubscriptionMoveTransfersOwnership) {
  const TypeHandle person_b = bob_.type("teamB.Person");
  Subscription a = bob_.subscribe(person_b, [](const auto&) {});
  Subscription b = std::move(a);
  EXPECT_FALSE(a.active());
  EXPECT_TRUE(b.active());
  EXPECT_EQ(bob_.handler_count(person_b), 1u);

  Subscription c = bob_.subscribe(person_b, [](const auto&) {});
  c = std::move(b);  // move-assign unsubscribes c's old handler first
  EXPECT_EQ(bob_.handler_count(person_b), 1u);
  c.unsubscribe();
  c.unsubscribe();  // idempotent
  EXPECT_EQ(bob_.handler_count(person_b), 0u);
}

TEST_F(ApiV2Test, UnsubscribeFromInsideHandlerIsSafe) {
  const TypeHandle person_b = bob_.type("teamB.Person");
  int first_calls = 0;
  int second_calls = 0;
  Subscription first;
  first = bob_.subscribe(person_b, [&](const auto&) {
    ++first_calls;
    first.unsubscribe();  // self-removal mid-dispatch
  });
  Subscription second = bob_.subscribe(person_b, [&](const auto&) { ++second_calls; });

  const Value args[] = {Value("Ada")};
  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  EXPECT_EQ(first_calls, 1);   // removed itself after the first delivery
  EXPECT_EQ(second_calls, 2);  // unaffected by the mid-dispatch removal
}

TEST_F(ApiV2Test, SweepDestroyingHandlerThatOwnsAnotherSubscriptionIsSafe) {
  // A handler retired mid-dispatch is destroyed by the deferred sweep; its
  // closure owns the Subscription of ANOTHER handler on the same interest,
  // so destroying it reenters remove_handler while the sweep walks the
  // handler map. Regression test for a use-after-free found by review.
  const TypeHandle person_b = bob_.type("teamB.Person");
  int inner_calls = 0;
  auto inner = std::make_shared<Subscription>(
      bob_.subscribe(person_b, [&](const auto&) { ++inner_calls; }));

  auto outer = std::make_shared<Subscription>();
  *outer = bob_.subscribe(person_b, [outer, inner](const auto&) {
    outer->unsubscribe();  // retire self mid-dispatch -> sweep destroys
                           // this closure, dropping the last refs to
                           // `outer` AND `inner` during the sweep
  });
  inner.reset();
  outer.reset();

  const Value args[] = {Value("Ada")};
  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  EXPECT_EQ(inner_calls, 1);  // inner fired before the sweep removed it
  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  EXPECT_EQ(inner_calls, 1);  // both handlers gone, nothing dangles
  EXPECT_EQ(bob_.handler_count(person_b), 0u);
}

TEST(ApiV2Teardown, RuntimeDestructionWithSelfOwningHandlerIsSafe) {
  // A handler closure owning its own Subscription is destroyed by
  // ~InteropRuntime; the Subscription's destructor reenters
  // remove_handler, which must see a drained (valid, empty) map.
  bool alive = true;
  {
    InteropSystem system;
    auto& rt = system.create_runtime("solo");
    rt.publish_assembly(fixtures::team_a_people());
    auto sub = std::make_shared<Subscription>();
    *sub = rt.subscribe(rt.type("teamA.Person"), [sub, &alive](const auto&) {
      (void)alive;
    });
  }  // runtime destructs with the handler never fired
  EXPECT_TRUE(alive);
}

TEST_F(ApiV2Test, MidDispatchSubscriberDoesNotSeeInFlightEvent) {
  const TypeHandle person_b = bob_.type("teamB.Person");
  int outer_calls = 0;
  int late_calls = 0;
  bob_.subscribe(person_b, [&](const auto&) {
    ++outer_calls;
    // Registering during dispatch must not deliver THIS event to the new
    // handler (and a self-resubscribing handler must not loop the walk).
    bob_.subscribe(person_b, [&](const auto&) { ++late_calls; }).release();
  }).release();

  const Value args[] = {Value("Ada")};
  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  EXPECT_EQ(outer_calls, 1);
  EXPECT_EQ(late_calls, 0);  // subscribed after delivery started

  (void)alice_.send("bob", alice_.make("teamA.Person", args));
  EXPECT_EQ(outer_calls, 2);
  EXPECT_EQ(late_calls, 1);  // fires from the next delivery on
}

TEST_F(ApiV2Test, RepublishDifferentAssemblyUnderSameNameIsReported) {
  // Build an impostor assembly named like the already-loaded teamA bundle
  // but carrying a type the registry never saw.
  const std::string loaded_name = fixtures::team_a_people()->name();
  auto impostor = std::make_shared<reflect::Assembly>(loaded_name);
  const auto bank = fixtures::bank_accounts();
  for (const auto& type : bank->types()) {
    impostor->add_type(type);
  }
  auto result = alice_.try_publish_assembly(impostor);
  ASSERT_FALSE(result.has_value());
  EXPECT_EQ(result.error().code, ErrorCode::UnknownType);

  // Re-publishing the SAME assembly stays idempotent and returns handles.
  const auto handles = alice_.publish_assembly(fixtures::team_a_people());
  ASSERT_FALSE(handles.empty());
  for (const TypeHandle& h : handles) EXPECT_TRUE(h.valid());
}

TEST_F(ApiV2Test, SubscribeErrorPaths) {
  auto invalid = bob_.try_subscribe(TypeHandle{}, [](const auto&) {});
  ASSERT_FALSE(invalid.has_value());
  EXPECT_EQ(invalid.error().code, ErrorCode::InvalidHandle);
  EXPECT_THROW((void)bob_.subscribe(TypeHandle{}, [](const auto&) {}),
               reflect::ReflectError);

  auto null_handler = bob_.try_subscribe(bob_.type("teamB.Person"), nullptr);
  ASSERT_FALSE(null_handler.has_value());

  // v1 string shim still throws ProtocolError for unknown interests.
  EXPECT_THROW(bob_.subscribe("no.Such", [](const auto&) {}), transport::ProtocolError);
}

// --- send --------------------------------------------------------------------

TEST_F(ApiV2Test, SendErrorPaths) {
  const Value args[] = {Value("Ada")};
  auto person = alice_.make(alice_.type("teamA.Person"), args);

  auto unknown_peer = alice_.try_send("nobody", person);
  ASSERT_FALSE(unknown_peer.has_value());
  EXPECT_EQ(unknown_peer.error().code, ErrorCode::UnknownPeer);
  EXPECT_THROW((void)alice_.send("nobody", person), transport::NetworkError);

  auto null_object = alice_.try_send("bob", nullptr);
  ASSERT_FALSE(null_object.has_value());
  EXPECT_EQ(null_object.error().code, ErrorCode::Protocol);
  EXPECT_THROW((void)alice_.send("bob", nullptr), transport::ProtocolError);

  // A successful try_send reports the ack.
  bob_.subscribe("teamB.Person", [](const auto&) {});
  auto ack = alice_.try_send("bob", person);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->delivered);
}

// --- pass-by-reference -------------------------------------------------------

TEST_F(ApiV2Test, ImportRemoteThroughHandles) {
  const Value args[] = {Value("Ada")};
  auto person = alice_.make(alice_.type("teamA.Person"), args);
  const std::uint64_t id = alice_.export_object(person);

  // String import fetches the description; afterwards bob can hold a
  // handle and adapt through it.
  auto ref = bob_.import_remote("alice", id, "teamA.Person");
  const TypeHandle person_a = bob_.type("teamA.Person");
  ASSERT_TRUE(person_a.valid());
  auto as_b = bob_.adapt(ref, bob_.type("teamB.Person"));
  EXPECT_EQ(bob_.call(as_b, "getPersonName").as_string(), "Ada");

  // Handle import skips the fetch entirely.
  auto ref2 = bob_.import_remote("alice", id, person_a);
  EXPECT_EQ(bob_.call(ref2, "getName").as_string(), "Ada");
}

TEST_F(ApiV2Test, ImportRemoteErrorPaths) {
  auto null_export = alice_.try_export_object(nullptr);
  ASSERT_FALSE(null_export.has_value());
  EXPECT_EQ(null_export.error().code, ErrorCode::Remoting);

  // Unknown host: the description fetch dies on the network.
  auto no_host = bob_.try_import_remote("ghost", 1, "teamA.Person");
  ASSERT_FALSE(no_host.has_value());
  EXPECT_EQ(no_host.error().code, ErrorCode::Network);
  EXPECT_THROW((void)bob_.import_remote("ghost", 1, "teamA.Person"),
               transport::NetworkError);

  // Invalid handle import.
  auto invalid = bob_.try_import_remote("alice", 1, TypeHandle{});
  ASSERT_FALSE(invalid.has_value());
  EXPECT_EQ(invalid.error().code, ErrorCode::InvalidHandle);

  // Dangling reference: exported, imported, then unexported — the remote
  // invocation fails cleanly on both channels.
  const Value args[] = {Value("Ada")};
  auto person = alice_.make(alice_.type("teamA.Person"), args);
  const std::uint64_t id = alice_.export_object(person);
  auto ref = bob_.import_remote("alice", id, "teamA.Person");
  alice_.remoting().unexport(id);
  auto dangling = bob_.try_call(ref, "getName");
  ASSERT_FALSE(dangling.has_value());
  EXPECT_EQ(dangling.error().code, ErrorCode::Remoting);
  EXPECT_THROW((void)bob_.call(ref, "getName"), remoting::RemotingError);
}

// --- transport seam ----------------------------------------------------------

TEST(ApiV2Transport, SystemRunsOnCustomTransport) {
  // A decorator that counts sends: the whole stack runs against the seam.
  auto tap = std::make_unique<testing_support::TapTransport>();
  int sends = 0;
  tap->on_send = [&sends](transport::Message&) { ++sends; };
  InteropSystem system(std::move(tap));
  auto& alice = system.create_runtime("alice");
  auto& bob = system.create_runtime("bob");
  alice.publish_assembly(fixtures::team_a_people());
  bob.publish_assembly(fixtures::team_b_people());

  int delivered = 0;
  auto sub = bob.subscribe(bob.type("teamB.Person"), [&](const auto&) { ++delivered; });
  const Value args[] = {Value("Ada")};
  const auto ack = alice.send("bob", alice.make(alice.type("teamA.Person"), args));
  EXPECT_TRUE(ack.delivered);
  EXPECT_EQ(delivered, 1);
  EXPECT_GT(sends, 0);  // every protocol message crossed the seam
  EXPECT_GT(system.network().stats().bytes, 0u);
}

TEST(ApiV2Transport, NullTransportIsRejected) {
  EXPECT_THROW(InteropSystem(std::unique_ptr<transport::Transport>{}),
               transport::TransportError);
}

}  // namespace
}  // namespace pti::core
