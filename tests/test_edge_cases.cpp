// Cross-cutting edge cases that the per-module suites do not reach:
// static/visibility corner cases of the conformance rules, interface
// hierarchies, wildcard member names, serializer fallbacks and malformed
// wire data, and remoting error paths.
#include <gtest/gtest.h>

#include "conform/conformance_checker.hpp"
#include "fixtures/sample_types.hpp"
#include "reflect/domain.hpp"
#include "reflect/primitives.hpp"
#include "reflect/reflect_error.hpp"
#include "reflect/type_builder.hpp"
#include "reflect/type_parser.hpp"
#include "remoting/remoting.hpp"
#include "remoting/remoting_error.hpp"
#include "serial/serial_error.hpp"
#include "serial/soap_serializer.hpp"
#include "serial/xml_object_serializer.hpp"
#include "transport/peer.hpp"
#include "transport/sim_network.hpp"
#include "xml/xml_parser.hpp"

namespace pti {
namespace {

using conform::ConformanceChecker;
using reflect::Domain;
using reflect::DynObject;
using reflect::TypeDescription;
using reflect::TypeKind;
using reflect::Value;
using reflect::Visibility;

// --- conformance corners ---------------------------------------------------

TEST(ConformEdge, StaticMembersMustMatchStaticness) {
  Domain d;
  reflect::declare_types(d.registry(), R"(
    namespace a;
    class Util { static int32 count(); }
  )");
  reflect::declare_types(d.registry(), R"(
    namespace b;
    class Util { int32 count(); }
  )");
  ConformanceChecker checker(d.registry());
  // instance method cannot satisfy a static requirement (and vice versa).
  EXPECT_FALSE(checker.check("b.Util", "a.Util").conformant);
  EXPECT_FALSE(checker.check("a.Util", "b.Util").conformant);
}

TEST(ConformEdge, InterfaceHierarchiesConform) {
  Domain d;
  reflect::declare_types(d.registry(), R"(
    namespace a;
    interface IBase { int32 getId(); }
    interface IThing implements IBase { string getLabel(); }
  )");
  reflect::declare_types(d.registry(), R"(
    namespace b;
    interface IBase { int32 getId(); }
    interface IThing implements IBase { string getThingLabel(); }
  )");
  ConformanceChecker checker(d.registry());
  EXPECT_TRUE(checker.check("b.IThing", "a.IThing").conformant);
  EXPECT_TRUE(checker.check("b.IBase", "a.IBase").conformant);

  // Remove the interface from one side: the supertype aspect rejects.
  reflect::declare_types(d.registry(), R"(
    namespace c;
    interface IThing { string getLabel(); }
  )");
  EXPECT_FALSE(checker.check("c.IThing", "a.IThing").conformant);
}

TEST(ConformEdge, WildcardMemberNames) {
  Domain d;
  // Wildcards are not identifiers; build the pattern type directly.
  d.registry().add([] {
    TypeDescription t("pat", "Sensor", TypeKind::Class);
    t.set_guid(util::Guid::from_name("pat.Sensor"));
    t.add_method({"get*", "float64", {}, Visibility::Public, false});
    return t;
  }());
  reflect::declare_types(d.registry(), R"(
    namespace real;
    class Sensor {
      float64 getTemperature();
    }
  )");
  conform::ConformanceOptions options;
  options.allow_wildcards = true;
  ConformanceChecker checker(d.registry(), options);
  EXPECT_TRUE(checker.check("real.Sensor", "pat.Sensor").conformant);
  // Without wildcards the pattern is just a weird name that cannot match.
  ConformanceChecker strict(d.registry());
  EXPECT_FALSE(strict.check("real.Sensor", "pat.Sensor").conformant);
}

TEST(ConformEdge, ExtraSourceMembersNeverHurt) {
  Domain d;
  reflect::declare_types(d.registry(), R"(
    namespace small;
    class Box { int32 getWidth(); }
  )");
  reflect::declare_types(d.registry(), R"(
    namespace big;
    class Box {
      private int32 w;
      private int32 h;
      Box(int32 w, int32 h);
      int32 getWidth();
      int32 getHeight();
      void resize(int32 w, int32 h);
    }
  )");
  ConformanceChecker checker(d.registry());
  EXPECT_TRUE(checker.check("big.Box", "small.Box").conformant);
  EXPECT_FALSE(checker.check("small.Box", "big.Box").conformant);
}

TEST(ConformEdge, FieldTypeMismatchRejects) {
  Domain d;
  reflect::declare_types(d.registry(), "namespace a; class P { private int32 v; }");
  reflect::declare_types(d.registry(), "namespace b; class P { private string v; }");
  ConformanceChecker checker(d.registry());
  const auto r = checker.check("b.P", "a.P");
  EXPECT_FALSE(r.conformant);
  ASSERT_FALSE(r.failures.empty());
  EXPECT_NE(r.failures.front().find("field aspect"), std::string::npos);
}

TEST(ConformEdge, ConstructorArityMustBeCovered) {
  Domain d;
  reflect::declare_types(d.registry(),
                         "namespace a; class P { P(string name); P(); }");
  reflect::declare_types(d.registry(), "namespace b; class P { P(string name); }");
  ConformanceChecker checker(d.registry());
  // b lacks the 0-ary constructor a requires.
  EXPECT_FALSE(checker.check("b.P", "a.P").conformant);
  EXPECT_TRUE(checker.check("a.P", "b.P").conformant);
}

// --- serializer corners ------------------------------------------------------

TEST(SerialEdge, XmlSerializerKeepsAllFieldsForUnknownTypes) {
  // Without a description, the XML mechanism cannot distinguish public
  // from private and keeps everything (documented fallback).
  Domain d;
  serial::XmlObjectSerializer xml(&d.registry());
  auto obj = DynObject::make("mystery.T", util::Guid{});
  obj->set("secret", Value("visible-because-unknown"));
  const auto bytes = xml.serialize(Value(obj));
  const std::string text(bytes.begin(), bytes.end());
  EXPECT_NE(text.find("visible-because-unknown"), std::string::npos);
}

TEST(SerialEdge, SoapRejectsDanglingAndMalformedHrefs) {
  serial::SoapSerializer soap;
  const auto parse = [&](const char* body) {
    const std::string doc =
        std::string("<SOAP-ENV:Envelope><SOAP-ENV:Body>") + body +
        "</SOAP-ENV:Body></SOAP-ENV:Envelope>";
    return soap.deserialize(std::vector<std::uint8_t>(doc.begin(), doc.end()));
  };
  EXPECT_THROW((void)parse("<root href=\"#ref-9\"/>"), serial::SerialError);
  EXPECT_THROW((void)parse("<root href=\"ref-1\"/>"), serial::SerialError);
  EXPECT_THROW((void)parse("<root kind=\"object\"/>"), serial::SerialError);
}

TEST(SerialEdge, SoapRoundTripsEmptyObjectsAndEmptyLists) {
  serial::SoapSerializer soap;
  auto empty = DynObject::make("t.Empty", util::Guid::from_name("t.Empty"));
  const Value back = soap.deserialize(soap.serialize(Value(empty)));
  EXPECT_EQ(back.as_object()->fields().size(), 0u);
  EXPECT_EQ(back.as_object()->type_name(), "t.Empty");

  const Value list_back =
      soap.deserialize(soap.serialize(Value(Value::List{})));
  EXPECT_TRUE(list_back.as_list().empty());
}

// --- protocol / remoting corners ---------------------------------------------

TEST(RemotingEdge, MethodBodyExceptionsCrossTheWireAsErrors) {
  transport::SimNetwork net;
  auto hub = std::make_shared<transport::AssemblyHub>();
  transport::Peer server("server", net, hub);
  transport::Peer client("client", net, hub);
  remoting::Remoting server_remoting(server);
  remoting::Remoting client_remoting(client);

  auto assembly = std::make_shared<reflect::Assembly>("volatile.things");
  assembly->add_type(
      reflect::TypeBuilder("volatile", "Bomb")
          .method("explode", std::string(reflect::kInt32Type), {},
                  [](DynObject&, reflect::Args) -> Value {
                    throw reflect::ReflectError("boom");
                  })
          .build());
  server.host_assembly(assembly);

  auto bomb = server.domain().instantiate("volatile.Bomb");
  const auto id = server_remoting.export_object(bomb);
  auto ref = client_remoting.import_ref("server", id, "volatile.Bomb");
  try {
    (void)client.proxies().invoke(ref, "explode", {});
    FAIL() << "expected RemotingError";
  } catch (const remoting::RemotingError& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
  // The connection stays usable.
  EXPECT_TRUE(client_remoting.is_remote_ref(*ref));
}

TEST(ProtocolEdge, SendToSelfWorks) {
  transport::SimNetwork net;
  auto hub = std::make_shared<transport::AssemblyHub>();
  transport::Peer solo("solo", net, hub);
  solo.host_assembly(fixtures::team_a_people());
  solo.add_interest("teamA.Person");
  const Value args[] = {Value("Me")};
  const auto ack =
      solo.send_object("solo", solo.domain().instantiate("teamA.Person", args));
  EXPECT_TRUE(ack.delivered);
  // Same type universe: identity conformance, zero metadata traffic.
  EXPECT_EQ(solo.stats().typeinfo_requests, 0u);
  EXPECT_EQ(solo.stats().code_requests, 0u);
}

TEST(ProtocolEdge, InterestOrderDeterminesMatch) {
  transport::SimNetwork net;
  auto hub = std::make_shared<transport::AssemblyHub>();
  transport::Peer alice("alice", net, hub);
  transport::Peer bob("bob", net, hub);
  alice.host_assembly(fixtures::team_a_people());
  bob.host_assembly(fixtures::team_a_people());
  bob.host_assembly(fixtures::team_b_people());
  // Both interests conform; the first registered one wins.
  bob.add_interest("teamB.Person");
  bob.add_interest("teamA.Person");
  const Value args[] = {Value("X")};
  const auto ack =
      alice.send_object("bob", alice.domain().instantiate("teamA.Person", args));
  EXPECT_TRUE(ack.delivered);
  EXPECT_EQ(ack.detail, "teamB.Person");
}

TEST(ProtocolEdge, DuplicateInterestIsIdempotent) {
  transport::SimNetwork net;
  auto hub = std::make_shared<transport::AssemblyHub>();
  transport::Peer bob("bob", net, hub);
  bob.host_assembly(fixtures::team_b_people());
  bob.add_interest("teamB.Person");
  bob.add_interest("teamB.Person");
  bob.add_interest("Person");  // unique simple name resolves to the same
  EXPECT_EQ(bob.interest_ids().size(), 1u);
}

}  // namespace
}  // namespace pti
