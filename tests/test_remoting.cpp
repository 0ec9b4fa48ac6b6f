// Tests for pass-by-reference semantics: export/import, remote
// invocation, pass-by-value arguments/results inside remote calls, and the
// dynamic-proxy-over-remoting-proxy composition (paper Section 6.2).
#include <gtest/gtest.h>

#include "fixtures/sample_types.hpp"
#include "reflect/introspect.hpp"
#include "reflect/type_builder.hpp"
#include "remoting/remoting.hpp"
#include "remoting/remoting_error.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/peer.hpp"
#include "transport/sim_network.hpp"

namespace pti::remoting {
namespace {

using reflect::DynObject;
using reflect::Value;
using transport::AssemblyHub;
using transport::Peer;
using transport::SimNetwork;

class RemotingTest : public ::testing::Test {
 protected:
  RemotingTest()
      : hub_(std::make_shared<AssemblyHub>()),
        server_("server", net_, hub_),
        client_("client", net_, hub_),
        server_remoting_(server_),
        client_remoting_(client_) {
    server_.host_assembly(fixtures::team_a_people());
    server_.host_assembly(fixtures::print_shop());
    client_.host_assembly(fixtures::team_b_people());
    client_.host_assembly(fixtures::office_devices());
  }

  SimNetwork net_;
  std::shared_ptr<AssemblyHub> hub_;
  Peer server_;
  Peer client_;
  Remoting server_remoting_;
  Remoting client_remoting_;
};

TEST_F(RemotingTest, BasicRemoteInvocation) {
  const Value args[] = {Value("Alice")};
  auto person = server_.domain().instantiate("teamA.Person", args);
  const std::uint64_t id = server_remoting_.export_object(person);

  auto ref = client_remoting_.import_ref("server", id, "teamA.Person");
  EXPECT_TRUE(client_remoting_.is_remote_ref(*ref));
  EXPECT_EQ(ref->type_name(), "teamA.Person");

  // Invocations flow through the ProxyFactory -> RemoteInvoker path.
  EXPECT_EQ(client_.proxies().invoke(ref, "getName", {}).as_string(), "Alice");

  // Mutations happen on the server-side object (reference semantics).
  const Value rename[] = {Value("Alicia")};
  client_.proxies().invoke(ref, "setName", rename);
  EXPECT_EQ(person->get("name").as_string(), "Alicia");
}

TEST_F(RemotingTest, ImportFetchesTypeDescriptionOnDemand) {
  EXPECT_EQ(client_.domain().registry().find("teamA.Person"), nullptr);
  const Value args[] = {Value("X")};
  const std::uint64_t id = server_remoting_.export_object(
      server_.domain().instantiate("teamA.Person", args));
  auto ref = client_remoting_.import_ref("server", id, "teamA.Person");
  EXPECT_NE(client_.domain().registry().find("teamA.Person"), nullptr);
  // The client has the description but never downloaded code.
  EXPECT_FALSE(client_.domain().is_loaded("teamA.Person"));
  (void)ref;
}

TEST_F(RemotingTest, DynamicProxyOverRemotingProxy) {
  // The paper's composition: the client queries its own type teamB.Person,
  // the server lends a teamA.Person — implicitly conformant only.
  const Value args[] = {Value("Ada")};
  const std::uint64_t id = server_remoting_.export_object(
      server_.domain().instantiate("teamA.Person", args));
  auto ref = client_remoting_.import_ref("server", id, "teamA.Person");

  auto as_b = client_.proxies().wrap(ref, "teamB.Person");
  ASSERT_TRUE(proxy::ProxyFactory::is_proxy(*as_b));
  // client-side rename (getPersonName -> getName), then remote dispatch.
  EXPECT_EQ(client_.proxies().invoke(as_b, "getPersonName", {}).as_string(), "Ada");
  const Value rename[] = {Value("Lovelace")};
  client_.proxies().invoke(as_b, "setPersonName", rename);
  EXPECT_EQ(client_.proxies().invoke(as_b, "getPersonName", {}).as_string(), "Lovelace");
}

TEST_F(RemotingTest, ArgumentsPassByValue) {
  // print(doc) sends the document string by value; the queue grows on the
  // server's printer only.
  const Value args[] = {Value("office-laser")};
  auto printer = server_.domain().instantiate("shopA.Printer", args);
  const std::uint64_t id = server_remoting_.export_object(printer);
  auto ref = client_remoting_.import_ref("server", id, "shopA.Printer");

  const Value doc[] = {Value(std::string(95, 'x'))};
  const Value pages = client_.proxies().invoke(ref, "print", doc);
  EXPECT_EQ(pages.as_int32(), 10);
  EXPECT_EQ(printer->get("queue").as_int32(), 10);
  EXPECT_EQ(client_.proxies().invoke(ref, "getQueueLength", {}).as_int32(), 10);
}

TEST_F(RemotingTest, ObjectArgumentsTravelByValueWithCodeDownload) {
  // Pass a client-built teamB.Address into a remote teamA.Person's
  // setAddress: the server must fetch teamB descriptions AND code to
  // deserialize the argument.
  const Value args[] = {Value("Ada")};
  auto person = server_.domain().instantiate("teamA.Person", args);
  const std::uint64_t id = server_remoting_.export_object(person);
  auto ref = client_remoting_.import_ref("server", id, "teamA.Person");

  const Value addr_args[] = {Value("Client St"), Value(std::int32_t{7})};
  auto address = client_.domain().instantiate("teamB.Address", addr_args);
  const Value set_args[] = {Value(address)};
  client_.proxies().invoke(ref, "setAddress", set_args);

  EXPECT_TRUE(server_.domain().has_assembly("teamB.people"));
  const auto& stored = person->get("address").as_object();
  EXPECT_EQ(stored->type_name(), "teamB.Address");
  EXPECT_EQ(stored->get("street").as_string(), "Client St");
  // By value: mutating the client's copy does not affect the server's.
  address->set("street", Value("Changed"));
  EXPECT_EQ(stored->get("street").as_string(), "Client St");
}

TEST_F(RemotingTest, ObjectResultsTravelByValue) {
  const Value args[] = {Value("Ada")};
  auto person = server_.domain().instantiate("teamA.Person", args);
  const Value addr_args[] = {Value("Server Ave"), Value(std::int32_t{9})};
  person->set("address", Value(server_.domain().instantiate("teamA.Address", addr_args)));
  const std::uint64_t id = server_remoting_.export_object(person);

  auto ref = client_remoting_.import_ref("server", id, "teamA.Person");
  const Value address = client_.proxies().invoke(ref, "getAddress", {});
  ASSERT_EQ(address.kind(), reflect::ValueKind::Object);
  // The client received a *copy* (with code downloaded on demand).
  EXPECT_TRUE(client_.domain().is_loaded("teamA.Address"));
  EXPECT_EQ(client_.domain().invoke(*address.as_object(), "getStreet").as_string(),
            "Server Ave");
  EXPECT_NE(address.as_object().get(), person->get("address").as_object().get());
}

TEST_F(RemotingTest, ErrorsPropagateAcrossTheWire) {
  const Value args[] = {Value("Ada")};
  const std::uint64_t id = server_remoting_.export_object(
      server_.domain().instantiate("teamA.Person", args));
  auto ref = client_remoting_.import_ref("server", id, "teamA.Person");

  // Unknown method on the server object.
  try {
    (void)client_.proxies().invoke(ref, "fly", {});
    FAIL() << "expected RemotingError";
  } catch (const RemotingError& e) {
    EXPECT_NE(std::string(e.what()).find("fly"), std::string::npos);
  }

  // Unknown object id.
  auto bad_ref = client_remoting_.import_ref("server", 424242, "teamA.Person");
  EXPECT_THROW((void)client_.proxies().invoke(bad_ref, "getName", {}), RemotingError);
}

TEST_F(RemotingTest, UnexportedObjectsBecomeUnreachable) {
  const Value args[] = {Value("Ada")};
  const std::uint64_t id = server_remoting_.export_object(
      server_.domain().instantiate("teamA.Person", args));
  auto ref = client_remoting_.import_ref("server", id, "teamA.Person");
  EXPECT_EQ(client_.proxies().invoke(ref, "getName", {}).as_string(), "Ada");
  server_remoting_.unexport(id);
  EXPECT_THROW((void)client_.proxies().invoke(ref, "getName", {}), RemotingError);
  EXPECT_EQ(server_remoting_.exported_count(), 0u);
}

TEST_F(RemotingTest, RemoteRefsCannotPassByValue) {
  const Value args[] = {Value("Ada")};
  const std::uint64_t id = server_remoting_.export_object(
      server_.domain().instantiate("teamA.Person", args));
  auto ref = client_remoting_.import_ref("server", id, "teamA.Person");
  // Sending a remote reference as a by-value argument is refused.
  const Value set_args[] = {Value(ref)};
  EXPECT_THROW((void)client_.proxies().invoke(ref, "setAddress", set_args),
               RemotingError);
}

TEST_F(RemotingTest, ReimportAsksOnlyForTheImportedClosure) {
  // A local type nobody can fully describe must not make every import of
  // an unrelated, fully known type ask the host about it.
  client_.domain().registry().add(reflect::introspect(
      *reflect::TypeBuilder("stray", "Orphan").field("ghost", "nowhere.Missing").build()));
  const Value args[] = {Value("Ada")};
  const std::uint64_t id = server_remoting_.export_object(
      server_.domain().instantiate("teamA.Person", args));
  (void)client_remoting_.import_ref("server", id, "teamA.Person");
  const std::uint64_t before = client_.stats().typeinfo_requests.get();
  for (int i = 0; i < 5; ++i) (void)client_remoting_.import_ref("server", id, "teamA.Person");
  EXPECT_EQ(client_.stats().typeinfo_requests.get() - before, 0u);
}

TEST_F(RemotingTest, ImportUnknownTypeFails) {
  EXPECT_THROW((void)client_remoting_.import_ref("server", 1, "no.Such"), RemotingError);
}

}  // namespace
}  // namespace pti::remoting
