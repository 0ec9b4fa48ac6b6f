// Tests for the serialization substrate: type descriptions as XML, the
// XML/SOAP/binary object serializers and the hybrid envelope (Fig. 3).
#include <gtest/gtest.h>

#include "break_cycles.hpp"
#include "fixtures/sample_types.hpp"
#include "reflect/domain.hpp"
#include "reflect/dyn_object.hpp"
#include "reflect/introspect.hpp"
#include "serial/binary_serializer.hpp"
#include "serial/envelope.hpp"
#include "serial/object_serializer.hpp"
#include "serial/serial_error.hpp"
#include "serial/soap_serializer.hpp"
#include "serial/typedesc_xml.hpp"
#include "serial/xml_object_serializer.hpp"
#include "util/rng.hpp"
#include "xml/xml_parser.hpp"
#include "xml/xml_writer.hpp"

namespace pti::serial {
namespace {

using reflect::Domain;
using reflect::DynObject;
using reflect::TypeDescription;
using reflect::Value;
using reflect::ValueKind;

void load_people(Domain& domain) {
  domain.load_assembly(fixtures::team_a_people(), "net://alice/teamA.people");
}

std::shared_ptr<DynObject> make_person(Domain& domain, std::string_view name) {
  const Value args[] = {Value(name)};
  auto person = domain.instantiate("teamA.Person", args);
  const Value street[] = {Value("Main St"), Value(std::int32_t{1015})};
  person->set("address", Value(domain.instantiate("teamA.Address", street)));
  return person;
}

// --- TypeDescription <-> XML ----------------------------------------------

TEST(TypeDescXml, RoundTripsThePersonDescription) {
  Domain domain;
  load_people(domain);
  const TypeDescription* d = domain.registry().find("teamA.Person");
  ASSERT_NE(d, nullptr);

  const std::string xml_text = type_description_to_string(*d);
  const TypeDescription back = type_description_from_string(xml_text);
  EXPECT_TRUE(d->structurally_equal(back));
  EXPECT_EQ(back.guid(), d->guid());
  EXPECT_EQ(back.qualified_name(), "teamA.Person");
  EXPECT_EQ(back.assembly_name(), "teamA.people");
  EXPECT_EQ(back.download_path(), "net://alice/teamA.people");
  EXPECT_EQ(back.interfaces(), d->interfaces());
  EXPECT_EQ(back.methods().size(), d->methods().size());
  EXPECT_EQ(back.constructors().size(), d->constructors().size());
}

TEST(TypeDescXml, RoundTripsEveryFixtureDescription) {
  Domain domain;
  domain.load_assembly(fixtures::team_a_people());
  domain.load_assembly(fixtures::team_b_people());
  domain.load_assembly(fixtures::planner_meetings());
  domain.load_assembly(fixtures::bank_accounts());
  domain.load_assembly(fixtures::lists_a());
  domain.load_assembly(fixtures::tagged_a());
  for (const TypeDescription* d : domain.registry().user_types()) {
    const TypeDescription back =
        type_description_from_string(type_description_to_string(*d));
    EXPECT_TRUE(d->structurally_equal(back)) << d->qualified_name();
    EXPECT_EQ(back.structural_tag(), d->structural_tag()) << d->qualified_name();
  }
}

TEST(TypeDescXml, IsNonRecursive) {
  // The description of Person references Address by name only — no nested
  // <TypeDescription> (paper Section 5.2).
  Domain domain;
  load_people(domain);
  const std::string xml_text =
      type_description_to_string(*domain.registry().find("teamA.Person"));
  const std::size_t first_open = xml_text.find("<TypeDescription");
  ASSERT_NE(first_open, std::string::npos);
  EXPECT_EQ(xml_text.find("<TypeDescription", first_open + 1), std::string::npos)
      << "nested description found in: " << xml_text;
  EXPECT_NE(xml_text.find("Address"), std::string::npos);
}

TEST(TypeDescXml, RejectsMalformedDocuments) {
  EXPECT_THROW((void)type_description_from_string("<Wrong/>"), SerialError);
  EXPECT_THROW((void)type_description_from_string(
                   "<TypeDescription name='X' kind='weird'/>"),
               SerialError);
  EXPECT_THROW((void)type_description_from_string(
                   "<TypeDescription name='X' kind='class' guid='nope'/>"),
               SerialError);
}

// --- object serializers: shared behaviour -----------------------------------

class SerializerCase : public ::testing::TestWithParam<const char*> {
 protected:
  SerializerCase() {
    load_people(domain_);
    registry_ = SerializerRegistry::with_defaults();
  }
  ObjectSerializer& serializer() { return registry_.get(GetParam()); }
  Domain domain_;
  SerializerRegistry registry_;
};

TEST_P(SerializerCase, RoundTripsScalars) {
  ObjectSerializer& s = serializer();
  const std::vector<Value> values = {
      Value(),
      Value(true),
      Value(false),
      Value(std::int32_t{-42}),
      Value(std::int64_t{1} << 40),
      Value(3.14159),
      Value(-0.0),
      Value(""),
      Value("héllo <&> \"world\""),
      Value(Value::List{Value(std::int32_t{1}), Value("two"), Value()}),
  };
  for (const Value& v : values) {
    const Value back = s.deserialize(s.serialize(v));
    EXPECT_EQ(back, v) << v.to_debug_string() << " via " << GetParam();
  }
}

TEST_P(SerializerCase, RoundTripsAnObjectGraph) {
  ObjectSerializer& s = serializer();
  auto person = make_person(domain_, "Alice");
  const Value back = s.deserialize(s.serialize(Value(person)));
  ASSERT_EQ(back.kind(), ValueKind::Object);
  const auto& obj = back.as_object();
  EXPECT_EQ(obj->type_name(), "teamA.Person");
  EXPECT_EQ(obj->type_guid(), person->type_guid());
  EXPECT_EQ(obj->get("name").as_string(), "Alice");
  const auto& address = obj->get("address").as_object();
  ASSERT_NE(address, nullptr);
  EXPECT_EQ(address->get("street").as_string(), "Main St");
  EXPECT_EQ(address->get("zip").as_int32(), 1015);
}

TEST_P(SerializerCase, RejectsGarbage) {
  ObjectSerializer& s = serializer();
  const std::vector<std::uint8_t> garbage = {0xde, 0xad, 0xbe, 0xef};
  EXPECT_THROW((void)s.deserialize(garbage), Error);
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, SerializerCase,
                         ::testing::Values("xml", "soap", "binary"));

// --- shared references & cycles ----------------------------------------------

TEST(SoapSerializer, PreservesSharedReferences) {
  Domain domain;
  load_people(domain);
  auto shared_address = [&domain] {
    const Value args[] = {Value("Shared Rd"), Value(std::int32_t{2})};
    return domain.instantiate("teamA.Address", args);
  }();
  const Value a1[] = {Value("A")};
  const Value a2[] = {Value("B")};
  auto p1 = domain.instantiate("teamA.Person", a1);
  auto p2 = domain.instantiate("teamA.Person", a2);
  p1->set("address", Value(shared_address));
  p2->set("address", Value(shared_address));

  SoapSerializer soap;
  const Value back =
      soap.deserialize(soap.serialize(Value(Value::List{Value(p1), Value(p2)})));
  const auto& list = back.as_list();
  const auto& addr1 = list[0].as_object()->get("address").as_object();
  const auto& addr2 = list[1].as_object()->get("address").as_object();
  EXPECT_EQ(addr1.get(), addr2.get()) << "sharing must survive SOAP round-trip";
}

TEST(SoapSerializer, HandlesCycles) {
  auto a = DynObject::make("listsA.Node", util::Guid::from_name("listsA.Node"));
  auto b = DynObject::make("listsA.Node", util::Guid::from_name("listsA.Node"));
  a->set("value", Value(std::int32_t{1}));
  b->set("value", Value(std::int32_t{2}));
  a->set("next", Value(b));
  b->set("next", Value(a));  // cycle

  SoapSerializer soap;
  const Value back = soap.deserialize(soap.serialize(Value(a)));
  const auto& ra = back.as_object();
  const auto& rb = ra->get("next").as_object();
  EXPECT_EQ(rb->get("next").as_object().get(), ra.get()) << "cycle must close";
  EXPECT_EQ(ra->get("value").as_int32(), 1);
  EXPECT_EQ(rb->get("value").as_int32(), 2);
  testing_support::break_cycles({Value(a), back});
}

TEST(BinarySerializer, HandlesCyclesAndSharing) {
  auto a = DynObject::make("t.N", util::Guid{});
  a->set("self", Value(a));  // self-cycle
  BinarySerializer binary;
  const Value back = binary.deserialize(binary.serialize(Value(a)));
  EXPECT_EQ(back.as_object()->get("self").as_object().get(), back.as_object().get());
  testing_support::break_cycles({Value(a), back});
}

TEST(XmlObjectSerializer, RejectsCycles) {
  auto a = DynObject::make("t.N", util::Guid{});
  a->set("self", Value(a));
  XmlObjectSerializer xml;
  EXPECT_THROW((void)xml.serialize(Value(a)), SerialError);
  testing_support::break_cycles({Value(a)});
}

TEST(XmlObjectSerializer, DuplicatesSharedReferences) {
  // DAG: without identity tracking, the shared child appears twice.
  auto child = DynObject::make("t.C", util::Guid{});
  child->set("x", Value(std::int32_t{9}));
  auto parent = DynObject::make("t.P", util::Guid{});
  parent->set("l", Value(child));
  parent->set("r", Value(child));
  XmlObjectSerializer xml;
  const Value back = xml.deserialize(xml.serialize(Value(parent)));
  const auto& l = back.as_object()->get("l").as_object();
  const auto& r = back.as_object()->get("r").as_object();
  EXPECT_NE(l.get(), r.get());              // duplicated...
  EXPECT_TRUE(l->same_state(*r));           // ...but equal in state
}

TEST(XmlObjectSerializer, HonoursFieldVisibility) {
  // With a resolver, private fields are omitted (XmlSerializer semantics).
  Domain domain;
  load_people(domain);
  auto person = make_person(domain, "Secret");
  XmlObjectSerializer with_resolver(&domain.registry());
  const std::string text = [&] {
    const auto bytes = with_resolver.serialize(Value(person));
    return std::string(bytes.begin(), bytes.end());
  }();
  // teamA.Person.name is private.
  EXPECT_EQ(text.find("Secret"), std::string::npos) << text;
}

// --- size & verbosity ordering (the premise of the hybrid scheme) -------------

TEST(Serializers, BinaryIsSmallerThanSoap) {
  Domain domain;
  load_people(domain);
  auto person = make_person(domain, "Alice");
  SoapSerializer soap;
  BinarySerializer binary;
  XmlObjectSerializer xml;
  const auto soap_size = soap.serialize(Value(person)).size();
  const auto binary_size = binary.serialize(Value(person)).size();
  const auto xml_size = xml.serialize(Value(person)).size();
  EXPECT_LT(binary_size, soap_size);
  EXPECT_LT(binary_size, xml_size);
}

// --- binary-specific robustness ----------------------------------------------

TEST(BinarySerializer, DetectsTruncationAndTrailingBytes) {
  BinarySerializer binary;
  auto bytes = binary.serialize(Value(std::string("hello")));
  auto truncated = bytes;
  truncated.resize(truncated.size() - 2);
  EXPECT_THROW((void)binary.deserialize(truncated), SerialError);
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW((void)binary.deserialize(padded), SerialError);
}

TEST(BinarySerializer, RejectsNestingDeeperThanTheCap) {
  const auto nested_lists = [](std::size_t levels) {
    Value v{Value::List{}};
    for (std::size_t i = 1; i < levels; ++i) v = Value(Value::List{std::move(v)});
    return v;
  };
  BinarySerializer binary;
  const Value deepest = nested_lists(1024);
  EXPECT_EQ(binary.deserialize(binary.serialize(deepest)), deepest);
  EXPECT_THROW((void)binary.deserialize(binary.serialize(nested_lists(1025))), SerialError);
  // A list count far beyond the bytes present must not size an allocation.
  std::vector<std::uint8_t> count_bomb = {'P', 'T', 'I', 'B', 1, 6};
  count_bomb.insert(count_bomb.end(), 8, 0xFF);
  count_bomb.push_back(0x7F);
  EXPECT_THROW((void)binary.deserialize(count_bomb), SerialError);
}

TEST(BinarySerializer, StringPoolingShrinksRepetition) {
  BinarySerializer binary;
  Value::List many;
  for (int i = 0; i < 50; ++i) many.push_back(Value("the-same-long-string-value"));
  Value::List distinct;
  for (int i = 0; i < 50; ++i) {
    distinct.push_back(Value("distinct-string-value-" + std::to_string(i)));
  }
  EXPECT_LT(binary.serialize(Value(many)).size(),
            binary.serialize(Value(distinct)).size() / 2);
}

// --- registry ------------------------------------------------------------

TEST(SerializerRegistry, LookupAndErrors) {
  SerializerRegistry registry = SerializerRegistry::with_defaults();
  EXPECT_TRUE(registry.has("SOAP"));  // case-insensitive
  EXPECT_EQ(registry.get("binary").encoding(), "binary");
  EXPECT_FALSE(registry.has("yaml"));
  EXPECT_THROW((void)registry.get("yaml"), SerialError);
  EXPECT_EQ(registry.encodings().size(), 3u);
}

// --- envelope (Fig. 3) ------------------------------------------------------

TEST(Envelope, CollectsTypesFromTheObjectGraph) {
  Domain domain;
  load_people(domain);
  auto person = make_person(domain, "Alice");
  const std::vector<std::string> names = collect_type_names(Value(person));
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "teamA.Person");  // root first
  EXPECT_EQ(names[1], "teamA.Address");
}

TEST(Envelope, CollectTypeNamesIsCycleSafe) {
  auto a = DynObject::make("t.N", util::Guid{});
  a->set("self", Value(a));
  EXPECT_EQ(collect_type_names(Value(a)), (std::vector<std::string>{"t.N"}));
  testing_support::break_cycles({Value(a)});
}

class EnvelopeCase : public ::testing::TestWithParam<const char*> {};

TEST_P(EnvelopeCase, RoundTripsWithProvenance) {
  Domain domain;
  load_people(domain);
  auto person = make_person(domain, "Alice");
  SerializerRegistry serializers = SerializerRegistry::with_defaults();

  EnvelopeBuilder builder(serializers.get(GetParam()), &domain.registry());
  const Envelope envelope = builder.build(Value(person));

  EXPECT_EQ(envelope.encoding(), GetParam());
  ASSERT_EQ(envelope.types().size(), 2u);
  EXPECT_EQ(envelope.types()[0].type_name, "teamA.Person");
  EXPECT_EQ(envelope.types()[0].assembly_name, "teamA.people");
  EXPECT_EQ(envelope.types()[0].download_path, "net://alice/teamA.people");
  EXPECT_FALSE(envelope.types()[0].guid.is_nil());

  const Envelope back = Envelope::from_bytes(envelope.to_bytes());
  EXPECT_EQ(back.types(), envelope.types());
  EXPECT_EQ(back.encoding(), envelope.encoding());

  const Value restored = back.read_payload(serializers);
  EXPECT_EQ(restored.as_object()->get("name").as_string(), "Alice");
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EnvelopeCase,
                         ::testing::Values("soap", "binary", "xml"));

TEST(Envelope, WrapperSizeExcludesPayload) {
  Domain domain;
  load_people(domain);
  auto person = make_person(domain, "Alice");
  SerializerRegistry serializers = SerializerRegistry::with_defaults();
  EnvelopeBuilder builder(serializers.get("binary"), &domain.registry());
  const std::size_t message = builder.build(Value(person)).to_bytes().size();
  const std::size_t payload = serializers.get("binary").serialize(Value(person)).size();
  // Base64 inflates the payload by ~4/3, so message minus payload bytes is
  // a lower bound; it must at least be far smaller than the whole message.
  ASSERT_GT(message, payload);
  EXPECT_LT(message - payload, message);
}

TEST(Envelope, RejectsMalformedMessages) {
  EXPECT_THROW((void)Envelope::from_bytes(std::vector<std::uint8_t>{'<', 'x', '/', '>'}),
               Error);
  const std::string no_payload = "<PTIMessage><TypeInfo/></PTIMessage>";
  EXPECT_THROW((void)Envelope::from_bytes(std::vector<std::uint8_t>(no_payload.begin(),
                                                                    no_payload.end())),
               Error);
}

// --- randomized round-trip property across all serializers --------------------

Value random_value(util::Rng& rng, int depth) {
  switch (rng.next_below(depth > 0 ? 7 : 5)) {
    case 0: return Value();
    case 1: return Value(rng.next_bool(0.5));
    case 2: return Value(static_cast<std::int32_t>(rng.next_u64()));
    case 3: return Value(static_cast<std::int64_t>(rng.next_u64()));
    case 4: {
      std::string s;
      const std::size_t len = rng.next_below(12);
      for (std::size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>('!' + rng.next_below(90)));
      }
      return Value(s);
    }
    case 5: {
      Value::List items;
      const std::size_t count = rng.next_below(4);
      for (std::size_t i = 0; i < count; ++i) {
        items.push_back(random_value(rng, depth - 1));
      }
      return Value(std::move(items));
    }
    default: {
      auto obj = DynObject::make("gen.T" + std::to_string(rng.next_below(3)),
                                 util::Guid::from_name("gen.T"));
      const std::size_t fields = rng.next_below(4);
      for (std::size_t i = 0; i < fields; ++i) {
        obj->set("f" + std::to_string(i), random_value(rng, depth - 1));
      }
      return Value(obj);
    }
  }
}

/// Deep structural equality that treats distinct-but-equal objects as equal
/// (XML duplicates shared references, so identity comparison is too strict).
bool deep_equal(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ValueKind::Object: {
      const auto& oa = a.as_object();
      const auto& ob = b.as_object();
      if (!oa || !ob) return oa == ob;
      if (oa->type_name() != ob->type_name()) return false;
      if (oa->fields().size() != ob->fields().size()) return false;
      for (const auto& [name, value] : oa->fields()) {
        if (!ob->has_field(name) || !deep_equal(value, ob->get(name))) return false;
      }
      return true;
    }
    case ValueKind::List: {
      const auto& la = a.as_list();
      const auto& lb = b.as_list();
      if (la.size() != lb.size()) return false;
      for (std::size_t i = 0; i < la.size(); ++i) {
        if (!deep_equal(la[i], lb[i])) return false;
      }
      return true;
    }
    default:
      return a == b;
  }
}

class SerializerFuzzProperty
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {};

TEST_P(SerializerFuzzProperty, RandomAcyclicGraphsRoundTrip) {
  const auto& [encoding, seed] = GetParam();
  util::Rng rng(seed);
  SerializerRegistry registry = SerializerRegistry::with_defaults();
  ObjectSerializer& s = registry.get(encoding);
  for (int iter = 0; iter < 30; ++iter) {
    const Value v = random_value(rng, 3);
    const Value back = s.deserialize(s.serialize(v));
    EXPECT_TRUE(deep_equal(v, back))
        << encoding << ": " << v.to_debug_string() << " != " << back.to_debug_string();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, SerializerFuzzProperty,
    ::testing::Combine(::testing::Values("xml", "soap", "binary"),
                       ::testing::Values(1u, 2u, 3u, 4u)));

}  // namespace
}  // namespace pti::serial
