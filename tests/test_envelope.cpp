// The hybrid envelope (Fig. 3) end to end: pinned wire bytes over a
// seeded corpus of value graphs in every encoding, lossless round trips,
// and total decoding of hostile envelopes — standalone and through a peer,
// which must answer every push it cannot decode with an addressed
// ErrorReply.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "break_cycles.hpp"
#include "envelope_corpus.hpp"
#include "fixtures/sample_types.hpp"
#include "serial/envelope.hpp"
#include "serial/object_serializer.hpp"
#include "serial/serial_error.hpp"
#include "transport/assembly_hub.hpp"
#include "transport/peer.hpp"
#include "transport/sim_network.hpp"
#include "util/base64.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "xml/xml_error.hpp"
#include "xml/xml_parser.hpp"

namespace pti::serial {
namespace {

using reflect::Value;

constexpr std::uint64_t kCorpusSeed = 0xE5EED;

std::string_view text_of(const std::vector<std::uint8_t>& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::vector<std::uint8_t> bytes_of(std::string_view text) {
  return {text.begin(), text.end()};
}

class EnvelopeCorpus : public ::testing::Test {
 protected:
  EnvelopeCorpus() {
    domain_.load_assembly(fixtures::team_a_people(), "net://alice/teamA.people");
    entries_ = corpus::envelope_corpus(domain_, kCorpusSeed);
  }
  ~EnvelopeCorpus() override {
    for (const corpus::Entry& entry : entries_) testing_support::break_cycles({entry.value});
  }

  std::vector<std::uint8_t> encode(const char* encoding, const Value& value) {
    EnvelopeBuilder builder(serializers_.get(encoding), &domain_.registry());
    return builder.build(value).to_bytes();
  }

  reflect::Domain domain_;
  SerializerRegistry serializers_ = SerializerRegistry::with_defaults();
  std::vector<corpus::Entry> entries_;
};

// Size and FNV-1a 64 of every message, recorded from the earlier encoder
// that wrote the payload, parsed it back to nest it and wrote the message
// again: writing the message DOM once must give the same bytes.
TEST_F(EnvelopeCorpus, MessageBytesArePinned) {
  struct Pin {
    const char* encoding;
    const char* entry;
    std::size_t size;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {"soap", "scalars", 1240, 0xce4589c0e7aff8aeULL},
      {"soap", "markup", 1306, 0x731b8182f08c7af3ULL},
      {"soap", "lists", 1466, 0xf643b56170fb4aa2ULL},
      {"soap", "nested", 1108, 0xb282a745107af82eULL},
      {"soap", "shared", 861, 0x2d3c24fad6c75a9bULL},
      {"soap", "cyclic", 817, 0xe71eb11d035cd607ULL},
      {"soap", "list_root", 564, 0x27c449d7c7425921ULL},
      {"soap", "random0", 629, 0xea530137eb8a4deaULL},
      {"soap", "random1", 1092, 0xb6f466cb252f7a53ULL},
      {"soap", "random2", 849, 0x306246832d1c0696ULL},
      {"soap", "random3", 648, 0x046cd257ffb57329ULL},
      {"soap", "random4", 1037, 0x4ed91244dcb1f919ULL},
      {"soap", "random5", 596, 0xcc1da363bf376259ULL},
      {"soap", "random6", 921, 0x14abb0adcef3dcbfULL},
      {"soap", "random7", 731, 0x53fcb3a6f6f088a8ULL},
      {"xml", "scalars", 963, 0x42a635c969672176ULL},
      {"xml", "markup", 1029, 0xae92e044355b70efULL},
      {"xml", "lists", 1120, 0x8dd820b79f735c06ULL},
      {"xml", "nested", 809, 0x6b99e826bfa6664bULL},
      {"xml", "shared", 923, 0x5f3089cc5512e941ULL},
      {"xml", "list_root", 289, 0x49c902498af56053ULL},
      {"xml", "random0", 352, 0x70f5c7122c00da8aULL},
      {"xml", "random1", 792, 0x0f2a409e6202b3a1ULL},
      {"xml", "random2", 572, 0x388e7a01e4219816ULL},
      {"xml", "random3", 371, 0x78f5e00634f0eca3ULL},
      {"xml", "random4", 737, 0x13ac662b119f00d7ULL},
      {"xml", "random5", 319, 0xf5b4550aefc77a97ULL},
      {"xml", "random6", 622, 0x066a81b89e702a00ULL},
      {"xml", "random7", 454, 0xde4d9927a7d626ecULL},
      {"binary", "scalars", 492, 0xc6ce42b84667eae6ULL},
      {"binary", "markup", 647, 0x8f9ff7168a5a137cULL},
      {"binary", "lists", 460, 0x7f770851a600e2f1ULL},
      {"binary", "nested", 622, 0x2fa614a1ad614f24ULL},
      {"binary", "shared", 343, 0x814894c5ce058516ULL},
      {"binary", "cyclic", 285, 0x85edfc7e5a0f6582ULL},
      {"binary", "list_root", 235, 0x6b66763a9f7df7c5ULL},
      {"binary", "random0", 279, 0x516dd6a97aee97deULL},
      {"binary", "random1", 391, 0xd0591ef1a23269e7ULL},
      {"binary", "random2", 303, 0x1336c5ef06ef70b6ULL},
      {"binary", "random3", 255, 0x16869bdcb93b8718ULL},
      {"binary", "random4", 375, 0x6fc4a4a5fb498e5dULL},
      {"binary", "random5", 239, 0xef01eadc38aa3476ULL},
      {"binary", "random6", 383, 0x2d291a3ebaf3defdULL},
      {"binary", "random7", 283, 0x65f5507f1d099799ULL},
  };
  std::size_t checked = 0;
  for (const Pin& pin : pins) {
    for (const corpus::Entry& entry : entries_) {
      if (entry.name != pin.entry) continue;
      const std::vector<std::uint8_t> bytes = encode(pin.encoding, entry.value);
      EXPECT_EQ(bytes.size(), pin.size) << pin.encoding << "/" << pin.entry;
      EXPECT_EQ(util::fnv1a64(text_of(bytes)), pin.digest) << pin.encoding << "/" << pin.entry;
      ++checked;
    }
  }
  // Every encoding covers every entry, except XML, which rejects cycles.
  EXPECT_EQ(checked, 3 * entries_.size() - 1);
}

TEST_F(EnvelopeCorpus, DecodeOfEncodeIsTheSameGraph) {
  for (const char* encoding : {"soap", "binary", "xml"}) {
    // XML keeps no object identity: shared objects come back as copies.
    const bool identity = std::string_view(encoding) != "xml";
    ObjectSerializer& serializer = serializers_.get(encoding);
    for (const corpus::Entry& entry : entries_) {
      if (entry.cyclic && !identity) {
        EXPECT_THROW((void)encode(encoding, entry.value), SerialError) << entry.name;
        continue;
      }
      const Envelope back = Envelope::from_bytes(encode(encoding, entry.value));
      EXPECT_EQ(back.encoding(), encoding);
      EXPECT_EQ(back.types(), collect_type_info(entry.value, &domain_.registry()))
          << encoding << "/" << entry.name;
      const Value decoded = back.read_payload(serializers_);
      EXPECT_TRUE(corpus::GraphEquality(identity).equal(entry.value, decoded))
          << encoding << "/" << entry.name << ": " << entry.value.to_debug_string();
      // The standalone bytes a session push carries decode the same way.
      const Value standalone = serializer.deserialize(serializer.serialize(entry.value));
      EXPECT_TRUE(corpus::GraphEquality(identity).equal(entry.value, standalone))
          << encoding << "/" << entry.name;
      testing_support::break_cycles({decoded, standalone});
    }
  }
}

// --- hostile envelopes ----------------------------------------------------

struct Hostile {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

std::string nested_elements(std::size_t levels) {
  std::string out;
  for (std::size_t i = 0; i < levels; ++i) out += "<a>";
  for (std::size_t i = 0; i < levels; ++i) out += "</a>";
  return out;
}

/// A <PTIMessage> around a TypeInfo section and a payload element.
std::vector<std::uint8_t> message(const std::string& type_info, const std::string& payload) {
  return bytes_of("<PTIMessage>" + type_info + payload + "</PTIMessage>");
}

/// A <Payload> for the binary encoding carrying `text` as its base64.
std::string binary_payload(const std::string& text) {
  return "<Payload encoding=\"binary\" transfer=\"base64\">" + text + "</Payload>";
}

/// A SOAP <Payload> whose body holds `body`.
std::string soap_payload(const std::string& body) {
  return "<Payload encoding=\"soap\"><SOAP-ENV:Envelope><SOAP-ENV:Body>" + body +
         "</SOAP-ENV:Body></SOAP-ENV:Envelope></Payload>";
}

/// Truncations, seeded bit flips and hand-made structural attacks, all
/// derived from one valid message per encoding.
std::vector<Hostile> hostile_corpus(const std::vector<std::vector<std::uint8_t>>& valid) {
  std::vector<Hostile> out;
  util::Rng rng(0xBAD5EED);
  for (std::size_t v = 0; v < valid.size(); ++v) {
    const std::vector<std::uint8_t>& bytes = valid[v];
    const std::string tag = "valid" + std::to_string(v);
    for (std::size_t cut = 0; cut < bytes.size(); cut += 1 + bytes.size() / 97) {
      std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + cut);
      out.push_back({tag + "/truncated@" + std::to_string(cut), std::move(truncated)});
    }
    for (int i = 0; i < 120; ++i) {
      std::vector<std::uint8_t> flipped = bytes;
      const std::size_t at = rng.next_below(flipped.size());
      flipped[at] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      out.push_back({tag + "/flip@" + std::to_string(at), std::move(flipped)});
    }
  }

  const std::string type_info =
      "<TypeInfo><Type name=\"teamA.Person\"/><Type name=\"teamA.Address\"/></TypeInfo>";
  const auto add = [&](std::string name, const std::string& payload) {
    out.push_back({std::move(name), message(type_info, payload)});
  };
  const std::string soap(text_of(valid.front()));
  const std::size_t body_start = soap.find("<SOAP-ENV:Envelope");
  const std::string soap_body = soap.substr(body_start, soap.find("</Payload>") - body_start);
  const std::string soap_open = "<Payload encoding=\"soap\">";

  add("two_payload_children", soap_open + soap_body + soap_body + "</Payload>");
  add("no_payload_child", "<Payload encoding=\"soap\"/>");
  add("text_instead_of_soap", soap_open + "text</Payload>");
  add("bad_base64", binary_payload("!!not*base64!!"));
  add("base64_of_garbage", binary_payload(util::base64_encode(bytes_of("PTIB\x01\x63junk"))));
  // A binary list claiming 2^62 items in a handful of bytes.
  std::vector<std::uint8_t> count_bomb = {'P', 'T', 'I', 'B', 1, 6};
  count_bomb.insert(count_bomb.end(), 8, 0x80);
  count_bomb.push_back(0x40);
  add("binary_count_bomb", binary_payload(util::base64_encode(count_bomb)));
  // Lists nested 100,000 deep at two bytes per level.
  std::vector<std::uint8_t> deep_binary = {'P', 'T', 'I', 'B', 1};
  for (int i = 0; i < 100000; ++i) deep_binary.insert(deep_binary.end(), {6, 1});
  deep_binary.push_back(0);
  add("binary_deep_lists", binary_payload(util::base64_encode(deep_binary)));
  add("unknown_encoding", "<Payload encoding=\"yaml\">x</Payload>");
  add("payload_without_encoding", "<Payload>" + soap_body + "</Payload>");
  add("dangling_href", soap_payload("<root kind=\"object\" href=\"#ref-9\"/>"));
  add("deep_payload", soap_open + nested_elements(100000) + "</Payload>");
  // Lists nested as deep as the parser admits (PTIMessage, Payload,
  // Envelope, Body and root take five levels): this one decodes.
  std::string deepest_list;
  for (std::size_t i = 5; i < xml::kMaxDepth; ++i) deepest_list += "<item kind=\"list\">";
  for (std::size_t i = 5; i < xml::kMaxDepth; ++i) deepest_list += "</item>";
  add("deepest_soap_list", soap_payload("<root kind=\"list\">" + deepest_list + "</root>"));

  const std::string soap_whole = soap_open + soap_body + "</Payload>";
  const std::string bad_guid =
      "<TypeInfo><Type name=\"teamA.Person\" guid=\"not-a-guid\"/></TypeInfo>";
  out.push_back({"malformed_guid", message(bad_guid, soap_whole)});
  out.push_back({"deep_type_info", message(nested_elements(100000), soap_whole)});
  return out;
}

/// Decodes the way a receiver does; true when decoding threw one of the
/// two classified errors, false when it returned. Any other exception
/// fails the test.
bool decode_rejects(const SerializerRegistry& serializers, const Hostile& hostile) {
  try {
    (void)Envelope::from_bytes(hostile.bytes).read_payload(serializers);
    return false;
  } catch (const SerialError&) {
    return true;
  } catch (const xml::XmlError&) {
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << hostile.name << ": unclassified " << typeid(e).name() << ": " << e.what();
    return true;
  }
}

class HostileEnvelope : public ::testing::Test {
 protected:
  HostileEnvelope()
      : hub_(std::make_shared<transport::AssemblyHub>()),
        alice_("alice", net_, hub_),
        bob_("bob", net_, hub_) {
    alice_.host_assembly(fixtures::team_a_people());
    bob_.host_assembly(fixtures::team_b_people());
    bob_.add_interest("teamB.Person");
    const Value args[] = {Value("Alice")};
    person_ = alice_.domain().instantiate("teamA.Person", args);
    const Value addr[] = {Value("Main St"), Value(std::int32_t{42})};
    person_->set("address", Value(alice_.domain().instantiate("teamA.Address", addr)));
    for (const char* encoding : {"soap", "binary", "xml"}) {
      EnvelopeBuilder builder(alice_.serializers().get(encoding), &alice_.domain().registry());
      valid_.push_back(builder.build(Value(person_)).to_bytes());
    }
  }

  transport::SimNetwork net_;
  std::shared_ptr<transport::AssemblyHub> hub_;
  transport::Peer alice_;
  transport::Peer bob_;
  std::shared_ptr<reflect::DynObject> person_;
  std::vector<std::vector<std::uint8_t>> valid_;
};

TEST_F(HostileEnvelope, DecodingReturnsOrThrowsAClassifiedError) {
  const SerializerRegistry serializers = SerializerRegistry::with_defaults();
  for (const auto& bytes : valid_) {
    EXPECT_FALSE(decode_rejects(serializers, {"valid", bytes}));
  }
  std::size_t rejected = 0;
  const std::vector<Hostile> corpus = hostile_corpus(valid_);
  for (const Hostile& hostile : corpus) {
    const bool rejects = decode_rejects(serializers, hostile);
    rejected += rejects ? 1 : 0;
    if (hostile.name == "deepest_soap_list") {
      EXPECT_FALSE(rejects);
    }
  }
  EXPECT_GT(rejected, corpus.size() / 2);
}

TEST_F(HostileEnvelope, PeerAnswersEveryUndecodablePushWithAnAddressedErrorReply) {
  const SerializerRegistry serializers = SerializerRegistry::with_defaults();
  for (const Hostile& hostile : hostile_corpus(valid_)) {
    transport::ObjectPush push;
    push.envelope = hostile.bytes;
    const transport::Message reply =
        net_.send(transport::Message{"alice", "bob", std::move(push)});
    if (!decode_rejects(serializers, hostile)) continue;
    EXPECT_NE(std::get_if<transport::ErrorReply>(&reply.payload), nullptr)
        << hostile.name << " answered with " << reply.kind_name();
    EXPECT_EQ(reply.sender, "bob") << hostile.name;
    EXPECT_EQ(reply.recipient, "alice") << hostile.name;
  }
  // The receiver keeps working afterwards.
  EXPECT_TRUE(alice_.send_object("bob", person_).delivered);
}

}  // namespace
}  // namespace pti::serial
