// The hybrid serialization scheme of the paper (Fig. 3).
//
// When an object travels between peers it is wrapped in an XML message
// that combines:
//   * TypeInfo — for every type occurring in the object graph: the type
//     name, its identity (GUID), and where to download its description and
//     implementation (assembly name + download path). This is the
//     "optimistic" part: names and paths travel, descriptions and code do
//     NOT — the receiver fetches them only when needed.
//   * Payload — the object graph serialized by one of the pluggable
//     mechanisms (SOAP or binary, per the paper; XML also supported). The
//     serializer decides how its payload sits in <Payload>: XML encodings
//     nest their DOM, binary travels as base64 text.
//
//   <PTIMessage>
//     <TypeInfo>
//       <Type name="teamA.Person" guid="..." assembly="teamA.people"
//             downloadPath="net://peerA/teamA.people"/>
//     </TypeInfo>
//     <Payload encoding="soap"> <SOAP-ENV:Envelope>...</SOAP-ENV:Envelope> </Payload>
//   </PTIMessage>
//
// The sender builds the whole message as one DOM and writes it once; the
// receiver parses it once and later decodes the payload from that DOM.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "reflect/type_registry.hpp"
#include "reflect/value.hpp"
#include "serial/object_serializer.hpp"
#include "xml/xml_node.hpp"

namespace pti::serial {

struct TypeInfoEntry {
  std::string type_name;  ///< qualified name
  util::Guid guid;
  std::string assembly_name;
  std::string download_path;

  bool operator==(const TypeInfoEntry&) const = default;
};

/// One hybrid message. Built around a value by EnvelopeBuilder, or decoded
/// from wire bytes by from_bytes; either way it holds the message DOM.
class Envelope {
 public:
  /// One XML parse of the whole message. XML syntax errors and a malformed
  /// TypeInfo section throw here; the payload stays a DOM until
  /// read_payload, so payload-structure errors surface only there.
  [[nodiscard]] static Envelope from_bytes(std::span<const std::uint8_t> data);

  [[nodiscard]] const std::vector<TypeInfoEntry>& types() const noexcept { return types_; }
  /// Name of the payload serializer ("soap", ...).
  [[nodiscard]] const std::string& encoding() const noexcept { return encoding_; }

  /// Full message bytes as put on the wire: one XML write.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  /// Decodes the payload with the serializer registered for encoding(),
  /// straight from the message DOM.
  [[nodiscard]] reflect::Value read_payload(const SerializerRegistry& serializers) const;

 private:
  friend class EnvelopeBuilder;
  Envelope(std::vector<TypeInfoEntry> types, std::string encoding, xml::XmlNode message)
      : types_(std::move(types)),
        encoding_(std::move(encoding)),
        message_(std::move(message)) {}

  std::vector<TypeInfoEntry> types_;
  std::string encoding_;
  xml::XmlNode message_;  ///< <PTIMessage>, its <Payload> as the serializer shaped it
};

/// Builds envelopes: walks the object graph, collects the distinct types
/// (with provenance looked up through the resolver), and lets the chosen
/// serializer place the payload in the message DOM.
class EnvelopeBuilder {
 public:
  EnvelopeBuilder(ObjectSerializer& serializer, reflect::TypeResolver* resolver)
      : serializer_(serializer), resolver_(resolver) {}

  [[nodiscard]] Envelope build(const reflect::Value& root);

 private:
  ObjectSerializer& serializer_;
  reflect::TypeResolver* resolver_;
};

/// Collects the distinct type names reachable in a value graph (cycle-safe,
/// stable order of first occurrence).
[[nodiscard]] std::vector<std::string> collect_type_names(const reflect::Value& root);

/// The TypeInfo entries of a value graph: collect_type_names with the
/// provenance (guid, assembly, download path) `resolver` knows, if any.
[[nodiscard]] std::vector<TypeInfoEntry> collect_type_info(const reflect::Value& root,
                                                           reflect::TypeResolver* resolver);

}  // namespace pti::serial
