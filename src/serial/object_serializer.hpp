// ObjectSerializer — the common interface of the three serialization
// mechanisms the paper evaluates on .NET: XML, SOAP and binary
// (Section 6.2). All three carry arbitrary Value graphs (primitives,
// strings, lists, objects); they differ exactly as their .NET counterparts
// do:
//
//   * XML    — human-readable, public fields only, no shared references
//              (re-serializes DAGs, rejects cycles), largest output.
//   * SOAP   — verbose envelope with id/href multi-reference encoding:
//              shared references and cycles round-trip; private fields
//              included.
//   * binary — compact tagged bytes with string & object back-references;
//              shared references and cycles round-trip; smallest/fastest.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "reflect/value.hpp"
#include "util/string_util.hpp"
#include "xml/xml_node.hpp"

namespace pti::serial {

class ObjectSerializer {
 public:
  virtual ~ObjectSerializer() = default;

  /// Wire identifier, e.g. "xml", "soap", "binary" — recorded in envelopes
  /// so receivers pick the right decoder.
  [[nodiscard]] virtual std::string_view encoding() const noexcept = 0;

  /// The payload as standalone bytes (what a session push carries).
  [[nodiscard]] virtual std::vector<std::uint8_t> serialize(const reflect::Value& root) = 0;
  [[nodiscard]] virtual reflect::Value deserialize(std::span<const std::uint8_t> data) = 0;

  /// The payload inside an envelope: each encoding decides how it sits in
  /// the message's <Payload> element. By default the serialize() bytes
  /// travel as base64 text; XML encodings nest their DOM instead.
  virtual void write_payload(const reflect::Value& root, xml::XmlNode& payload);
  /// Reads what write_payload wrote, from the parsed message DOM.
  [[nodiscard]] virtual reflect::Value read_payload(const xml::XmlNode& payload);
};

/// Base of the XML encodings: the value's DOM is the one representation.
/// Standalone bytes are that DOM written as a document; inside an envelope
/// the DOM nests as <Payload>'s only child, so a message costs one XML
/// write on the sender and one parse on the receiver.
class XmlBasedSerializer : public ObjectSerializer {
 public:
  [[nodiscard]] virtual xml::XmlNode to_xml(const reflect::Value& root) = 0;
  [[nodiscard]] virtual reflect::Value from_xml(const xml::XmlNode& node) = 0;

  [[nodiscard]] std::vector<std::uint8_t> serialize(const reflect::Value& root) final;
  [[nodiscard]] reflect::Value deserialize(std::span<const std::uint8_t> data) final;
  void write_payload(const reflect::Value& root, xml::XmlNode& payload) final;
  [[nodiscard]] reflect::Value read_payload(const xml::XmlNode& payload) final;
};

/// Registry of serializers by encoding name (case-insensitive).
class SerializerRegistry {
 public:
  void add(std::shared_ptr<ObjectSerializer> serializer);
  /// Throws SerialError for unknown encodings.
  [[nodiscard]] ObjectSerializer& get(std::string_view encoding) const;
  [[nodiscard]] bool has(std::string_view encoding) const noexcept;
  [[nodiscard]] std::vector<std::string> encodings() const;

  /// A registry with xml, soap and binary serializers pre-registered.
  [[nodiscard]] static SerializerRegistry with_defaults();

 private:
  // Transparent case-insensitive comparator: lookups probe with the
  // string_view as-is instead of building a lowered copy per call.
  std::map<std::string, std::shared_ptr<ObjectSerializer>, util::ICaseLess> serializers_;
};

}  // namespace pti::serial
