// Plain XML object serialization, modelled on .NET's XmlSerializer: a
// human-readable tree of *public* state. Like its model it has no notion
// of object identity — shared sub-objects are duplicated and cyclic graphs
// are rejected — which is why the paper pairs it with SOAP/binary for the
// actual object payload and uses XML for descriptions and envelopes.
#pragma once

#include <optional>

#include "reflect/type_registry.hpp"
#include "serial/object_serializer.hpp"

namespace pti::serial {

class XmlObjectSerializer final : public XmlBasedSerializer {
 public:
  /// When a resolver is supplied, only fields declared *public* in the
  /// object's type description are emitted (the .NET XmlSerializer
  /// behaviour); without one, or for unknown types, all fields are kept.
  explicit XmlObjectSerializer(reflect::TypeResolver* resolver = nullptr)
      : resolver_(resolver) {}

  [[nodiscard]] std::string_view encoding() const noexcept override { return "xml"; }

  /// The <value> DOM; XmlBasedSerializer writes it as bytes or nests it in
  /// a hybrid envelope's <Payload>.
  [[nodiscard]] xml::XmlNode to_xml(const reflect::Value& root) override;
  [[nodiscard]] reflect::Value from_xml(const xml::XmlNode& root) override;

 private:
  reflect::TypeResolver* resolver_;
};

}  // namespace pti::serial
