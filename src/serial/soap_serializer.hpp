// SOAP-style object serialization (SOAP 1.1 Section-5 encoding shape):
// an Envelope/Body wrapper where every distinct object becomes an
// independent <multiRef id="ref-N"> element and every object-valued slot
// is an href="#ref-N" pointer. Shared references and cycles therefore
// round-trip exactly — the property .NET's SoapFormatter provides and the
// paper relies on for pass-by-value semantics of real object graphs.
//
// Deliberately verbose (namespaced wrapper elements, per-object multiRef
// blocks): the paper's measurements hinge on SOAP serialization being the
// expensive, chatty mechanism relative to binary.
#pragma once

#include "serial/object_serializer.hpp"

namespace pti::serial {

class SoapSerializer final : public XmlBasedSerializer {
 public:
  [[nodiscard]] std::string_view encoding() const noexcept override { return "soap"; }

  /// The <SOAP-ENV:Envelope> DOM; XmlBasedSerializer writes it as bytes or
  /// nests it in a hybrid envelope's <Payload>.
  [[nodiscard]] xml::XmlNode to_xml(const reflect::Value& root) override;
  [[nodiscard]] reflect::Value from_xml(const xml::XmlNode& envelope) override;
};

}  // namespace pti::serial
