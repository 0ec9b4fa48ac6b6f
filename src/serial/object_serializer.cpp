#include "serial/object_serializer.hpp"

#include "serial/binary_serializer.hpp"
#include "serial/serial_error.hpp"
#include "serial/soap_serializer.hpp"
#include "serial/xml_object_serializer.hpp"
#include "util/base64.hpp"
#include "util/string_util.hpp"
#include "xml/xml_parser.hpp"
#include "xml/xml_writer.hpp"

namespace pti::serial {

void ObjectSerializer::write_payload(const reflect::Value& root, xml::XmlNode& payload) {
  payload.set_attr("transfer", "base64");
  payload.set_text(util::base64_encode(serialize(root)));
}

reflect::Value ObjectSerializer::read_payload(const xml::XmlNode& payload) {
  const auto decoded = util::base64_decode(util::trim(payload.text()));
  if (!decoded) throw SerialError("malformed base64 payload");
  return deserialize(*decoded);
}

std::vector<std::uint8_t> XmlBasedSerializer::serialize(const reflect::Value& root) {
  const std::string text = xml::write(to_xml(root));
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

reflect::Value XmlBasedSerializer::deserialize(std::span<const std::uint8_t> data) {
  const std::string_view text(reinterpret_cast<const char*>(data.data()), data.size());
  return from_xml(xml::parse(text));
}

void XmlBasedSerializer::write_payload(const reflect::Value& root, xml::XmlNode& payload) {
  payload.add_child(to_xml(root));
}

reflect::Value XmlBasedSerializer::read_payload(const xml::XmlNode& payload) {
  if (payload.children().size() != 1) {
    throw SerialError("XML payload must contain exactly one nested element");
  }
  return from_xml(payload.children().front());
}

void SerializerRegistry::add(std::shared_ptr<ObjectSerializer> serializer) {
  if (!serializer) throw SerialError("cannot register a null serializer");
  std::string key = util::to_lower(serializer->encoding());
  serializers_[std::move(key)] = std::move(serializer);
}

ObjectSerializer& SerializerRegistry::get(std::string_view encoding) const {
  const auto it = serializers_.find(encoding);
  if (it == serializers_.end()) {
    throw SerialError("no serializer registered for encoding '" + std::string(encoding) +
                      "'");
  }
  return *it->second;
}

bool SerializerRegistry::has(std::string_view encoding) const noexcept {
  return serializers_.find(encoding) != serializers_.end();
}

std::vector<std::string> SerializerRegistry::encodings() const {
  std::vector<std::string> out;
  out.reserve(serializers_.size());
  for (const auto& [name, s] : serializers_) out.push_back(name);
  return out;
}

SerializerRegistry SerializerRegistry::with_defaults() {
  SerializerRegistry registry;
  registry.add(std::make_shared<XmlObjectSerializer>());
  registry.add(std::make_shared<SoapSerializer>());
  registry.add(std::make_shared<BinarySerializer>());
  return registry;
}

}  // namespace pti::serial
