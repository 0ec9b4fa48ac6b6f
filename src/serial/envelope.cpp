#include "serial/envelope.hpp"

#include <set>

#include "reflect/dyn_object.hpp"
#include "serial/serial_error.hpp"
#include "util/string_util.hpp"
#include "xml/xml_parser.hpp"
#include "xml/xml_writer.hpp"

namespace pti::serial {

using reflect::DynObject;
using reflect::Value;
using reflect::ValueKind;

namespace {

void collect(const Value& v, std::set<const DynObject*>& seen,
             std::vector<std::string>& out) {
  switch (v.kind()) {
    case ValueKind::Object: {
      const auto& obj = v.as_object();
      if (!obj || !seen.insert(obj.get()).second) return;
      out.push_back(obj->type_name());
      for (const auto& [name, field] : obj->fields()) collect(field, seen, out);
      return;
    }
    case ValueKind::List:
      for (const Value& item : v.as_list()) collect(item, seen, out);
      return;
    default:
      return;
  }
}

}  // namespace

std::vector<std::string> collect_type_names(const Value& root) {
  std::set<const DynObject*> seen;
  std::vector<std::string> names;
  collect(root, seen, names);
  // Deduplicate preserving first-occurrence order.
  std::set<std::string, util::ICaseLess> unique;
  std::vector<std::string> out;
  for (auto& n : names) {
    if (unique.insert(n).second) out.push_back(n);
  }
  return out;
}

Envelope Envelope::from_bytes(std::span<const std::uint8_t> data) {
  const std::string_view text(reinterpret_cast<const char*>(data.data()), data.size());
  xml::XmlNode message = xml::parse(text);
  if (message.name() != "PTIMessage") {
    throw SerialError("expected <PTIMessage>, found <" + message.name() + ">");
  }
  std::vector<TypeInfoEntry> types;
  const xml::XmlNode& info = message.required_child("TypeInfo");
  for (const xml::XmlNode* t : info.children_named("Type")) {
    TypeInfoEntry entry;
    entry.type_name = std::string(t->required_attr("name"));
    if (auto g = t->attr("guid")) {
      const auto parsed = util::Guid::parse(*g);
      if (!parsed) throw SerialError("malformed guid '" + std::string(*g) + "'");
      entry.guid = *parsed;
    }
    entry.assembly_name = std::string(t->attr("assembly").value_or(""));
    entry.download_path = std::string(t->attr("downloadPath").value_or(""));
    types.push_back(std::move(entry));
  }
  std::string encoding(message.required_child("Payload").required_attr("encoding"));
  return Envelope(std::move(types), std::move(encoding), std::move(message));
}

std::vector<std::uint8_t> Envelope::to_bytes() const {
  const std::string text = xml::write(message_);
  return std::vector<std::uint8_t>(text.begin(), text.end());
}

Value Envelope::read_payload(const SerializerRegistry& serializers) const {
  return serializers.get(encoding_).read_payload(message_.required_child("Payload"));
}

std::vector<TypeInfoEntry> collect_type_info(const Value& root,
                                             reflect::TypeResolver* resolver) {
  std::vector<TypeInfoEntry> types;
  for (std::string& type_name : collect_type_names(root)) {
    TypeInfoEntry entry;
    if (resolver != nullptr) {
      if (const reflect::TypeDescription* d = resolver->resolve(type_name, "")) {
        entry.guid = d->guid();
        entry.assembly_name = d->assembly_name();
        entry.download_path = d->download_path();
      }
    }
    entry.type_name = std::move(type_name);
    types.push_back(std::move(entry));
  }
  return types;
}

Envelope EnvelopeBuilder::build(const Value& root) {
  std::vector<TypeInfoEntry> types = collect_type_info(root, resolver_);
  xml::XmlNode message("PTIMessage");
  auto& info = message.add_child("TypeInfo");
  for (const TypeInfoEntry& entry : types) {
    auto& tn = info.add_child("Type");
    tn.set_attr("name", entry.type_name);
    if (!entry.guid.is_nil()) tn.set_attr("guid", entry.guid.to_string());
    if (!entry.assembly_name.empty()) tn.set_attr("assembly", entry.assembly_name);
    if (!entry.download_path.empty()) tn.set_attr("downloadPath", entry.download_path);
  }
  auto& payload = message.add_child("Payload");
  payload.set_attr("encoding", serializer_.encoding());
  serializer_.write_payload(root, payload);
  return Envelope(std::move(types), std::string(serializer_.encoding()), std::move(message));
}

}  // namespace pti::serial
