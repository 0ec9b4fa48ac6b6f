#include "serial/soap_serializer.hpp"

#include <map>
#include <unordered_map>
#include <vector>

#include "reflect/dyn_object.hpp"
#include "serial/serial_error.hpp"
#include "serial/value_xml_common.hpp"
#include "util/guid.hpp"

namespace pti::serial {

using reflect::DynObject;
using reflect::Value;
using reflect::ValueKind;

namespace {

constexpr std::string_view kEnvelope = "SOAP-ENV:Envelope";
constexpr std::string_view kBody = "SOAP-ENV:Body";

class Writer {
 public:
  xml::XmlNode write(const Value& root) {
    xml::XmlNode envelope{std::string(kEnvelope)};
    envelope.set_attr("xmlns:SOAP-ENV", "http://schemas.xmlsoap.org/soap/envelope/");
    envelope.set_attr("xmlns:SOAP-ENC", "http://schemas.xmlsoap.org/soap/encoding/");
    envelope.set_attr("SOAP-ENV:encodingStyle",
                      "http://schemas.xmlsoap.org/soap/encoding/");
    xml::XmlNode body{std::string(kBody)};

    xml::XmlNode root_node("root");
    write_value(root_node, root);
    body.add_child(std::move(root_node));

    // Breadth-first flush: objects discovered while writing earlier
    // multiRefs append to the queue.
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const DynObject* obj = queue_[i];
      xml::XmlNode ref("multiRef");
      ref.set_attr("id", "ref-" + std::to_string(ids_.at(obj)));
      ref.set_attr("type", obj->type_name());
      if (!obj->type_guid().is_nil()) ref.set_attr("guid", obj->type_guid().to_string());
      for (const auto& [field_name, field_value] : obj->fields()) {
        auto& fn = ref.add_child("field");
        fn.set_attr("name", field_name);
        write_value(fn, field_value);
      }
      body.add_child(std::move(ref));
    }
    envelope.add_child(std::move(body));
    return envelope;
  }

 private:
  void write_value(xml::XmlNode& node, const Value& value) {
    switch (value.kind()) {
      case ValueKind::Object: {
        const auto& obj = value.as_object();
        if (!obj) {
          node.set_attr("kind", "null");
          return;
        }
        node.set_attr("kind", "object");
        node.set_attr("href", "#ref-" + std::to_string(id_for(obj.get())));
        return;
      }
      case ValueKind::List: {
        node.set_attr("kind", "list");
        for (const Value& item : value.as_list()) {
          write_value(node.add_child("item"), item);
        }
        return;
      }
      default:
        detail::write_scalar(node, value);
    }
  }

  std::size_t id_for(const DynObject* obj) {
    const auto it = ids_.find(obj);
    if (it != ids_.end()) return it->second;
    const std::size_t id = ids_.size() + 1;
    ids_.emplace(obj, id);
    queue_.push_back(obj);
    return id;
  }

  std::unordered_map<const DynObject*, std::size_t> ids_;
  std::vector<const DynObject*> queue_;
};

class Reader {
 public:
  Value read(const xml::XmlNode& envelope) {
    if (envelope.name() != kEnvelope) {
      throw SerialError("expected <" + std::string(kEnvelope) + ">, found <" +
                        envelope.name() + ">");
    }
    const xml::XmlNode& body = envelope.required_child(std::string(kBody).c_str());

    // Pass 1: materialize every multiRef object (fields filled in pass 2,
    // so hrefs forming cycles resolve).
    for (const xml::XmlNode* ref : body.children_named("multiRef")) {
      util::Guid guid;
      if (auto g = ref->attr("guid")) {
        const auto parsed = util::Guid::parse(*g);
        if (!parsed) throw SerialError("malformed guid '" + std::string(*g) + "'");
        guid = *parsed;
      }
      objects_[std::string(ref->required_attr("id"))] =
          DynObject::make(std::string(ref->required_attr("type")), guid);
    }
    // Pass 2: fill fields.
    for (const xml::XmlNode* ref : body.children_named("multiRef")) {
      const auto& obj = objects_.at(std::string(ref->required_attr("id")));
      for (const xml::XmlNode* f : ref->children_named("field")) {
        obj->set(f->required_attr("name"), read_value(*f));
      }
    }
    return read_value(body.required_child("root"));
  }

 private:
  Value read_value(const xml::XmlNode& node) {
    if (auto href = node.attr("href")) {
      std::string_view target = *href;
      if (target.empty() || target.front() != '#') {
        throw SerialError("malformed href '" + std::string(target) + "'");
      }
      target.remove_prefix(1);
      const auto it = objects_.find(std::string(target));
      if (it == objects_.end()) {
        throw SerialError("dangling href '#" + std::string(target) + "'");
      }
      return Value(it->second);
    }
    const std::string_view kind = node.required_attr("kind");
    if (kind == "object") {
      throw SerialError("object value without href in SOAP body");
    }
    if (kind == "list") {
      Value::List items;
      for (const xml::XmlNode* item : node.children_named("item")) {
        items.push_back(read_value(*item));
      }
      return Value(std::move(items));
    }
    return detail::read_scalar(kind, node);
  }

  std::map<std::string, std::shared_ptr<DynObject>> objects_;
};

}  // namespace

xml::XmlNode SoapSerializer::to_xml(const Value& root) {
  Writer writer;
  return writer.write(root);
}

Value SoapSerializer::from_xml(const xml::XmlNode& envelope) {
  Reader reader;
  return reader.read(envelope);
}

}  // namespace pti::serial
