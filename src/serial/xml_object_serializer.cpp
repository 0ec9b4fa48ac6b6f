#include "serial/xml_object_serializer.hpp"

#include <set>

#include "reflect/dyn_object.hpp"
#include "serial/serial_error.hpp"
#include "serial/value_xml_common.hpp"
#include "util/guid.hpp"

namespace pti::serial {

using reflect::DynObject;
using reflect::Value;
using reflect::ValueKind;

namespace {

class Writer {
 public:
  explicit Writer(reflect::TypeResolver* resolver) : resolver_(resolver) {}

  void write_value(xml::XmlNode& node, const Value& value) {
    switch (value.kind()) {
      case ValueKind::Object: {
        const auto& obj = value.as_object();
        if (!obj) {
          node.set_attr("kind", "null");
          return;
        }
        node.set_attr("kind", "object");
        write_object(node.add_child("object"), *obj);
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

  void write_object(xml::XmlNode& node, const DynObject& obj) {
    // Cycle detection: XmlSerializer-style serializers reject circular
    // graphs outright.
    if (!on_path_.insert(&obj).second) {
      throw SerialError("XML serialization cannot encode cyclic object graphs (type '" +
                        obj.type_name() + "')");
    }
    node.set_attr("type", obj.type_name());
    if (!obj.type_guid().is_nil()) node.set_attr("guid", obj.type_guid().to_string());

    const reflect::TypeDescription* desc =
        resolver_ != nullptr ? resolver_->resolve(obj.type_name(), "") : nullptr;
    for (const auto& [field_name, field_value] : obj.fields()) {
      if (desc != nullptr) {
        const reflect::FieldDescription* fd = desc->find_field(field_name);
        if (fd != nullptr && fd->visibility != reflect::Visibility::Public) {
          continue;  // public state only, like XmlSerializer
        }
      }
      auto& fn = node.add_child("field");
      fn.set_attr("name", field_name);
      write_value(fn, field_value);
    }
    on_path_.erase(&obj);
  }

 private:
  reflect::TypeResolver* resolver_;
  std::set<const DynObject*> on_path_;
};

class Reader {
 public:
  Value read_value(const xml::XmlNode& node) {
    const std::string_view kind = node.required_attr("kind");
    if (kind == "object") {
      return Value(read_object(node.required_child("object")));
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

  std::shared_ptr<DynObject> read_object(const xml::XmlNode& node) {
    util::Guid guid;
    if (auto g = node.attr("guid")) {
      const auto parsed = util::Guid::parse(*g);
      if (!parsed) throw SerialError("malformed guid '" + std::string(*g) + "'");
      guid = *parsed;
    }
    auto obj = DynObject::make(std::string(node.required_attr("type")), guid);
    for (const xml::XmlNode* f : node.children_named("field")) {
      obj->set(f->required_attr("name"), read_value(*f));
    }
    return obj;
  }
};

}  // namespace

xml::XmlNode XmlObjectSerializer::to_xml(const Value& root) {
  xml::XmlNode node("value");
  Writer writer(resolver_);
  writer.write_value(node, root);
  return node;
}

Value XmlObjectSerializer::from_xml(const xml::XmlNode& root) {
  Reader reader;
  return reader.read_value(root);
}

}  // namespace pti::serial
