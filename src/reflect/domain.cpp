#include "reflect/domain.hpp"

#include <mutex>
#include <set>

#include "reflect/introspect.hpp"
#include "reflect/primitives.hpp"
#include "reflect/reflect_error.hpp"

namespace pti::reflect {

std::vector<const TypeDescription*> Domain::load_assembly(
    std::shared_ptr<const Assembly> assembly, std::string_view download_path) {
  if (!assembly) throw ReflectError("cannot load a null assembly");
  std::unique_lock lock(mutex_);
  if (assemblies_.contains(assembly->name())) return {};

  std::vector<const TypeDescription*> registered;
  registered.reserve(assembly->types().size());
  for (const auto& type : assembly->types()) {
    const TypeDescription& description =
        registry_.add(introspect(*type, assembly->name(), download_path));
    natives_[type->qualified_name()] = type.get();
    natives_by_id_[description.name_id()] = type.get();
    registered.push_back(&description);
  }
  assemblies_.emplace(assembly->name(), std::move(assembly));
  return registered;
}

bool Domain::has_assembly(std::string_view name) const noexcept {
  std::shared_lock lock(mutex_);
  return assemblies_.find(name) != assemblies_.end();
}

const NativeType* Domain::find_native(std::string_view qualified_name) const noexcept {
  std::shared_lock lock(mutex_);
  const auto it = natives_.find(qualified_name);
  return it == natives_.end() ? nullptr : it->second;
}

const NativeType* Domain::find_native(util::InternedName qualified_id) const noexcept {
  if (!qualified_id.valid()) return nullptr;
  std::shared_lock lock(mutex_);
  const auto it = natives_by_id_.find(qualified_id);
  return it == natives_by_id_.end() ? nullptr : it->second;
}

std::shared_ptr<DynObject> Domain::instantiate(std::string_view qualified_name,
                                               Args args) const {
  const NativeType* type = find_native(qualified_name);
  if (type == nullptr) {
    throw ReflectError("type '" + std::string(qualified_name) +
                       "' is not loaded in this domain (description-only or unknown)");
  }
  return type->instantiate(args);
}

std::shared_ptr<DynObject> Domain::instantiate(const TypeDescription& type,
                                               Args args) const {
  const NativeType* native = find_native(type.name_id());
  if (native == nullptr) {
    throw ReflectError("type '" + type.qualified_name() +
                       "' is not loaded in this domain (description-only or unknown)");
  }
  return native->instantiate(args);
}

namespace {

void fill_graph(DynObject& object, const Domain& domain,
                std::set<const DynObject*>& visited) {
  if (!visited.insert(&object).second) return;
  if (const NativeType* type = domain.find_native(object.type_name())) {
    for (const auto& f : type->fields()) {
      if (!object.has_field(f.name)) {
        object.set(f.name, default_value_for(f.type_name));
      }
    }
  }
  for (const auto& [name, value] : object.fields()) {
    if (value.kind() == ValueKind::Object && value.as_object()) {
      fill_graph(*value.as_object(), domain, visited);
    } else if (value.kind() == ValueKind::List) {
      for (const Value& item : value.as_list()) {
        if (item.kind() == ValueKind::Object && item.as_object()) {
          fill_graph(*item.as_object(), domain, visited);
        }
      }
    }
  }
}

}  // namespace

void Domain::fill_missing_fields(DynObject& root) const {
  std::set<const DynObject*> visited;
  fill_graph(root, *this, visited);
}

Value Domain::invoke(DynObject& object, std::string_view method_name, Args args) const {
  const NativeType* type = find_native(object.type_name());
  if (type == nullptr) {
    throw ReflectError("cannot invoke '" + std::string(method_name) + "': code for type '" +
                       object.type_name() + "' is not loaded in this domain");
  }
  return type->invoke(object, method_name, args);
}

}  // namespace pti::reflect
