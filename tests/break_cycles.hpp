// Object graphs that a test builds or decodes with cycles on purpose are
// shared_ptr cycles: they never free themselves. A test that makes one
// calls break_cycles on it at its end, so the ASan preset can run with
// LeakSanitizer on and still report every real leak.
#pragma once

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "reflect/dyn_object.hpp"
#include "reflect/value.hpp"

namespace pti::testing_support {

/// Nulls every object- or list-valued field of every object reachable from
/// `roots` (through fields and lists), which unlinks every cycle among them.
inline void break_cycles(std::vector<reflect::Value> roots) {
  std::vector<std::shared_ptr<reflect::DynObject>> objects;
  std::unordered_set<const reflect::DynObject*> seen;
  while (!roots.empty()) {
    const reflect::Value value = std::move(roots.back());
    roots.pop_back();
    if (value.kind() == reflect::ValueKind::List) {
      for (const reflect::Value& item : value.as_list()) roots.push_back(item);
    } else if (value.kind() == reflect::ValueKind::Object && value.as_object() &&
               seen.insert(value.as_object().get()).second) {
      objects.push_back(value.as_object());
      for (const auto& [name, field] : value.as_object()->fields()) roots.push_back(field);
    }
  }
  for (const auto& object : objects) {
    std::vector<std::string> links;
    for (const auto& [name, field] : object->fields()) {
      if (field.kind() == reflect::ValueKind::Object ||
          field.kind() == reflect::ValueKind::List) {
        links.push_back(name);
      }
    }
    for (const std::string& name : links) object->set(name, reflect::Value());
  }
}

}  // namespace pti::testing_support
