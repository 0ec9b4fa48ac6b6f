#include "reflect/primitives.hpp"

#include "util/string_util.hpp"

namespace pti::reflect {

std::string_view canonical_primitive(std::string_view type_name) noexcept {
  using util::iequals;
  if (iequals(type_name, "int") || iequals(type_name, "integer") ||
      iequals(type_name, kInt32Type)) {
    return kInt32Type;
  }
  if (iequals(type_name, "long") || iequals(type_name, kInt64Type)) return kInt64Type;
  if (iequals(type_name, "double") || iequals(type_name, "float") ||
      iequals(type_name, kFloat64Type)) {
    return kFloat64Type;
  }
  if (iequals(type_name, "boolean") || iequals(type_name, kBoolType)) return kBoolType;
  if (iequals(type_name, kStringType)) return kStringType;
  if (iequals(type_name, kVoidType)) return kVoidType;
  if (iequals(type_name, kObjectType)) return kObjectType;
  if (iequals(type_name, kListType)) return kListType;
  return type_name;
}

bool is_primitive_name(std::string_view type_name) noexcept {
  const std::string_view c = canonical_primitive(type_name);
  return c == kVoidType || c == kBoolType || c == kInt32Type || c == kInt64Type ||
         c == kFloat64Type || c == kStringType || c == kObjectType || c == kListType;
}

Value default_value_for(std::string_view type_name) {
  const std::string_view c = canonical_primitive(type_name);
  if (c == kBoolType) return Value(false);
  if (c == kInt32Type) return Value(std::int32_t{0});
  if (c == kInt64Type) return Value(std::int64_t{0});
  if (c == kFloat64Type) return Value(0.0);
  if (c == kStringType) return Value(std::string{});
  if (c == kListType) return Value(Value::List{});
  return Value();  // objects and void default to null
}

}  // namespace pti::reflect
