// The primitive type model shared by every peer.
//
// Primitives terminate the recursion of the structural conformance rules:
// `int32 ≼is int32` holds by name identity, and a primitive never conforms
// to a different primitive (the paper's rules would otherwise let any two
// empty-structured types collapse into one).
#pragma once

#include <string_view>

#include "reflect/value.hpp"

namespace pti::reflect {

inline constexpr std::string_view kVoidType = "void";
inline constexpr std::string_view kBoolType = "bool";
inline constexpr std::string_view kInt32Type = "int32";
inline constexpr std::string_view kInt64Type = "int64";
inline constexpr std::string_view kFloat64Type = "float64";
inline constexpr std::string_view kStringType = "string";
inline constexpr std::string_view kObjectType = "object";  ///< root of all classes
inline constexpr std::string_view kListType = "list";

/// True for the built-in names above (case-insensitive, alias-aware).
[[nodiscard]] bool is_primitive_name(std::string_view type_name) noexcept;

/// Canonicalizes aliases: "int"/"integer" -> int32, "long" -> int64,
/// "double"/"float" -> float64, "boolean" -> bool. Returns the input when
/// it is not a primitive alias.
[[nodiscard]] std::string_view canonical_primitive(std::string_view type_name) noexcept;

/// Default value for a primitive type name (0, false, "", empty list);
/// object types default to null.
[[nodiscard]] Value default_value_for(std::string_view type_name);

}  // namespace pti::reflect
