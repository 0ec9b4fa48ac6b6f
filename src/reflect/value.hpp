// Dynamic value model.
//
// C++ has no runtime reflection, so objects whose types arrive over the
// network at runtime (the paper's central scenario) cannot be native C++
// objects. `Value` is the tagged dynamic value used for fields, method
// arguments and return values; `DynObject` (dyn_object.hpp) is the bag of
// named fields playing the role of a CLR object instance.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace pti::reflect {

class DynObject;

/// Discriminator for Value. Names align with the primitive type names used
/// in type descriptions (see primitives.hpp).
enum class ValueKind : std::uint8_t {
  Null,
  Bool,
  Int32,
  Int64,
  Float64,
  String,
  Object,
  List,
};

[[nodiscard]] std::string_view to_string(ValueKind kind) noexcept;

class Value {
 public:
  using List = std::vector<Value>;

  Value() noexcept : data_(std::monostate{}) {}
  Value(std::nullptr_t) noexcept : data_(std::monostate{}) {}
  Value(bool b) noexcept : data_(b) {}
  Value(std::int32_t i) noexcept : data_(i) {}
  Value(std::int64_t i) noexcept : data_(i) {}
  Value(double d) noexcept : data_(d) {}
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) noexcept : data_(std::move(s)) {}
  Value(std::string_view s) : data_(std::string(s)) {}
  Value(std::shared_ptr<DynObject> o) noexcept : data_(std::move(o)) {}
  Value(List items) noexcept : data_(std::move(items)) {}

  [[nodiscard]] ValueKind kind() const noexcept;
  [[nodiscard]] bool is_null() const noexcept { return kind() == ValueKind::Null; }

  /// Checked accessors; throw ReflectError when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int32_t as_int32() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] double as_float64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::shared_ptr<DynObject>& as_object() const;
  [[nodiscard]] const List& as_list() const;
  [[nodiscard]] List& as_list();

  /// Widening numeric read: Int32/Int64/Float64 all convert; anything else
  /// throws. Used by arithmetic in example method bodies.
  [[nodiscard]] double to_float64() const;

  /// Structural equality. Objects compare by *identity* (shared pointer),
  /// which is what reference semantics dictate; lists compare element-wise.
  [[nodiscard]] bool operator==(const Value& other) const noexcept;

  /// Debug rendering ("null", "42", "\"abc\"", "Person@{...}").
  [[nodiscard]] std::string to_debug_string() const;

 private:
  std::variant<std::monostate, bool, std::int32_t, std::int64_t, double, std::string,
               std::shared_ptr<DynObject>, List>
      data_;
};

using Args = std::span<const Value>;

}  // namespace pti::reflect
