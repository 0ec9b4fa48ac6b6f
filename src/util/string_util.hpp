// String helpers shared across the PTI library.
//
// The conformance rules of the paper (Section 4.2) compare type and member
// names case-insensitively, so case-folding primitives live here and are
// used consistently by the registry, the conformance checker and the XML
// type-description format.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace pti::util {

/// ASCII lower-casing (type names in the model are ASCII identifiers).
[[nodiscard]] constexpr char to_lower(char c) noexcept {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}
[[nodiscard]] std::string to_lower(std::string_view s);

/// Case-insensitive equality, the comparison used for name conformance.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// Case-insensitive less-than, suitable as a map comparator.
[[nodiscard]] bool iless(std::string_view a, std::string_view b) noexcept;

/// Transparent case-insensitive comparator for ordered containers.
struct ICaseLess {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return iless(a, b);
  }
};

/// Transparent case-insensitive hash and equality for unordered
/// containers: names differing only in case hash and compare equal.
[[nodiscard]] std::size_t ihash(std::string_view s) noexcept;
struct ICaseHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept { return ihash(s); }
};
struct ICaseEqual {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const noexcept {
    return iequals(a, b);
  }
};

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Splits on a single character; empty segments are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Joins with a separator string.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strips leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Glob-style match with `*` (any run) and `?` (any one char),
/// case-insensitive. Used by the optional wildcard extension to name
/// conformance that the paper mentions ("wildcards could be allowed").
[[nodiscard]] bool wildcard_match(std::string_view pattern, std::string_view text) noexcept;

/// Case-insensitive substring test.
[[nodiscard]] bool icontains(std::string_view haystack, std::string_view needle) noexcept;

/// Splits an identifier into lower-cased word tokens on camelCase humps,
/// underscores, dashes and digit boundaries:
///   "getPersonName" -> {"get", "person", "name"}
///   "set_name"      -> {"set", "name"}
/// Used by the member-name conformance rule (a target member name conforms
/// to a source member name when one token set includes the other — the
/// reconstruction of the paper's lenient method-name matching that makes
/// `getName` interoperate with `getPersonName`).
[[nodiscard]] std::vector<std::string> identifier_tokens(std::string_view identifier);

/// True when every token of `a` appears among the tokens of `b` or vice
/// versa (set inclusion either way).
[[nodiscard]] bool token_subset_match(std::string_view a, std::string_view b);

}  // namespace pti::util
