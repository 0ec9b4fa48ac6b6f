// Recursive-descent XML parser covering the subset the PTI wire formats
// use: elements, attributes, character data, entity references (named and
// numeric), CDATA sections, comments, processing instructions and a
// DOCTYPE prologue (skipped). Errors carry line/column positions.
//
// Names, attribute values and character data are scanned as runs and
// appended in one go; the parser keeps a byte offset and derives the line
// and column only when it reports an error.
#pragma once

#include <cstddef>
#include <string_view>

#include "xml/xml_node.hpp"

namespace pti::xml {

/// Deepest element nesting `parse` accepts (the root is level 1). The
/// parser and every DOM consumer recurse per level, so a hostile document
/// must not choose the recursion depth. The library's formats nest a few
/// levels per object or list level; the deepest document its test suite
/// produces is 9 levels.
inline constexpr std::size_t kMaxDepth = 1024;

/// Parses a complete document and returns its root element.
/// Throws XmlError on malformed input, including nesting deeper than
/// kMaxDepth.
[[nodiscard]] XmlNode parse(std::string_view document);

}  // namespace pti::xml
