#include "xml/xml_parser.hpp"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "xml/xml_error.hpp"

namespace pti::xml {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view doc) : doc_(doc) {}

  XmlNode parse_document() {
    skip_misc();
    if (at_end()) fail("document contains no root element");
    XmlNode root = parse_element(1);
    skip_misc();
    if (!at_end()) fail("content after root element");
    return root;
  }

 private:
  /// The parser tracks a byte offset only; the line and column of an error
  /// are counted from the consumed prefix when one is thrown.
  [[noreturn]] void fail(const std::string& message) const {
    const std::string_view consumed = doc_.substr(0, pos_);
    const auto newlines = std::count(consumed.begin(), consumed.end(), '\n');
    const std::size_t line = 1 + static_cast<std::size_t>(newlines);
    const std::size_t last_newline = consumed.rfind('\n');
    const std::size_t column =
        last_newline == std::string_view::npos ? pos_ + 1 : pos_ - last_newline;
    throw XmlError("XML parse error at line " + std::to_string(line) + ", column " +
                   std::to_string(column) + ": " + message);
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ >= doc_.size(); }

  [[nodiscard]] char peek() const {
    if (at_end()) fail("unexpected end of document");
    return doc_[pos_];
  }

  [[nodiscard]] bool looking_at(std::string_view s) const noexcept {
    return doc_.substr(pos_).starts_with(s);
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "', found '" + peek() + "'");
    ++pos_;
  }

  /// Moves to `at`, or to the end of the document when `at` is npos.
  void jump_to(std::size_t at) noexcept { pos_ = std::min(at, doc_.size()); }

  void skip_whitespace() noexcept {
    while (!at_end()) {
      const char c = doc_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  /// Skips whitespace, comments, processing instructions and DOCTYPE.
  void skip_misc() {
    while (true) {
      skip_whitespace();
      if (looking_at("<?")) {
        skip_until("?>");
      } else if (looking_at("<!--")) {
        skip_comment();
      } else if (looking_at("<!DOCTYPE")) {
        skip_doctype();
      } else {
        return;
      }
    }
  }

  void skip_until(std::string_view terminator) {
    jump_to(doc_.find(terminator, pos_));
    if (at_end()) fail("unterminated construct, expected '" + std::string(terminator) + "'");
    pos_ += terminator.size();
  }

  /// Called at "<!--"; the first "--" inside must be the terminator's.
  void skip_comment() {
    pos_ += 4;
    jump_to(doc_.find("--", pos_));
    if (at_end()) fail("unterminated comment");
    if (!looking_at("-->")) fail("'--' not allowed inside comment");
    pos_ += 3;
  }

  /// Called at "<!DOCTYPE".
  void skip_doctype() {
    pos_ += 9;
    // The internal subset sits between '[' and ']'; markup declarations
    // inside it contain their own '>' which must not terminate the DOCTYPE.
    int bracket_depth = 0;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '[') ++bracket_depth;
      else if (c == ']') --bracket_depth;
      else if (c == '>' && bracket_depth == 0) return;
    }
  }

  [[nodiscard]] static bool is_name_start(char c) noexcept {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  }

  [[nodiscard]] static bool is_name_char(char c) noexcept {
    return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
  }

  std::string_view parse_name() {
    if (!is_name_start(peek())) fail("invalid name start character");
    const std::size_t start = pos_++;
    while (!at_end() && is_name_char(doc_[pos_])) ++pos_;
    return doc_.substr(start, pos_ - start);
  }

  /// Appends the run from the current position up to (not including) the
  /// first character for which `stop` holds, or to the end of the document.
  template <typename Stop>
  void append_run(std::string& out, Stop stop) {
    const std::size_t start = pos_;
    while (!at_end() && !stop(doc_[pos_])) ++pos_;
    out.append(doc_, start, pos_ - start);
  }

  /// Called at '&'.
  void decode_entity(std::string& out) {
    ++pos_;
    if (peek() == '#') {
      ++pos_;
      std::uint32_t code = 0;
      if (peek() == 'x' || peek() == 'X') {
        ++pos_;
        bool any = false;
        while (peek() != ';') {
          const char c = doc_[pos_++];
          int d;
          if (c >= '0' && c <= '9') d = c - '0';
          else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
          else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
          else { fail("invalid hexadecimal character reference"); }
          code = code * 16 + static_cast<std::uint32_t>(d);
          any = true;
        }
        if (!any) fail("empty character reference");
      } else {
        bool any = false;
        while (peek() != ';') {
          const char c = doc_[pos_++];
          if (c < '0' || c > '9') fail("invalid decimal character reference");
          code = code * 10 + static_cast<std::uint32_t>(c - '0');
          any = true;
        }
        if (!any) fail("empty character reference");
      }
      expect(';');
      append_utf8(out, code);
      return;
    }
    const std::string_view name = parse_name();
    expect(';');
    if (name == "amp") out += '&';
    else if (name == "lt") out += '<';
    else if (name == "gt") out += '>';
    else if (name == "quot") out += '"';
    else if (name == "apos") out += '\'';
    else fail("unknown entity '&" + std::string(name) + ";'");
  }

  static void append_utf8(std::string& out, std::uint32_t code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string parse_attribute_value() {
    const char quote = peek();
    if (quote != '"' && quote != '\'') fail("attribute value must be quoted");
    ++pos_;
    std::string value;
    while (true) {
      append_run(value, [quote](char c) { return c == quote || c == '&' || c == '<'; });
      const char c = peek();
      if (c == quote) break;
      if (c == '<') fail("'<' not allowed in attribute value");
      decode_entity(value);
    }
    ++pos_;  // closing quote
    return value;
  }

  XmlNode parse_element(std::size_t depth) {
    if (depth > kMaxDepth) {
      fail("elements nest deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    expect('<');
    XmlNode node{std::string(parse_name())};
    while (true) {
      skip_whitespace();
      if (peek() == '/') {
        ++pos_;
        expect('>');
        return node;  // self-closing
      }
      if (peek() == '>') {
        ++pos_;
        break;
      }
      std::string attr_name(parse_name());
      if (node.has_attr(attr_name)) fail("duplicate attribute '" + attr_name + "'");
      skip_whitespace();
      expect('=');
      skip_whitespace();
      node.append_attr(std::move(attr_name), parse_attribute_value());
    }
    parse_content(node, depth);
    return node;
  }

  void parse_content(XmlNode& node, std::size_t depth) {
    // Character data, CDATA and entities between the children concatenate
    // into one text, set once the closing tag is reached. Children collect
    // on the parser's stack and move into an exactly sized vector then.
    std::string text;
    const std::size_t first_child = children_.size();
    while (true) {
      append_run(text, [](char c) { return c == '<' || c == '&'; });
      if (at_end()) fail("unterminated element <" + node.name() + ">");
      if (doc_[pos_] == '&') {
        decode_entity(text);
      } else if (looking_at("<![CDATA[")) {
        pos_ += 9;
        const std::size_t start = pos_;
        jump_to(doc_.find("]]>", pos_));
        if (at_end()) fail("unterminated CDATA section");
        text.append(doc_, start, pos_ - start);
        pos_ += 3;
      } else if (looking_at("<!--")) {
        skip_comment();
      } else if (looking_at("<?")) {
        skip_until("?>");
      } else if (looking_at("</")) {
        pos_ += 2;
        const std::string_view closing = parse_name();
        if (closing != node.name()) {
          const std::string found(closing);
          fail("mismatched closing tag </" + found + "> for <" + node.name() + ">");
        }
        skip_whitespace();
        expect('>');
        break;
      } else {
        children_.push_back(parse_element(depth + 1));
      }
    }
    if (!text.empty()) node.set_text(std::move(text));
    const auto first = children_.begin() + static_cast<std::ptrdiff_t>(first_child);
    node.children().reserve(static_cast<std::size_t>(children_.end() - first));
    std::move(first, children_.end(), std::back_inserter(node.children()));
    children_.erase(first, children_.end());
  }

  std::string_view doc_;
  std::size_t pos_ = 0;
  std::vector<XmlNode> children_;  ///< children of the open elements, innermost last
};

}  // namespace

XmlNode parse(std::string_view document) {
  Parser parser(document);
  return parser.parse_document();
}

}  // namespace pti::xml
