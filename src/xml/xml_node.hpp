// Minimal XML document object model.
//
// The paper represents type descriptions "as XML structures" (Section 5.2)
// and wraps serialized objects in an XML message (Section 6.2, Fig. 3).
// This DOM is the common substrate for the type-description format, the
// SOAP-style object serializer and the hybrid envelope.
//
// The model is element-centric: an element has a name, ordered attributes,
// child elements and accumulated character data. Mixed content (text
// interleaved between children) is concatenated into `text`, which is
// sufficient for every format in this library.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pti::xml {

struct XmlAttribute {
  std::string name;
  std::string value;
};

class XmlNode {
 public:
  XmlNode() = default;
  explicit XmlNode(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const std::string& text() const noexcept { return text_; }
  void set_text(std::string text) { text_ = std::move(text); }

  // --- attributes -------------------------------------------------------
  [[nodiscard]] const std::vector<XmlAttribute>& attributes() const noexcept {
    return attributes_;
  }
  /// Sets (or overwrites) an attribute; insertion order is preserved.
  XmlNode& set_attr(std::string_view name, std::string_view value);
  /// Appends an attribute the caller knows is absent (the parser, which
  /// rejects duplicates itself): no lookup and no copy.
  XmlNode& append_attr(std::string name, std::string value);
  [[nodiscard]] std::optional<std::string_view> attr(std::string_view name) const noexcept;
  /// Attribute lookup that throws XmlError when absent — for required fields.
  [[nodiscard]] std::string_view required_attr(std::string_view name) const;
  [[nodiscard]] bool has_attr(std::string_view name) const noexcept;

  // --- children ---------------------------------------------------------
  [[nodiscard]] const std::vector<XmlNode>& children() const noexcept { return children_; }
  [[nodiscard]] std::vector<XmlNode>& children() noexcept { return children_; }
  /// Appends an empty child element and returns a reference to it.
  XmlNode& add_child(std::string name);
  XmlNode& add_child(XmlNode node);

  /// First child with the given element name, or nullptr.
  [[nodiscard]] const XmlNode* child(std::string_view name) const noexcept;
  /// First child with the given name; throws XmlError when absent.
  [[nodiscard]] const XmlNode& required_child(std::string_view name) const;
  /// All children with the given element name.
  [[nodiscard]] std::vector<const XmlNode*> children_named(std::string_view name) const;

  [[nodiscard]] bool operator==(const XmlNode& other) const noexcept;

 private:
  std::string name_;
  std::string text_;
  std::vector<XmlAttribute> attributes_;
  std::vector<XmlNode> children_;
};

}  // namespace pti::xml
