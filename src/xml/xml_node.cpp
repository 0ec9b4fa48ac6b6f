#include "xml/xml_node.hpp"

#include "xml/xml_error.hpp"

namespace pti::xml {

XmlNode& XmlNode::set_attr(std::string_view name, std::string_view value) {
  for (auto& a : attributes_) {
    if (a.name == name) {
      a.value = std::string(value);
      return *this;
    }
  }
  attributes_.push_back({std::string(name), std::string(value)});
  return *this;
}

XmlNode& XmlNode::append_attr(std::string name, std::string value) {
  // Elements carry a few attributes: skip the 1-2-4 regrowth.
  if (attributes_.empty()) attributes_.reserve(4);
  attributes_.emplace_back(std::move(name), std::move(value));
  return *this;
}

std::optional<std::string_view> XmlNode::attr(std::string_view name) const noexcept {
  for (const auto& a : attributes_) {
    if (a.name == name) return std::string_view(a.value);
  }
  return std::nullopt;
}

std::string_view XmlNode::required_attr(std::string_view name) const {
  if (auto v = attr(name)) return *v;
  throw XmlError("element <" + name_ + "> is missing required attribute '" +
                 std::string(name) + "'");
}

bool XmlNode::has_attr(std::string_view name) const noexcept {
  return attr(name).has_value();
}

XmlNode& XmlNode::add_child(std::string name) {
  children_.emplace_back(std::move(name));
  return children_.back();
}

XmlNode& XmlNode::add_child(XmlNode node) {
  children_.push_back(std::move(node));
  return children_.back();
}

const XmlNode* XmlNode::child(std::string_view name) const noexcept {
  for (const auto& c : children_) {
    if (c.name() == name) return &c;
  }
  return nullptr;
}

const XmlNode& XmlNode::required_child(std::string_view name) const {
  if (const XmlNode* c = child(name)) return *c;
  throw XmlError("element <" + name_ + "> is missing required child <" +
                 std::string(name) + ">");
}

std::vector<const XmlNode*> XmlNode::children_named(std::string_view name) const {
  std::vector<const XmlNode*> out;
  for (const auto& c : children_) {
    if (c.name() == name) out.push_back(&c);
  }
  return out;
}

bool XmlNode::operator==(const XmlNode& other) const noexcept {
  if (name_ != other.name_ || text_ != other.text_) return false;
  if (attributes_.size() != other.attributes_.size()) return false;
  for (std::size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name != other.attributes_[i].name ||
        attributes_[i].value != other.attributes_[i].value) {
      return false;
    }
  }
  return children_ == other.children_;
}

}  // namespace pti::xml
