// Unit and property tests for the XML DOM, writer and parser.
#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "xml/xml_error.hpp"
#include "xml/xml_node.hpp"
#include "xml/xml_parser.hpp"
#include "xml/xml_writer.hpp"

namespace pti::xml {
namespace {

TEST(XmlNode, AttributesPreserveOrderAndOverwrite) {
  XmlNode n("Type");
  n.set_attr("b", "2").set_attr("a", "1").set_attr("b", "3");
  ASSERT_EQ(n.attributes().size(), 2u);
  EXPECT_EQ(n.attributes()[0].name, "b");
  EXPECT_EQ(*n.attr("b"), "3");
  EXPECT_EQ(*n.attr("a"), "1");
  EXPECT_FALSE(n.attr("missing").has_value());
  EXPECT_THROW((void)n.required_attr("missing"), XmlError);
}

TEST(XmlNode, ChildLookup) {
  XmlNode n("root");
  n.add_child("a").set_attr("i", "0");
  n.add_child("b");
  n.add_child("a").set_attr("i", "1");
  EXPECT_EQ(n.children_named("a").size(), 2u);
  EXPECT_EQ(n.child("b")->name(), "b");
  EXPECT_EQ(n.child("zzz"), nullptr);
  EXPECT_THROW((void)n.required_child("zzz"), XmlError);
}

TEST(XmlWriter, EscapesSpecialCharacters) {
  XmlNode n("t");
  n.set_attr("a", "x<y&\"z'");
  n.set_text("a<b>&c");
  const std::string out = write(n, {.indent = false, .declaration = false});
  EXPECT_EQ(out, "<t a=\"x&lt;y&amp;&quot;z&apos;\">a&lt;b&gt;&amp;c</t>");
}

TEST(XmlWriter, SelfClosesEmptyElements) {
  XmlNode n("empty");
  n.set_attr("k", "v");
  EXPECT_EQ(write(n, {.indent = false, .declaration = false}), "<empty k=\"v\"/>");
}

TEST(XmlWriter, EmitsDeclaration) {
  XmlNode n("d");
  const std::string out = write(n);
  EXPECT_TRUE(out.starts_with("<?xml version=\"1.0\" encoding=\"UTF-8\"?>"));
}

TEST(XmlParser, ParsesAttributesTextAndNesting) {
  const XmlNode root = parse(
      "<?xml version=\"1.0\"?>\n"
      "<!-- a comment -->\n"
      "<root a='1' b=\"two\">\n"
      "  <child>text &amp; more</child>\n"
      "  <empty/>\n"
      "</root>");
  EXPECT_EQ(root.name(), "root");
  EXPECT_EQ(*root.attr("a"), "1");
  EXPECT_EQ(*root.attr("b"), "two");
  ASSERT_EQ(root.children().size(), 2u);
  EXPECT_EQ(root.children()[0].text(), "text & more");
  EXPECT_EQ(root.children()[1].name(), "empty");
}

TEST(XmlParser, DecodesEntities) {
  const XmlNode n = parse("<t>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;&#x2713;</t>");
  EXPECT_EQ(n.text(), "<>&\"'AB\xE2\x9C\x93");
}

TEST(XmlParser, HandlesCdata) {
  const XmlNode n = parse("<t><![CDATA[<raw> & unescaped]]></t>");
  EXPECT_EQ(n.text(), "<raw> & unescaped");
}

TEST(XmlParser, SkipsDoctypeAndProcessingInstructions) {
  const XmlNode n = parse(
      "<?xml version=\"1.0\"?><!DOCTYPE note [<!ENTITY x \"y\">]><note><?pi data?>"
      "ok</note>");
  EXPECT_EQ(n.name(), "note");
  EXPECT_EQ(n.text(), "ok");
}

TEST(XmlParser, ReportsErrorsWithPosition) {
  try {
    (void)parse("<a>\n  <b></c>\n</a>");
    FAIL() << "expected XmlError";
  } catch (const XmlError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("mismatched"), std::string::npos) << what;
  }
}

TEST(XmlParser, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse(""), XmlError);
  EXPECT_THROW((void)parse("just text"), XmlError);
  EXPECT_THROW((void)parse("<a>"), XmlError);
  EXPECT_THROW((void)parse("<a><b></a></b>"), XmlError);
  EXPECT_THROW((void)parse("<a x=1/>"), XmlError);           // unquoted attr
  EXPECT_THROW((void)parse("<a x='1' x='2'/>"), XmlError);   // duplicate attr
  EXPECT_THROW((void)parse("<a>&unknown;</a>"), XmlError);   // unknown entity
  EXPECT_THROW((void)parse("<a/><b/>"), XmlError);           // two roots
  EXPECT_THROW((void)parse("<a>&#;</a>"), XmlError);         // empty char ref
}

// Every error message, with its line and column, exactly as the
// character-at-a-time parser reported it: the run-scanning parser derives
// the position from the byte offset only when it throws, and must land on
// the same one. Columns count bytes (UTF-8 and '\r' included).
TEST(XmlParser, ErrorPositionsArePinned) {
  struct Case {
    const char* document;
    const char* message;
  };
  const Case cases[] = {
      {"", "XML parse error at line 1, column 1: document contains no root element"},
      {"  \n  just text", "XML parse error at line 2, column 3: expected '<', found 'j'"},
      {"<a>\n  <b></c>\n</a>",
       "XML parse error at line 2, column 9: mismatched closing tag </c> for <b>"},
      {"<a>\n<b>", "XML parse error at line 2, column 4: unterminated element <b>"},
      {"<a\n  x=1/>", "XML parse error at line 2, column 5: attribute value must be quoted"},
      {"<a\n x='1'\n x='2'/>", "XML parse error at line 3, column 3: duplicate attribute 'x'"},
      {"<a>\n&unknown;</a>",
       "XML parse error at line 2, column 10: unknown entity '&unknown;'"},
      {"<a/>\n<b/>", "XML parse error at line 2, column 1: content after root element"},
      {"<a>&#;</a>", "XML parse error at line 1, column 6: empty character reference"},
      {"<a>\n  &#x;</a>", "XML parse error at line 2, column 6: empty character reference"},
      {"<a>\n &#x4G;</a>",
       "XML parse error at line 2, column 7: invalid hexadecimal character reference"},
      {"<a>&#12a;</a>",
       "XML parse error at line 1, column 9: invalid decimal character reference"},
      {"<a\tb='x<y'/>",
       "XML parse error at line 1, column 8: '<' not allowed in attribute value"},
      {"<a b='xy", "XML parse error at line 1, column 9: unexpected end of document"},
      {"<!-- never closed", "XML parse error at line 1, column 18: unterminated comment"},
      {"<!-- a -- b -->\n<a/>",
       "XML parse error at line 1, column 8: '--' not allowed inside comment"},
      {"<?xml version='1.0'?>\n<?pi never closed",
       "XML parse error at line 2, column 18: unterminated construct, expected '?>'"},
      {"<a>\n<![CDATA[ never closed</a>",
       "XML parse error at line 2, column 27: unterminated CDATA section"},
      {"<1a/>", "XML parse error at line 1, column 2: invalid name start character"},
      {"<a></ a>", "XML parse error at line 1, column 6: invalid name start character"},
      {"<a>\n  <b>\n    text\n  </b>\n</a  x>",
       "XML parse error at line 5, column 6: expected '>', found 'x'"},
      {"<!DOCTYPE x [\n <!ENTITY y 'z'> ",
       "XML parse error at line 2, column 18: unexpected end of document"},
      {"<a>\r\n\t<b attr=\"v\"\r\n/></c>",
       "XML parse error at line 3, column 6: mismatched closing tag </c> for <a>"},
      {"<a>café ✓ <b></a>",
       "XML parse error at line 1, column 20: mismatched closing tag </a> for <b>"},
      {"<a>&amp</a>", "XML parse error at line 1, column 8: expected ';', found '<'"},
      {"<a>&lt;</a>\n<", "XML parse error at line 2, column 1: content after root element"},
      {"<a x='1'\n   y/>", "XML parse error at line 2, column 5: expected '=', found '/'"},
      {"<a>\n\n\n<b/>\n<c></d>",
       "XML parse error at line 5, column 7: mismatched closing tag </d> for <c>"},
      {"<a", "XML parse error at line 1, column 3: unexpected end of document"},
      {"<a><!-- ok --><? ok ?><![CDATA[ok]]></a",
       "XML parse error at line 1, column 40: unexpected end of document"},
      {"<a>\n<b>--</b><!-- x --->\n</a>",
       "XML parse error at line 2, column 17: '--' not allowed inside comment"},
      {"<M>\n  <T/>\n  <P e=\"soap\">\n    <S:Env>\n  </P>\n</M>",
       "XML parse error at line 5, column 6: mismatched closing tag </P> for <S:Env>"},
  };
  for (const Case& c : cases) {
    try {
      (void)parse(c.document);
      ADD_FAILURE() << "expected XmlError for: " << c.document;
    } catch (const XmlError& e) {
      EXPECT_EQ(std::string(e.what()), c.message) << "document: " << c.document;
    }
  }
}

std::string nested(std::size_t levels) {
  std::string doc;
  doc.reserve(levels * 7 + 1);
  for (std::size_t i = 0; i < levels; ++i) doc += "<a>";
  doc += "x";
  for (std::size_t i = 0; i < levels; ++i) doc += "</a>";
  return doc;
}

TEST(XmlParser, RejectsNestingDeeperThanTheCap) {
  // 100,000 levels used to recurse until the stack overflowed.
  try {
    (void)parse(nested(100000));
    FAIL() << "expected XmlError";
  } catch (const XmlError& e) {
    std::string expected = "XML parse error at line 1, column ";
    expected += std::to_string(kMaxDepth * 3 + 1) + ": elements nest deeper than ";
    expected += std::to_string(kMaxDepth) + " levels";
    EXPECT_EQ(std::string(e.what()), expected);
  }
  EXPECT_THROW((void)parse(nested(kMaxDepth + 1)), XmlError);
  // 100,000 open tags and nothing else: the cap fires before the end.
  EXPECT_THROW((void)parse(nested(100000).substr(0, 3 * 100000)), XmlError);

  const XmlNode deepest = parse(nested(kMaxDepth));
  std::size_t depth = 1;
  for (const XmlNode* n = &deepest; !n->children().empty(); n = &n->children().front()) {
    ++depth;
  }
  EXPECT_EQ(depth, kMaxDepth);
}

TEST(XmlParser, AttributeValueMayContainBothQuoteKinds) {
  const XmlNode n = parse("<t a=\"it's\" b='say \"hi\"'/>");
  EXPECT_EQ(*n.attr("a"), "it's");
  EXPECT_EQ(*n.attr("b"), "say \"hi\"");
}

// --- write/parse round-trip property -----------------------------------------

XmlNode random_tree(util::Rng& rng, int depth) {
  XmlNode node("n" + std::to_string(rng.next_below(5)));
  const std::size_t attr_count = rng.next_below(3);
  for (std::size_t i = 0; i < attr_count; ++i) {
    // Attribute values stress escaping.
    node.set_attr("a" + std::to_string(i), "v<&\"'" + std::to_string(rng.next_u64() % 100));
  }
  if (depth > 0 && rng.next_bool(0.7)) {
    const std::size_t child_count = 1 + rng.next_below(3);
    for (std::size_t i = 0; i < child_count; ++i) {
      node.add_child(random_tree(rng, depth - 1));
    }
  } else {
    node.set_text("text >&< " + std::to_string(rng.next_u64() % 1000));
  }
  return node;
}

class XmlRoundTripProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlRoundTripProperty, WriteThenParseIsIdentity) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    const XmlNode tree = random_tree(rng, 3);
    // Compact form.
    EXPECT_EQ(parse(write(tree, {.indent = false, .declaration = true})), tree);
    EXPECT_EQ(parse(write(tree, {.indent = false, .declaration = false})), tree);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace pti::xml
