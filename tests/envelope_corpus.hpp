// A seeded corpus of value graphs for the envelope tests: every scalar
// kind, lists, nested, shared and cyclic objects, and strings that stress
// XML escaping (markup characters, quotes, whitespace, newlines,
// non-ASCII). The corpus only builds values, so the same generator can
// drive any version of the encoders; its byte digests are pinned in
// tests/test_envelope.cpp.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fixtures/sample_types.hpp"
#include "reflect/domain.hpp"
#include "reflect/dyn_object.hpp"
#include "reflect/value.hpp"
#include "util/guid.hpp"
#include "util/rng.hpp"

namespace pti::corpus {

using reflect::DynObject;
using reflect::Value;
using reflect::ValueKind;

struct Entry {
  std::string name;
  Value value;
  bool cyclic = false;  ///< the XML encoding rejects these by design
};

/// Strings that must survive every encoding byte for byte.
inline const std::vector<std::string>& tricky_strings() {
  static const std::vector<std::string> strings = {
      "",
      "& < > \" '",
      "<tag attr=\"v\">&amp;</tag>",
      "]]> <![CDATA[x]]> <!-- c --> <?pi?>",
      "a\tb",
      "  leading and trailing  ",
      " ",
      "line1\nline2\n",
      "crlf\r\nend\r",
      "caf\xC3\xA9 \xC3\xBC\xC3\x9F",
      "\xE6\x97\xA5\xE6\x9C\xAC\xE8\xAA\x9E \xE2\x9C\x93 \xF0\x9F\x98\x80",
      "&#65; &lt; &unknown;",
  };
  return strings;
}

inline std::shared_ptr<DynObject> make_object(const std::string& type, std::uint64_t seed) {
  const util::Guid guid = seed == 0 ? util::Guid{} : util::Guid(seed, ~seed);
  return DynObject::make(type, guid);
}

/// A random graph of depth `depth`, drawing strings from tricky_strings().
inline Value random_value(util::Rng& rng, int depth) {
  const auto& strings = tricky_strings();
  switch (rng.next_below(depth > 0 ? 8 : 6)) {
    case 0: return Value();
    case 1: return Value(rng.next_bool(0.5));
    case 2: return Value(static_cast<std::int32_t>(rng.next_u64()));
    case 3: return Value(static_cast<std::int64_t>(rng.next_u64()));
    case 4: {
      const auto mantissa = static_cast<std::int64_t>(rng.next_u64() >> 11);
      return Value(static_cast<double>(mantissa) / 1024.0);
    }
    case 5: return Value(strings[rng.next_below(strings.size())]);
    case 6: {
      Value::List items;
      const std::size_t n = rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) items.push_back(random_value(rng, depth - 1));
      return Value(std::move(items));
    }
    default: {
      auto obj = make_object("corpus.R" + std::to_string(rng.next_below(3)), rng.next_u64());
      const std::size_t n = 1 + rng.next_below(4);
      for (std::size_t i = 0; i < n; ++i) {
        obj->set("r" + std::to_string(i), random_value(rng, depth - 1));
      }
      return Value(obj);
    }
  }
}

/// The corpus. `domain` must have the teamA people assembly loaded (the
/// nested entry uses its types, so their provenance reaches the envelope).
inline std::vector<Entry> envelope_corpus(reflect::Domain& domain, std::uint64_t seed) {
  std::vector<Entry> out;

  auto scalars = make_object("corpus.Scalars", 0x5CA1A25);
  scalars->set("null", Value());
  scalars->set("yes", Value(true));
  scalars->set("no", Value(false));
  scalars->set("i32min", Value(std::numeric_limits<std::int32_t>::min()));
  scalars->set("i32max", Value(std::numeric_limits<std::int32_t>::max()));
  scalars->set("i32zero", Value(std::int32_t{0}));
  scalars->set("i64min", Value(std::numeric_limits<std::int64_t>::min()));
  scalars->set("i64max", Value(std::numeric_limits<std::int64_t>::max()));
  scalars->set("tenth", Value(0.1));
  scalars->set("negzero", Value(-0.0));
  scalars->set("huge", Value(1e300));
  scalars->set("tiny", Value(5e-324));
  scalars->set("inf", Value(std::numeric_limits<double>::infinity()));
  scalars->set("neginf", Value(-std::numeric_limits<double>::infinity()));
  scalars->set("empty", Value(std::string()));
  out.push_back({"scalars", Value(scalars)});

  auto markup = make_object("corpus.Markup", 0);
  const auto& strings = tricky_strings();
  for (std::size_t i = 0; i < strings.size(); ++i) {
    markup->set("s" + std::to_string(i), Value(strings[i]));
  }
  markup->set("odd & <name> \"quoted\" 'single'", Value("field names are attributes too"));
  out.push_back({"markup", Value(markup)});

  auto lists = make_object("corpus.Lists", 0x1157);
  Value::List mixed = {Value(std::int32_t{1}), Value("two"), Value(3.5), Value(), Value(true)};
  lists->set("mixed", Value(mixed));
  lists->set("empty", Value(Value::List{}));
  lists->set("nested", Value(Value::List{Value(Value::List{Value(Value::List{Value("deep")})}),
                                         Value(Value::List{})}));
  Value::List objects;
  for (int i = 0; i < 3; ++i) {
    auto item = make_object("corpus.Item", 0x17E);
    item->set("index", Value(std::int32_t{i}));
    objects.push_back(Value(item));
  }
  lists->set("objects", Value(objects));
  out.push_back({"lists", Value(lists)});

  const Value name_args[] = {Value("Ada <Lovelace> & \"Co\"")};
  auto person = domain.instantiate("teamA.Person", name_args);
  const Value address_args[] = {Value("Rue de l'\xC3\x89glise\n2nd floor"),
                                Value(std::int32_t{1015})};
  person->set("address", Value(domain.instantiate("teamA.Address", address_args)));
  out.push_back({"nested", Value(person)});

  auto shared_child = make_object("corpus.Leaf", 0x1EAF);
  shared_child->set("label", Value("shared"));
  auto shared = make_object("corpus.Pair", 0);
  shared->set("left", Value(shared_child));
  shared->set("right", Value(shared_child));
  shared->set("both", Value(Value::List{Value(shared_child), Value(shared_child)}));
  out.push_back({"shared", Value(shared)});

  auto a = make_object("corpus.Ring", 0xA);
  auto b = make_object("corpus.Ring", 0xA);
  a->set("next", Value(b));
  b->set("next", Value(a));
  a->set("self", Value(a));
  b->set("tag", Value("b < a"));
  out.push_back({"cyclic", Value(a), true});

  Value::List root_list = {Value(make_object("corpus.InList", 0)), Value("tail"),
                           Value(std::int64_t{-7})};
  out.push_back({"list_root", Value(root_list)});

  util::Rng rng(seed);
  for (int i = 0; i < 8; ++i) {
    auto root = make_object("corpus.Random", rng.next_u64());
    const std::size_t n = 1 + rng.next_below(5);
    for (std::size_t f = 0; f < n; ++f) {
      root->set("f" + std::to_string(f), random_value(rng, 3));
    }
    out.push_back({"random" + std::to_string(i), Value(root)});
  }
  return out;
}

/// Deep equality of two value graphs. With `identity`, object identity must
/// round-trip too: the objects of `a` map one-to-one onto those of `b`, so
/// shared references and cycles are preserved (SOAP, binary). Without it,
/// equal-but-distinct copies are equal (XML duplicates shared objects);
/// only acyclic graphs may be compared that way.
class GraphEquality {
 public:
  explicit GraphEquality(bool identity) : identity_(identity) {}

  bool equal(const Value& a, const Value& b) {
    if (a.kind() != b.kind()) return false;
    switch (a.kind()) {
      case ValueKind::Object: {
        const DynObject* oa = a.as_object().get();
        const DynObject* ob = b.as_object().get();
        if (oa == nullptr || ob == nullptr) return oa == ob;
        if (identity_) {
          const auto [it, fresh] = forward_.emplace(oa, ob);
          if (!fresh) return it->second == ob;
          if (!backward_.emplace(ob, oa).second) return false;
        }
        if (oa->type_name() != ob->type_name() || oa->type_guid() != ob->type_guid()) {
          return false;
        }
        if (oa->fields().size() != ob->fields().size()) return false;
        for (const auto& [name, value] : oa->fields()) {
          if (!ob->has_field(name) || !equal(value, ob->get(name))) return false;
        }
        return true;
      }
      case ValueKind::List: {
        const auto& la = a.as_list();
        const auto& lb = b.as_list();
        if (la.size() != lb.size()) return false;
        for (std::size_t i = 0; i < la.size(); ++i) {
          if (!equal(la[i], lb[i])) return false;
        }
        return true;
      }
      default:
        return a == b;
    }
  }

 private:
  bool identity_;
  std::map<const DynObject*, const DynObject*> forward_;
  std::map<const DynObject*, const DynObject*> backward_;
};

}  // namespace pti::corpus
