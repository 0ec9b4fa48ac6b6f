#include "sim/type_universe.hpp"

#include <algorithm>
#include <memory>
#include <string_view>
#include <utility>

#include "conform/conformance_checker.hpp"
#include "reflect/type_builder.hpp"
#include "reflect/value.hpp"
#include "serial/envelope.hpp"
#include "serial/typedesc_xml.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace pti::sim {

namespace {

constexpr const char* kScalarTypes[] = {"int32", "int64", "string"};

struct Member {
  std::string name;
  std::string type;
};

/// A group's base shape: every family of the group derives from it, so
/// conformance clusters by group.
std::vector<Member> base_schema(std::uint32_t group, util::Rng& rng) {
  std::vector<Member> fields;
  const std::size_t count = 1 + rng.next_below(4);
  for (std::size_t i = 0; i < count; ++i) {
    fields.push_back({"g" + std::to_string(group) + "f" + std::to_string(i),
                      kScalarTypes[rng.next_below(3)]});
  }
  return fields;
}

void add_getter(reflect::TypeBuilder& builder, const std::string& field,
                const std::string& type) {
  builder.method("get_" + field, type, {},
                 [field](reflect::DynObject& self, reflect::Args) {
                   return self.get(field);
                 });
}

/// How a family's interest relates to its group's base schema — mirrors
/// the protocol-fuzz modes: Copy/Subset conform, Mutated does not.
enum class InterestShape : std::uint8_t { Copy, Subset, Mutated };

}  // namespace

TypeUniverse::TypeUniverse(const TypeUniverseConfig& config, transport::AssemblyHub& hub)
    : serializers_(serial::SerializerRegistry::with_defaults()),
      groups_(config.groups == 0 ? 1 : std::min(config.groups, config.families)) {
  if (config.families == 0) {
    throw pti::Error("TypeUniverse needs at least one type family");
  }
  util::Rng rng(config.seed);

  std::vector<std::vector<Member>> bases;
  bases.reserve(groups_);
  for (std::uint32_t g = 0; g < groups_; ++g) bases.push_back(base_schema(g, rng));

  families_.resize(config.families);
  const std::size_t count = config.families;
  for (std::uint32_t t = 0; t < count; ++t) {
    Family& family = families_[t];
    const std::vector<Member>& base = bases[group_of(t)];
    const std::string pub_ns = "u" + std::to_string(t);
    const std::string int_ns = "i" + std::to_string(t);
    family.publisher_type = pub_ns + ".Thing";
    family.interest_type = int_ns + ".Thing";
    family.assembly = pub_ns + ".gen";

    // Publisher: the group's full shape, fields + getters.
    reflect::TypeBuilder publisher(pub_ns, "Thing");
    for (const Member& m : base) {
      publisher.field(m.name, m.type);
      add_getter(publisher, m.name, m.type);
    }
    auto pub_assembly = std::make_shared<reflect::Assembly>(family.assembly);
    pub_assembly->add_type(publisher.build());
    family.code_size = pub_assembly->simulated_code_size();
    hub.publish(pub_assembly);
    domain_.load_assembly(pub_assembly, "net://origin/" + family.assembly);

    // Interest: getters derived per the drawn shape. Draw order is fixed
    // (one draw per family), so the population replays from the seed.
    const auto shape = static_cast<InterestShape>(rng.next_below(3));
    std::vector<Member> getters = base;
    if (shape == InterestShape::Subset && getters.size() > 1) {
      getters.resize(1 + rng.next_below(getters.size()));
    } else if (shape == InterestShape::Mutated) {
      Member& victim = getters[rng.next_below(getters.size())];
      if (rng.next_bool(0.5)) {
        // Token-disjoint name: no member-name rule can realize it.
        victim.name = "zz" + std::to_string(t);
      } else {
        victim.type = victim.type == "string" ? "int32" : "string";
      }
    }
    reflect::TypeBuilder interest(int_ns, "Thing");
    for (const Member& m : getters) add_getter(interest, m.name, m.type);
    auto int_assembly = std::make_shared<reflect::Assembly>(int_ns + ".gen");
    int_assembly->add_type(interest.build());
    hub.publish(int_assembly);
    domain_.load_assembly(int_assembly, "net://origin/" + int_ns + ".gen");
  }

  // Cache the lookups and wire artifacts per family.
  serial::ObjectSerializer& serializer = serializers_.get("soap");
  payload_encoding_ = std::string(serializer.encoding());
  for (std::uint32_t t = 0; t < count; ++t) {
    Family& family = families_[t];
    const reflect::TypeDescription* pub_desc =
        domain_.registry().find(family.publisher_type);
    family.description_xml = serial::type_description_to_string(*pub_desc);
    family.description_hash = util::fnv1a64(family.description_xml);
    family.interest_id = domain_.registry().find(family.interest_type)->name_id();
    family_by_type_name_.emplace(family.publisher_type, t);
    family_by_interest_name_.emplace(family.interest_type, t);
    family_by_interest_id_.emplace(family.interest_id, t);

    // One real envelope per family: deterministic field values, true
    // serialized bytes. Receivers resolve the family by content hash.
    auto object = domain_.instantiate(family.publisher_type);
    const std::vector<Member>& base = bases[group_of(t)];
    for (std::size_t i = 0; i < base.size(); ++i) {
      const Member& m = base[i];
      if (m.type == "int32") {
        object->set(m.name, reflect::Value(static_cast<std::int32_t>(rng.next_below(100000))));
      } else if (m.type == "int64") {
        object->set(m.name, reflect::Value(static_cast<std::int64_t>(rng.next_u64() >> 8)));
      } else {
        object->set(m.name, reflect::Value("v" + std::to_string(t) + "_" + std::to_string(i)));
      }
    }
    const reflect::Value root(std::move(object));
    serial::EnvelopeBuilder builder(serializer, &domain_.registry());
    family.envelope = builder.build(root).to_bytes();
    family.payload = serializer.serialize(root);
    const std::uint64_t h = util::fnv1a64(std::string_view(
        reinterpret_cast<const char*>(family.envelope.data()), family.envelope.size()));
    family_by_envelope_hash_.emplace(h, t);
  }

  // Ground truth: the real checker decides every (publisher, interest)
  // pair once. LightweightPeer's per-delivery verdict is a probe of this
  // matrix — same engine, amortized.
  conform::ConformanceChecker checker(domain_.registry(), {}, &cache_);
  matrix_.assign(count * count, false);
  for (std::uint32_t k = 0; k < count; ++k) {
    const reflect::TypeDescription* source =
        domain_.registry().find(families_[k].publisher_type);
    for (std::uint32_t j = 0; j < count; ++j) {
      const reflect::TypeDescription* target =
          domain_.registry().find(families_[j].interest_type);
      matrix_[static_cast<std::size_t>(k) * count + j] =
          checker.check(*source, *target).conformant;
    }
  }
}

std::uint32_t TypeUniverse::type_of_envelope(
    const std::vector<std::uint8_t>& bytes) const noexcept {
  const std::uint64_t h = util::fnv1a64(
      std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  const auto it = family_by_envelope_hash_.find(h);
  return it == family_by_envelope_hash_.end() ? kNoType : it->second;
}

std::uint32_t TypeUniverse::type_by_name(const std::string& qualified_name) const noexcept {
  const auto it = family_by_type_name_.find(qualified_name);
  return it == family_by_type_name_.end() ? kNoType : it->second;
}

std::uint32_t TypeUniverse::interest_of_id(util::InternedName id) const noexcept {
  const auto it = family_by_interest_id_.find(id);
  return it == family_by_interest_id_.end() ? kNoType : it->second;
}

std::uint32_t TypeUniverse::interest_by_type_name(
    const std::string& qualified_name) const noexcept {
  const auto it = family_by_interest_name_.find(qualified_name);
  return it == family_by_interest_name_.end() ? kNoType : it->second;
}

}  // namespace pti::sim
