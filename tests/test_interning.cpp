// Semantics of the interned-identity layer: SymbolTable folding and
// collision behavior, TypeDescription ids and fingerprints, registry
// resolution over interned keys, and conformance-cache statistics across
// interned lookups.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "conform/conformance_cache.hpp"
#include "conform/conformance_checker.hpp"
#include "fixtures/sample_types.hpp"
#include "reflect/domain.hpp"
#include "reflect/reflect_error.hpp"
#include "reflect/type_registry.hpp"
#include "util/byte_buffer.hpp"
#include "util/interning.hpp"

namespace pti {
namespace {

using reflect::TypeDescription;
using reflect::TypeKind;
using util::InternedName;
using util::SymbolTable;

// --- SymbolTable -------------------------------------------------------------

TEST(SymbolTable, CaseInsensitiveCollision) {
  SymbolTable table;
  const InternedName a = table.intern("teamA.Person");
  const InternedName b = table.intern("TEAMA.PERSON");
  const InternedName c = table.intern("teama.person");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_EQ(table.folded(a), "teama.person");

  const InternedName other = table.intern("teamB.Person");
  EXPECT_NE(a, other);
}

TEST(SymbolTable, FindNeverInserts) {
  SymbolTable table;
  EXPECT_FALSE(table.find("never.interned").valid());
  EXPECT_EQ(table.size(), 0u);

  const InternedName id = table.intern("Known");
  EXPECT_EQ(table.find("known"), id);
  EXPECT_EQ(table.find("KNOWN"), id);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SymbolTable, QualifiedFormsAgreeWithConcatenation) {
  SymbolTable table;
  const InternedName joined = table.intern("ns.Type");
  EXPECT_EQ(table.intern_qualified("NS", "TYPE"), joined);
  EXPECT_EQ(table.find_qualified("ns", "type"), joined);
  // Empty namespace degenerates to the bare name.
  const InternedName bare = table.intern("Type");
  EXPECT_EQ(table.intern_qualified("", "Type"), bare);
  EXPECT_EQ(table.find_qualified("", "tYpE"), bare);
  EXPECT_NE(bare, joined);
}

TEST(SymbolTable, InvalidIdIsHarmless) {
  SymbolTable table;
  const InternedName invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_EQ(table.folded(invalid), "");
  EXPECT_EQ(table.hash(invalid), 0u);
}

TEST(SymbolTable, PairKeyIsOrderSensitive) {
  SymbolTable table;
  const InternedName a = table.intern("a");
  const InternedName b = table.intern("b");
  EXPECT_NE(util::pair_key(a, b), util::pair_key(b, a));
  EXPECT_EQ(util::pair_key(a, b), util::pair_key(a, b));
}

// --- TypeDescription ids & fingerprints --------------------------------------

TEST(InternedIdentity, DescriptionIdsFoldCase) {
  const TypeDescription a("teamA", "Person", TypeKind::Class);
  const TypeDescription b("TEAMA", "PERSON", TypeKind::Class);
  const TypeDescription c("teamB", "Person", TypeKind::Class);
  EXPECT_EQ(a.name_id(), b.name_id());
  EXPECT_NE(a.name_id(), c.name_id());
  // Simple-name ids fold too, and are shared across namespaces.
  EXPECT_EQ(a.simple_name_id(), c.simple_name_id());
}

TEST(InternedIdentity, FingerprintIgnoresCaseAndNamespace) {
  TypeDescription a("nsa", "Point", TypeKind::Class);
  a.add_field({"x", "int32", reflect::Visibility::Public, false});
  TypeDescription b("nsb", "POINT", TypeKind::Class);
  b.add_field({"X", "INT32", reflect::Visibility::Public, false});
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  EXPECT_TRUE(a.structurally_equal(b));
}

TEST(InternedIdentity, FingerprintTracksMutation) {
  TypeDescription d("ns", "Point", TypeKind::Class);
  const std::uint64_t before = d.fingerprint();
  d.add_field({"x", "int32", reflect::Visibility::Public, false});
  EXPECT_NE(d.fingerprint(), before);
  // Non-structural provenance does not perturb the fingerprint.
  const std::uint64_t structural = d.fingerprint();
  d.set_assembly_name("ns.points");
  d.set_download_path("net://peer/ns.points");
  EXPECT_EQ(d.fingerprint(), structural);
}

TEST(InternedIdentity, FingerprintSeparatesFieldBoundaries) {
  TypeDescription a("ns", "T", TypeKind::Class);
  a.add_field({"ab", "c", reflect::Visibility::Public, false});
  TypeDescription b("ns", "T", TypeKind::Class);
  b.add_field({"a", "bc", reflect::Visibility::Public, false});
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// --- TypeRegistry over interned keys -----------------------------------------

TEST(InternedRegistry, ReRegisteringStructurallyEqualDedups) {
  reflect::TypeRegistry registry;
  TypeDescription d("teamA", "Person", TypeKind::Class);
  d.add_field({"name", "string", reflect::Visibility::Public, false});
  const TypeDescription& first = registry.add(d);

  // Same structure under a differently-cased name: still the same entry.
  TypeDescription again("TEAMA", "PERSON", TypeKind::Class);
  again.add_field({"NAME", "STRING", reflect::Visibility::Public, false});
  const TypeDescription& second = registry.add(again);
  EXPECT_EQ(&first, &second);

  // A conflicting structure under the same (folded) name is rejected.
  TypeDescription conflict("teama", "person", TypeKind::Class);
  conflict.add_field({"age", "int32", reflect::Visibility::Public, false});
  EXPECT_THROW(registry.add(conflict), reflect::ReflectError);
}

TEST(InternedRegistry, SimpleNameAmbiguityResolution) {
  reflect::TypeRegistry registry;
  TypeDescription a("teamA", "Person", TypeKind::Class);
  a.add_field({"name", "string", reflect::Visibility::Public, false});
  registry.add(a);

  // Unique simple name resolves from any (or no) referrer namespace.
  EXPECT_NE(registry.find("Person"), nullptr);
  EXPECT_NE(registry.resolve("person", "elsewhere"), nullptr);

  // A second Person in another namespace makes the bare name ambiguous...
  TypeDescription b("teamB", "Person", TypeKind::Class);
  b.add_field({"fullName", "string", reflect::Visibility::Public, false});
  registry.add(b);
  EXPECT_EQ(registry.find("Person"), nullptr);

  // ...but referrer-namespace qualification still picks the right one.
  const TypeDescription* resolved = registry.resolve("Person", "teamB");
  ASSERT_NE(resolved, nullptr);
  EXPECT_EQ(resolved->qualified_name(), "teamB.Person");

  // Qualified lookups are exact and case-insensitive.
  EXPECT_NE(registry.find("TEAMA.person"), nullptr);
  EXPECT_EQ(registry.find("teamC.Person"), nullptr);
}

TEST(InternedRegistry, FindByIdMatchesFind) {
  reflect::TypeRegistry registry;
  TypeDescription d("teamA", "Person", TypeKind::Class);
  const TypeDescription& stored = registry.add(d);
  EXPECT_EQ(registry.find_by_id(stored.name_id()), &stored);
  EXPECT_EQ(registry.find_by_id(InternedName{}), nullptr);
}

// --- ConformanceCache over interned keys -------------------------------------

TEST(InternedCache, HitMissStatsAcrossInternedLookups) {
  reflect::Domain domain;
  domain.load_assembly(fixtures::team_a_people());
  domain.load_assembly(fixtures::team_b_people());
  conform::ConformanceCache cache;
  conform::ConformanceChecker checker(domain.registry(), {}, &cache);

  const auto& source = *domain.registry().find("teamB.Person");
  const auto& target = *domain.registry().find("teamA.Person");

  EXPECT_TRUE(checker.check(source, target).conformant);
  const auto misses_after_first = cache.stats().misses;
  EXPECT_GT(cache.stats().insertions, 0u);

  // Repeat checks are pure hits regardless of entry point (full check or
  // verdict-only), and the verdicts agree.
  const auto hits_before = cache.stats().hits;
  EXPECT_TRUE(checker.check(source, target).conformant);
  EXPECT_TRUE(checker.conforms(source, target));
  EXPECT_EQ(cache.stats().misses, misses_after_first);
  EXPECT_GE(cache.stats().hits, hits_before + 2);
  EXPECT_GT(cache.stats().hit_rate(), 0.0);
}

TEST(InternedCache, DistinctOptionsFingerprintsAreSeparateEntries) {
  reflect::Domain domain;
  domain.load_assembly(fixtures::team_a_people());
  domain.load_assembly(fixtures::team_b_people());
  conform::ConformanceCache cache;

  const auto& source = *domain.registry().find("teamB.Person");
  const auto& target = *domain.registry().find("teamA.Person");

  conform::ConformanceChecker lenient(domain.registry(), {}, &cache);
  conform::ConformanceOptions exact;
  exact.member_name_rule = conform::MemberNameRule::Exact;
  conform::ConformanceChecker strict(domain.registry(), exact, &cache);

  EXPECT_TRUE(lenient.conforms(source, target));
  const std::size_t size_after_lenient = cache.size();
  EXPECT_FALSE(strict.conforms(source, target));
  EXPECT_GT(cache.size(), size_after_lenient);  // no key collision across options
  // Both verdicts stay retrievable.
  EXPECT_TRUE(lenient.conforms(source, target));
  EXPECT_FALSE(strict.conforms(source, target));
}

TEST(InternedCache, EverySourceOfATargetGetsItsOwnHomeSlot) {
  // The read index takes a key's home slot from the low bits of its hash.
  // If those bits came from the target id alone, every source checked
  // against one target would share one home slot, and each lookup and
  // insert would walk a probe run as long as the cache's history of that
  // target.
  SymbolTable table;
  constexpr std::size_t kSources = 4096;
  constexpr std::size_t kSlotMask = kSources - 1;
  for (const char* target_name : {"t.A", "t.B", "t.C", "t.D"}) {
    const InternedName target = table.intern(target_name);
    std::vector<bool> home(kSources, false);
    std::size_t distinct = 0;
    for (std::size_t i = 0; i < kSources; ++i) {
      const conform::ConformanceCache::Key key{table.intern("s." + std::to_string(i)), target,
                                               0x5EED};
      const std::size_t slot = conform::ConformanceCache::KeyHash{}(key) & kSlotMask;
      if (!home[slot]) ++distinct;
      home[slot] = true;
    }
    // A uniform hash fills about 63% of the slots; the target-only one, 1.
    EXPECT_GT(distinct, kSources / 2) << target_name;
  }
}

// --- ByteWriter::reserve -----------------------------------------------------

TEST(ByteWriter, ReservePreservesContents) {
  util::ByteWriter writer;
  writer.write_string("hello");
  writer.reserve(4096);
  writer.write_string("world");
  const auto bytes = writer.bytes();
  ASSERT_GE(bytes.size(), 12u);
  util::ByteReader reader(bytes);
  EXPECT_EQ(reader.read_string(), "hello");
  EXPECT_EQ(reader.read_string(), "world");
}

}  // namespace
}  // namespace pti
