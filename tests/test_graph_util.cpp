// Tests for graph utilities (deep clone, graph measurement) and the
// wildcard-interest end-to-end flow they enable alongside.
#include <gtest/gtest.h>

#include "break_cycles.hpp"
#include "core/interop.hpp"
#include "fixtures/sample_types.hpp"
#include "reflect/domain.hpp"
#include "reflect/graph_util.hpp"

namespace pti::reflect {
namespace {

TEST(GraphUtil, DeepCloneCopiesScalarsAndObjects) {
  Domain domain;
  domain.load_assembly(fixtures::team_a_people());
  const Value args[] = {Value("Ada")};
  auto person = domain.instantiate("teamA.Person", args);
  const Value addr[] = {Value("Main"), Value(std::int32_t{7})};
  person->set("address", Value(domain.instantiate("teamA.Address", addr)));

  auto copy = deep_clone(person);
  ASSERT_NE(copy, nullptr);
  EXPECT_NE(copy.get(), person.get());
  EXPECT_TRUE(copy->same_state(*person) == false)  // address differs by identity
      << "object-valued fields must be fresh objects";
  EXPECT_EQ(copy->get("name").as_string(), "Ada");
  EXPECT_NE(copy->get("address").as_object().get(),
            person->get("address").as_object().get());
  EXPECT_EQ(copy->get("address").as_object()->get("street").as_string(), "Main");

  // Pass-by-value semantics: mutating the copy leaves the original alone.
  copy->set("name", Value("Eve"));
  EXPECT_EQ(person->get("name").as_string(), "Ada");
}

TEST(GraphUtil, DeepClonePreservesSharingAndCycles) {
  auto a = DynObject::make("t.N", util::Guid{});
  auto b = DynObject::make("t.N", util::Guid{});
  a->set("next", Value(b));
  b->set("next", Value(a));             // cycle
  a->set("also", Value(b));             // sharing

  auto copy = deep_clone(a);
  const auto& cb = copy->get("next").as_object();
  EXPECT_EQ(cb->get("next").as_object().get(), copy.get());         // cycle closed
  EXPECT_EQ(copy->get("also").as_object().get(), cb.get());         // sharing kept
  EXPECT_NE(cb.get(), b.get());                                     // fresh objects
  testing_support::break_cycles({Value(a), Value(copy)});
}

TEST(GraphUtil, DeepCloneOfValuesAndLists) {
  EXPECT_EQ(deep_clone(Value(std::int32_t{5})), Value(std::int32_t{5}));
  EXPECT_EQ(deep_clone(Value()).kind(), ValueKind::Null);
  EXPECT_EQ(deep_clone(std::shared_ptr<DynObject>{}), nullptr);

  auto obj = DynObject::make("t.T", util::Guid{});
  const Value list(Value::List{Value(obj), Value(obj)});
  const Value copy = deep_clone(list);
  const auto& items = copy.as_list();
  EXPECT_EQ(items[0].as_object().get(), items[1].as_object().get());  // shared
  EXPECT_NE(items[0].as_object().get(), obj.get());
}

TEST(GraphUtil, MeasureGraphShapes) {
  const GraphStats scalar = measure_graph(Value(std::int32_t{1}));
  EXPECT_EQ(scalar.objects, 0u);
  EXPECT_FALSE(scalar.has_cycles);

  auto parent = DynObject::make("t.P", util::Guid{});
  auto child = DynObject::make("t.C", util::Guid{});
  child->set("x", Value(std::int32_t{1}));
  parent->set("l", Value(child));
  parent->set("r", Value(child));  // shared, counted once
  const GraphStats dag = measure_graph(Value(parent));
  EXPECT_EQ(dag.objects, 2u);
  EXPECT_EQ(dag.max_depth, 2u);
  EXPECT_FALSE(dag.has_cycles);

  auto loop = DynObject::make("t.L", util::Guid{});
  loop->set("self", Value(loop));
  EXPECT_TRUE(measure_graph(Value(loop)).has_cycles);
  testing_support::break_cycles({Value(loop)});
}

// --- wildcard interests end-to-end ------------------------------------------
// The paper: "in order to be more general, wildcards could be allowed".
// With allow_wildcards on, a pattern-named declared type acts as an
// interest matching every conformant type whose name fits the pattern.

TEST(WildcardInterest, PatternSubscriptionMatchesAcrossTeams) {
  core::InteropSystem system;
  transport::PeerConfig config;
  config.conformance.allow_wildcards = true;
  auto& alice = system.create_runtime("alice");
  auto& bob = system.create_runtime("bob", config);
  alice.publish_assembly(fixtures::team_a_people());
  alice.publish_assembly(fixtures::bank_accounts());

  // bob declares a *pattern* interest: any "Pers*"-named type with a
  // getName-shaped accessor.
  TypeDescription pattern("bobns", "Pers*", TypeKind::Class);
  pattern.add_method({"getName", "string", {}, Visibility::Public, false});
  bob.domain().registry().add(pattern);
  int seen = 0;
  bob.subscribe("bobns.Pers*", [&](const transport::DeliveredObject&) { ++seen; });

  const Value args[] = {Value("Ada")};
  EXPECT_TRUE(alice.send("bob", alice.make("teamA.Person", args)).delivered);
  const Value owner[] = {Value("Eve")};
  EXPECT_FALSE(alice.send("bob", alice.make("bank.Account", owner)).delivered);
  EXPECT_EQ(seen, 1);
}

}  // namespace
}  // namespace pti::reflect
