#include <gtest/gtest.h>

#include <cstdio>

#include "common/logging.h"
#include "datagen/registry.h"
#include "kg/serialization.h"

namespace mesa {
namespace {

TripleStore SampleKg() {
  TripleStore kg;
  EntityId de = *kg.AddEntity("Germany", "Country");
  EntityId fr = *kg.AddEntity("France", "Country");
  EntityId leader = *kg.AddEntity("Leader of Germany", "Person");
  MESA_CHECK(kg.AddAlias(de, "Deutschland").ok());
  MESA_CHECK(kg.AddAlias(de, "BRD").ok());
  MESA_CHECK(kg.AddLiteral(de, "hdi", Value::Double(0.94)).ok());
  MESA_CHECK(kg.AddLiteral(de, "population", Value::Int(83000000)).ok());
  MESA_CHECK(kg.AddLiteral(de, "eu_member", Value::Bool(true)).ok());
  MESA_CHECK(
      kg.AddLiteral(de, "capital city", Value::String("Berlin Mitte")).ok());
  MESA_CHECK(kg.AddLiteral(fr, "hdi", Value::Double(0.90)).ok());
  MESA_CHECK(kg.AddEdge(de, "leader", leader).ok());
  MESA_CHECK(kg.AddLiteral(leader, "age", Value::Double(65)).ok());
  return kg;
}

TEST(KgSerialization, RoundTripPreservesEverything) {
  TripleStore kg = SampleKg();
  std::string text = WriteKgString(kg);
  auto loaded = ReadKgString(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_entities(), kg.num_entities());
  EXPECT_EQ(loaded->num_triples(), kg.num_triples());

  // Entities keep ids, labels, types.
  for (EntityId id = 0; id < kg.num_entities(); ++id) {
    EXPECT_EQ(loaded->entity(id).label, kg.entity(id).label);
    EXPECT_EQ(loaded->entity(id).type, kg.entity(id).type);
  }
  // Aliases survive.
  auto de = loaded->FindByLabel("Germany");
  ASSERT_TRUE(de.has_value());
  EXPECT_EQ(loaded->AliasesOf(*de).size(), 2u);
  EXPECT_EQ(loaded->FindByAlias("Deutschland").size(), 1u);
  // Literal types survive, including strings with spaces.
  bool saw_string = false, saw_int = false, saw_bool = false,
       saw_edge = false;
  for (const Triple* t : loaded->PropertiesOf(*de)) {
    const std::string& pred = loaded->predicate_name(t->predicate);
    if (pred == "capital city") {
      saw_string = true;
      EXPECT_EQ(t->object.literal.string_value(), "Berlin Mitte");
    }
    if (pred == "population") {
      saw_int = true;
      EXPECT_TRUE(t->object.literal.is_int());
    }
    if (pred == "eu_member") {
      saw_bool = true;
      EXPECT_TRUE(t->object.literal.bool_value());
    }
    if (pred == "leader") {
      saw_edge = true;
      EXPECT_TRUE(t->object.is_entity());
      EXPECT_EQ(loaded->entity(t->object.entity).label, "Leader of Germany");
    }
  }
  EXPECT_TRUE(saw_string && saw_int && saw_bool && saw_edge);
}

TEST(KgSerialization, DoubleRoundTripIsExact) {
  TripleStore kg = SampleKg();
  std::string once = WriteKgString(kg);
  auto loaded = ReadKgString(once);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(WriteKgString(*loaded), once);
}

TEST(KgSerialization, GeneratedWorldRoundTrips) {
  GenOptions gen;
  gen.rows = 100;
  auto ds = MakeDataset(DatasetKind::kStackOverflow, gen);
  ASSERT_TRUE(ds.ok());
  std::string text = WriteKgString(*ds->kg);
  auto loaded = ReadKgString(text);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_entities(), ds->kg->num_entities());
  EXPECT_EQ(loaded->num_triples(), ds->kg->num_triples());
  EXPECT_EQ(loaded->num_predicates(), ds->kg->num_predicates());
}

TEST(KgSerialization, FileRoundTrip) {
  TripleStore kg = SampleKg();
  std::string path = testing::TempDir() + "/mesa_kg_test.kg";
  ASSERT_TRUE(WriteKgFile(kg, path).ok());
  auto loaded = ReadKgFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_triples(), kg.num_triples());
  std::remove(path.c_str());
  EXPECT_FALSE(ReadKgFile("/nonexistent/x.kg").ok());
}

TEST(KgSerialization, CommentsAndBlankLinesIgnored) {
  auto kg = ReadKgString("# a comment\n\nE 0 T\tLabel\n# another\n");
  ASSERT_TRUE(kg.ok());
  EXPECT_EQ(kg->num_entities(), 1u);
}

TEST(KgSerialization, RejectsMalformedInput) {
  EXPECT_FALSE(ReadKgString("E zero T\tLabel\n").ok());      // bad id
  EXPECT_FALSE(ReadKgString("E 1 T\tLabel\n").ok());         // non-dense id
  EXPECT_FALSE(ReadKgString("E 0 T Label\n").ok());          // missing tab
  EXPECT_FALSE(ReadKgString("X 0 T\tLabel\n").ok());         // unknown kind
  EXPECT_FALSE(
      ReadKgString("E 0 T\tL\nL 0\tp\tq:1\n").ok());  // bad literal tag
  EXPECT_FALSE(ReadKgString("E 0 T\tL\nG 0\tp\t7\n").ok());  // bad object
  EXPECT_FALSE(ReadKgString("A 0\talias\n").ok());           // alias w/o entity
  // A record line of one character has no body.
  for (const char* line : {"E", "X", "L"}) {
    EXPECT_FALSE(ReadKgString(line).ok()) << line;
    auto one = ReadKgString(std::string("E 0 T\tL\n") + line + "\n");
    ASSERT_FALSE(one.ok()) << line;
    EXPECT_EQ(one.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_NE(one.status().message().find("line 2"), std::string::npos);
  }
  // Errors carry line numbers.
  auto r = ReadKgString("E 0 T\tL\nX 0\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("line 2"), std::string::npos);
}

}  // namespace
}  // namespace mesa
