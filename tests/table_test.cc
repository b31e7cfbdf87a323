#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "table/column.h"
#include "table/csv.h"
#include "table/schema.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "table/value.h"

namespace mesa {
namespace {

// ----------------------------------------------------------------- Value

TEST(Value, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), DataType::kNull);
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(Value, TypedAccessors) {
  EXPECT_EQ(Value::Int(5).int_value(), 5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("x").string_value(), "x");
  EXPECT_TRUE(Value::Bool(true).bool_value());
}

TEST(Value, AsDoubleCoercions) {
  EXPECT_DOUBLE_EQ(Value::Int(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Value::Double(0.5).AsDouble(), 0.5);
}

TEST(Value, NumericCrossTypeEquality) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_NE(Value::Int(3), Value::Double(3.5));
  // Cross-type numeric equality must hash consistently.
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
}

TEST(Value, Ordering) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_LT(Value::Double(1.5), Value::Int(2));
  EXPECT_LT(Value::String("a"), Value::String("b"));
  EXPECT_FALSE(Value::String("b") < Value::String("a"));
}

TEST(Value, ToString) {
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::String("abc").ToString(), "abc");
  EXPECT_EQ(Value::Double(1.5).ToString(), "1.5");
}

TEST(Value, DataTypeNames) {
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "int64");
  EXPECT_STREQ(DataTypeName(DataType::kDouble), "double");
  EXPECT_STREQ(DataTypeName(DataType::kString), "string");
  EXPECT_STREQ(DataTypeName(DataType::kBool), "bool");
  EXPECT_TRUE(IsNumeric(DataType::kInt64));
  EXPECT_TRUE(IsNumeric(DataType::kDouble));
  EXPECT_FALSE(IsNumeric(DataType::kString));
}

// ---------------------------------------------------------------- Schema

TEST(Schema, AddAndLookup) {
  Schema s;
  ASSERT_TRUE(s.AddField({"a", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddField({"b", DataType::kString}).ok());
  EXPECT_EQ(s.num_fields(), 2u);
  EXPECT_EQ(s.IndexOf("b"), 1u);
  EXPECT_FALSE(s.IndexOf("c").has_value());
  EXPECT_TRUE(s.Contains("a"));
  EXPECT_EQ(s.field(*s.IndexOf("a")).type, DataType::kInt64);
}

TEST(Schema, RejectsDuplicates) {
  Schema s;
  ASSERT_TRUE(s.AddField({"a", DataType::kInt64}).ok());
  EXPECT_EQ(s.AddField({"a", DataType::kDouble}).code(),
            StatusCode::kAlreadyExists);
}

TEST(Schema, ToStringAndNames) {
  Schema s({{"x", DataType::kDouble}, {"y", DataType::kString}});
  EXPECT_EQ(s.ToString(), "x:double, y:string");
  EXPECT_EQ(s.names(), (std::vector<std::string>{"x", "y"}));
}

// ---------------------------------------------------------------- Column

TEST(Column, AppendAndRead) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.5);
  c.AppendNull();
  c.AppendDouble(-2.0);
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c.null_count(), 1u);
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_DOUBLE_EQ(c.DoubleAt(2), -2.0);
  EXPECT_TRUE(c.GetValue(1).is_null());
  EXPECT_DOUBLE_EQ(c.GetValue(0).double_value(), 1.5);
}

TEST(Column, NullFraction) {
  Column c(DataType::kInt64);
  EXPECT_DOUBLE_EQ(c.null_fraction(), 0.0);
  c.AppendInt(1);
  c.AppendNull();
  EXPECT_DOUBLE_EQ(c.null_fraction(), 0.5);
}

TEST(Column, AppendValueTypeChecks) {
  Column c(DataType::kInt64);
  EXPECT_TRUE(c.Append(Value::Int(1)).ok());
  EXPECT_TRUE(c.Append(Value::Null()).ok());
  EXPECT_FALSE(c.Append(Value::String("x")).ok());
  EXPECT_FALSE(c.Append(Value::Double(1.5)).ok());
  // Double columns accept ints.
  Column d(DataType::kDouble);
  EXPECT_TRUE(d.Append(Value::Int(3)).ok());
  EXPECT_DOUBLE_EQ(d.DoubleAt(0), 3.0);
}

TEST(Column, SetAndSetNull) {
  Column c = Column::FromInts({1, 2, 3});
  ASSERT_TRUE(c.Set(1, Value::Int(20)).ok());
  EXPECT_EQ(c.IntAt(1), 20);
  c.SetNull(0);
  EXPECT_EQ(c.null_count(), 1u);
  // Re-setting a null slot repairs the null count.
  ASSERT_TRUE(c.Set(0, Value::Int(5)).ok());
  EXPECT_EQ(c.null_count(), 0u);
  EXPECT_FALSE(c.Set(99, Value::Int(0)).ok());
}

TEST(Column, TakeGathersAndReorders) {
  Column c = Column::FromStrings({"a", "b", "c"});
  c.AppendNull();
  Column t = c.Take({3, 0, 0, 2});
  ASSERT_EQ(t.size(), 4u);
  EXPECT_TRUE(t.IsNull(0));
  EXPECT_EQ(t.StringAt(1), "a");
  EXPECT_EQ(t.StringAt(2), "a");
  EXPECT_EQ(t.StringAt(3), "c");
}

TEST(Column, FromFactories) {
  EXPECT_EQ(Column::FromDoubles({1, 2}).type(), DataType::kDouble);
  EXPECT_EQ(Column::FromBools({1, 0}).type(), DataType::kBool);
  EXPECT_EQ(Column::FromInts({1}).size(), 1u);
}

TEST(Column, NumericAt) {
  Column b = Column::FromBools({1, 0});
  EXPECT_DOUBLE_EQ(b.NumericAt(0), 1.0);
  EXPECT_DOUBLE_EQ(b.NumericAt(1), 0.0);
}

TEST(Column, TakeNullRowGathersANull) {
  Column d = Column::FromDoubles({1.5, -0.0});
  Column t = d.Take({1, Column::kNullRow, 0});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.null_count(), 1u);
  EXPECT_TRUE(t.IsNull(1));
  EXPECT_TRUE(std::signbit(t.DoubleAt(0)));
  EXPECT_EQ(t.DoubleAt(2), 1.5);
  // A string column without "" in its dictionary gains it for the null.
  Column s = Column::FromStrings({"a", "b"});
  Column u = s.Take({Column::kNullRow, 1});
  EXPECT_TRUE(u.IsNull(0));
  EXPECT_EQ(u.StringAt(0), "");
  EXPECT_EQ(u.StringAt(1), "b");
}

TEST(Column, InternKeepsOneDictionaryEntryPerString) {
  Column c(DataType::kString);
  for (size_t i = 0; i < 20000; ++i) {
    c.AppendString("v" + std::to_string(i * 7919 % 3001));
    if (i % 13 == 0) c.AppendNull();
  }
  ASSERT_TRUE(c.Set(5, Value::String("fresh")).ok());
  std::set<std::string> distinct;
  for (size_t r = 0; r < c.size(); ++r) {
    ASSERT_LT(c.code_data()[r], c.dictionary().size());
    if (c.IsValid(r)) distinct.insert(c.StringAt(r));
  }
  const std::set<std::string> entries(c.dictionary().begin(),
                                      c.dictionary().end());
  EXPECT_EQ(entries.size(), c.dictionary().size()) << "repeated entry";
  EXPECT_EQ(c.DistinctCountAtMost(SIZE_MAX), distinct.size());
  EXPECT_EQ(c.UsedCodes().size(), distinct.size());
}

TEST(Column, DistinctCountCountsValidValues) {
  Column s = Column::FromStrings({"a", "b", "a", "c", ""}, {1, 1, 1, 1, 0});
  EXPECT_EQ(s.DistinctCountAtMost(SIZE_MAX), 3u);
  // The count stops at the limit.
  EXPECT_EQ(s.DistinctCountAtMost(3), 3u);
  EXPECT_EQ(s.DistinctCountAtMost(2), 2u);
  EXPECT_EQ(s.DistinctCountAtMost(1), 1u);
  EXPECT_EQ(s.DistinctCountAtMost(0), 0u);
  // "b" stays in the dictionary but no row uses it any more.
  ASSERT_TRUE(s.Set(1, Value::String("a")).ok());
  EXPECT_EQ(s.DistinctCountAtMost(SIZE_MAX), 2u);
  EXPECT_EQ(s.dictionary().size(), 4u);
  // Non-string columns count distinct Values: -0.0 equals 0.0.
  const Column d = Column::FromDoubles({0.0, -0.0, 1.0, 0.0, 2.0});
  EXPECT_EQ(d.DistinctCountAtMost(SIZE_MAX), 3u);
  EXPECT_EQ(d.DistinctCountAtMost(2), 2u);
  EXPECT_EQ(Column::FromDoubles({0.0, -0.0}).DistinctCountAtMost(2), 1u);
  EXPECT_EQ(Column::FromInts({1, 1, 2}, {1, 1, 0}).DistinctCountAtMost(5),
            1u);
  EXPECT_EQ(Column::FromInts({3, 1, 2, 1}).DistinctCountAtMost(2), 2u);
  EXPECT_EQ(Column::FromBools({1, 0, 1}).DistinctCountAtMost(5), 2u);
  EXPECT_EQ(Column(DataType::kString).DistinctCountAtMost(5), 0u);
}

TEST(Column, NanDoubleIsStoredAsNull) {
  const double nan = std::nan("");
  // Factory: the NaN slot is null with the default payload, like a column
  // built by appends.
  Column c = Column::FromDoubles({1.5, nan, 2.5}, {1, 1, 0});
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_TRUE(c.IsNull(1));
  EXPECT_EQ(c.null_count(), 2u);
  Column appended(DataType::kDouble);
  appended.AppendDouble(1.5);
  appended.AppendDouble(nan);
  ASSERT_TRUE(appended.Append(Value::Double(nan)).ok());
  EXPECT_TRUE(appended.IsNull(1));
  EXPECT_TRUE(appended.IsNull(2));
  EXPECT_EQ(appended.null_count(), 2u);
  EXPECT_EQ(Column::FromDoubles({1.5, nan, 0.0}, {1, 0, 0})
                .ContentFingerprint(),
            appended.ContentFingerprint());
  // Set: a NaN nulls the slot.
  ASSERT_TRUE(c.Set(0, Value::Double(nan)).ok());
  EXPECT_TRUE(c.IsNull(0));
  EXPECT_EQ(c.null_count(), 3u);
  ASSERT_TRUE(c.Set(2, Value::Double(nan)).ok());
  EXPECT_EQ(c.null_count(), 3u);
}

// ----------------------------------------------------- string layout

// The definition ContentFingerprint must equal for a string column: the
// type, length and validity run, then every row's string hashed in row
// order (dead payloads under nulls included).
uint64_t NaiveStringFingerprint(const Column& c) {
  uint64_t h = MixSeed(static_cast<uint64_t>(c.type()), c.size());
  h = MixSeed(h, StableHash64Bytes(c.validity_data(), c.size()));
  for (size_t r = 0; r < c.size(); ++r) {
    const std::string& s = c.StringAt(r);
    h = MixSeed(h, StableHash64Bytes(s.data(), s.size()));
  }
  return h;
}

std::string SnapshotBytes(const Column& column) {
  auto table = Table::Make(Schema({{"s", column.type()}}), {column});
  EXPECT_TRUE(table.ok());
  snapshot::SnapshotWriter writer;
  writer.SetTable(&*table);
  auto bytes = writer.Serialize();
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return *bytes;
}

// Round-trips `column` through a snapshot image; the result borrows its
// code run from the image.
Column ViaSnapshot(const Column& column) {
  const std::string bytes = SnapshotBytes(column);
  // The reader needs an 8-aligned base.
  auto words = std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) / 8);
  std::memcpy(words->data(), bytes.data(), bytes.size());
  auto reader = snapshot::SnapshotReader::FromBuffer(
      reinterpret_cast<const uint8_t*>(words->data()), bytes.size(), words);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  auto table = reader->ReadTable();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table->column(0);
}

Column AppendedStrings() {
  Column c(DataType::kString);
  for (const char* s : {"x", "", "y", "x", "\xc3\xa9t\xc3\xa9", "y"}) {
    c.AppendString(s);
  }
  c.AppendNull();
  c.AppendString("z");
  return c;
}

TEST(Column, StringFingerprintMatchesPerRowHashing) {
  std::vector<std::pair<std::string, Column>> cases;
  const Column appended = AppendedStrings();
  cases.emplace_back("appended", appended);
  cases.emplace_back(
      "factory", Column::FromStrings({"b", "", "a", "b", ""}, {1, 1, 1, 1, 0}));
  auto csv = ReadCsvString("n,s\n1,b\n2,\n3,\"a,b\"\n4,b\n5,NA\n");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  ASSERT_EQ(csv->column(1).type(), DataType::kString);
  cases.emplace_back("csv", csv->column(1));
  const Column borrowed = ViaSnapshot(appended);
  ASSERT_TRUE(borrowed.is_borrowed());
  cases.emplace_back("borrowed", borrowed);
  cases.emplace_back("take", appended.Take({7, Column::kNullRow, 6, 0, 1, 0}));
  cases.emplace_back("borrowed take", borrowed.Take({3, Column::kNullRow, 2}));
  Column mutated = appended;
  ASSERT_TRUE(mutated.Set(0, Value::String("new")).ok());
  ASSERT_TRUE(mutated.Set(6, Value::String("y")).ok());  // was null
  mutated.SetNull(2);  // keeps "y" as its dead payload
  cases.emplace_back("set", mutated);
  Column borrowed_mutated = borrowed;
  borrowed_mutated.SetNull(4);
  EXPECT_FALSE(borrowed_mutated.is_borrowed());
  cases.emplace_back("borrowed set", borrowed_mutated);
  for (const auto& [what, column] : cases) {
    EXPECT_EQ(column.ContentFingerprint(), NaiveStringFingerprint(column))
        << what;
  }
  // Storage mode and dictionary order do not enter the fingerprint.
  EXPECT_EQ(borrowed.ContentFingerprint(), appended.ContentFingerprint());
  EXPECT_EQ(mutated.StringAt(2), "y");
}

TEST(Column, EqualContentWritesEqualSnapshotBytes) {
  const Column fresh =
      Column::FromStrings({"b", "a", "", "c", ""}, {1, 1, 0, 1, 1});
  const std::string want = SnapshotBytes(fresh);

  // Take from a column whose dictionary holds an unused entry and lacks
  // "" until the gathered null needs it.
  const Column source = Column::FromStrings({"zz", "c", "b", "a", ""});
  EXPECT_EQ(SnapshotBytes(source.Take({2, 3, Column::kNullRow, 1, 4})), want);

  // Set leaves the replaced string unused in the dictionary; SetNull keeps
  // the row's old code as its dead payload.
  Column set = Column::FromStrings({"q", "a", "r", "c", "s"});
  ASSERT_TRUE(set.Set(0, Value::String("b")).ok());
  set.SetNull(2);
  ASSERT_TRUE(set.Set(4, Value::String("")).ok());
  EXPECT_EQ(SnapshotBytes(set), want);

  // A borrowed column mutated in place writes the same bytes too.
  Column borrowed = ViaSnapshot(Column::FromStrings({"b", "a", "x", "c", ""}));
  ASSERT_TRUE(borrowed.is_borrowed());
  borrowed.SetNull(2);
  EXPECT_EQ(SnapshotBytes(borrowed), want);
}

// ----------------------------------------------------------------- Table

Table SmallTable() {
  Schema schema({{"id", DataType::kInt64},
                 {"name", DataType::kString},
                 {"score", DataType::kDouble}});
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1, 2, 3}));
  cols.push_back(Column::FromStrings({"a", "b", "c"}));
  cols.push_back(Column::FromDoubles({0.5, 1.5, 2.5}));
  return *Table::Make(std::move(schema), std::move(cols));
}

TEST(Table, MakeValidatesLengths) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1, 2}));
  cols.push_back(Column::FromInts({1}));
  EXPECT_FALSE(Table::Make(std::move(schema), std::move(cols)).ok());
}

TEST(Table, MakeValidatesTypes) {
  Schema schema({{"a", DataType::kDouble}});
  std::vector<Column> cols;
  cols.push_back(Column::FromInts({1}));
  EXPECT_FALSE(Table::Make(std::move(schema), std::move(cols)).ok());
}

TEST(Table, BasicAccess) {
  Table t = SmallTable();
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ((*t.ColumnByName("name"))->StringAt(1), "b");
  EXPECT_FALSE(t.ColumnByName("nope").ok());
  EXPECT_EQ(t.GetCell(2, "id")->int_value(), 3);
  EXPECT_FALSE(t.GetCell(9, "id").ok());
}

TEST(Table, AddColumn) {
  Table t = SmallTable();
  ASSERT_TRUE(
      t.AddColumn({"flag", DataType::kBool}, Column::FromBools({1, 0, 1}))
          .ok());
  EXPECT_EQ(t.num_columns(), 4u);
  // Duplicate name rejected.
  EXPECT_FALSE(
      t.AddColumn({"flag", DataType::kBool}, Column::FromBools({1, 0, 1}))
          .ok());
  // Wrong length rejected.
  EXPECT_FALSE(
      t.AddColumn({"bad", DataType::kBool}, Column::FromBools({1})).ok());
  EXPECT_EQ(t.GetCell(0, "flag")->bool_value(), true);
}

TEST(Table, SelectProjects) {
  Table t = SmallTable();
  auto s = t.Select({"score", "id"});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->num_columns(), 2u);
  EXPECT_EQ(s->schema().field(0).name, "score");
  EXPECT_FALSE(t.Select({"ghost"}).ok());
}

TEST(Table, TakeRows) {
  Table t = SmallTable();
  Table taken = t.TakeRows({2, 0});
  EXPECT_EQ(taken.num_rows(), 2u);
  EXPECT_EQ(taken.GetCell(0, "name")->string_value(), "c");
}

TEST(Table, ToStringTruncates) {
  Table t = SmallTable();
  std::string s = t.ToString(1);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

// ---------------------------------------------------------- TableBuilder

TEST(TableBuilder, BuildsRows) {
  TableBuilder b(Schema({{"x", DataType::kInt64}, {"y", DataType::kString}}));
  ASSERT_TRUE(b.AppendRow({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(b.AppendRow({Value::Null(), Value::String("b")}).ok());
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_TRUE(t->column(0).IsNull(1));
}

TEST(TableBuilder, RejectsArityMismatch) {
  TableBuilder b(Schema({{"x", DataType::kInt64}}));
  EXPECT_FALSE(b.AppendRow({}).ok());
  EXPECT_FALSE(b.AppendRow({Value::Int(1), Value::Int(2)}).ok());
}

TEST(TableBuilder, RejectsTypeMismatchWithoutPartialWrite) {
  TableBuilder b(Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}}));
  // Second cell bad: the row must not be half-applied.
  EXPECT_FALSE(b.AppendRow({Value::Int(1), Value::String("bad")}).ok());
  EXPECT_EQ(b.num_rows(), 0u);
  ASSERT_TRUE(b.AppendRow({Value::Int(1), Value::Int(2)}).ok());
  auto t = b.Finish();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 1u);
  EXPECT_EQ(t->column(0).size(), 1u);
}

}  // namespace
}  // namespace mesa
