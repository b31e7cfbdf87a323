#include <gtest/gtest.h>

#include "query/aggregate.h"
#include "query/group_by.h"
#include "query/join.h"
#include "query/predicate.h"
#include "query/query_spec.h"
#include "table/csv.h"

namespace mesa {
namespace {

Table People() {
  return *ReadCsvString(
      "name,country,age,salary\n"
      "ann,DE,30,100\n"
      "bob,DE,40,120\n"
      "cat,FR,35,90\n"
      "dan,FR,25,\n"
      "eve,US,50,200\n"
      "fox,,45,150\n");
}

// ------------------------------------------------------------- Condition

// One condition against one row: the row's entry of the condition's mask.
Result<bool> EvalCondition(const Condition& cond, const Table& table,
                           size_t row) {
  MESA_ASSIGN_OR_RETURN(std::vector<uint8_t> mask,
                        Conjunction({cond}).EvaluateMask(table));
  return mask.at(row) != 0;
}

TEST(Condition, EqOnString) {
  Table t = People();
  Condition c{"country", CompareOp::kEq, Value::String("DE"), {}};
  EXPECT_TRUE(*EvalCondition(c, t, 0));
  EXPECT_FALSE(*EvalCondition(c, t, 2));
}

TEST(Condition, NullCellNeverMatches) {
  Table t = People();
  Condition eq{"country", CompareOp::kEq, Value::String("DE"), {}};
  EXPECT_FALSE(*EvalCondition(eq, t, 5));
  Condition ne{"country", CompareOp::kNe, Value::String("DE"), {}};
  EXPECT_FALSE(*EvalCondition(ne, t, 5));  // SQL three-valued logic
}

TEST(Condition, NumericComparisons) {
  Table t = People();
  Condition ge{"age", CompareOp::kGe, Value::Int(40), {}};
  EXPECT_FALSE(*EvalCondition(ge, t, 0));
  EXPECT_TRUE(*EvalCondition(ge, t, 1));
  Condition lt{"age", CompareOp::kLt, Value::Double(30.5), {}};
  EXPECT_TRUE(*EvalCondition(lt, t, 0));
  EXPECT_FALSE(*EvalCondition(lt, t, 2));
}

TEST(Condition, InOperator) {
  Table t = People();
  Condition in{"country",
               CompareOp::kIn,
               Value::Null(),
               {Value::String("FR"), Value::String("US")}};
  EXPECT_FALSE(*EvalCondition(in, t, 0));
  EXPECT_TRUE(*EvalCondition(in, t, 2));
  EXPECT_TRUE(*EvalCondition(in, t, 4));
}

TEST(Condition, TypeMismatchIsError) {
  Table t = People();
  Condition c{"country", CompareOp::kLt, Value::Int(3), {}};
  EXPECT_FALSE(EvalCondition(c, t, 0).ok());
}

TEST(Condition, MissingColumnIsError) {
  Table t = People();
  Condition c{"ghost", CompareOp::kEq, Value::Int(3), {}};
  EXPECT_FALSE(EvalCondition(c, t, 0).ok());
}

TEST(Condition, ToStringRendering) {
  Condition c{"country", CompareOp::kEq, Value::String("DE"), {}};
  EXPECT_EQ(c.ToString(), "country = 'DE'");
  Condition in{"x", CompareOp::kIn, Value::Null(),
               {Value::Int(1), Value::Int(2)}};
  EXPECT_EQ(in.ToString(), "x IN (1, 2)");
}

// ----------------------------------------------------------- Conjunction

TEST(Conjunction, EmptyAcceptsAll) {
  Table t = People();
  Conjunction c;
  auto mask = c.EvaluateMask(t);
  ASSERT_TRUE(mask.ok());
  for (uint8_t m : *mask) EXPECT_EQ(m, 1);
  EXPECT_EQ(c.ToString(), "TRUE");
}

TEST(Conjunction, AndSemantics) {
  Table t = People();
  Conjunction c;
  c.Add({"country", CompareOp::kEq, Value::String("DE"), {}});
  c.Add({"age", CompareOp::kGt, Value::Int(35), {}});
  auto rows = c.MatchingRows(t);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], 1u);
}

TEST(Conjunction, Contains) {
  Conjunction base;
  base.Add({"a", CompareOp::kEq, Value::Int(1), {}});
  Conjunction refined = base;
  refined.Add({"b", CompareOp::kEq, Value::Int(2), {}});
  EXPECT_EQ(refined.size(), 2u);
  EXPECT_TRUE(refined.Contains(base));
  EXPECT_FALSE(base.Contains(refined));
}

// -------------------------------------------------------------- Aggregate

TEST(Aggregate, BasicFunctions) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kAvg, v), 2.5);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kSum, v), 10.0);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kCount, v), 4.0);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kMin, v), 1.0);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kMax, v), 4.0);
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kMedian, v), 2.5);
}

TEST(Aggregate, MedianOddCount) {
  EXPECT_DOUBLE_EQ(
      *ComputeAggregate(AggregateFunction::kMedian, {5, 1, 3}), 3.0);
}

TEST(Aggregate, StdDev) {
  double sd = *ComputeAggregate(AggregateFunction::kStdDev, {2, 4, 4, 4, 5, 5, 7, 9});
  EXPECT_NEAR(sd, 2.0, 1e-9);
}

TEST(Aggregate, EmptyInput) {
  EXPECT_DOUBLE_EQ(*ComputeAggregate(AggregateFunction::kCount, {}), 0.0);
  EXPECT_FALSE(ComputeAggregate(AggregateFunction::kAvg, {}).ok());
}

TEST(Aggregate, ParseNames) {
  EXPECT_EQ(*ParseAggregateFunction("AVG"), AggregateFunction::kAvg);
  EXPECT_EQ(*ParseAggregateFunction("mean"), AggregateFunction::kAvg);
  EXPECT_EQ(*ParseAggregateFunction("median"), AggregateFunction::kMedian);
  EXPECT_EQ(*ParseAggregateFunction("stddev"), AggregateFunction::kStdDev);
  EXPECT_FALSE(ParseAggregateFunction("wat").ok());
}

// ----------------------------------------------------------- EncodeGroups

TEST(EncodeGroups, DenseCodesWithNulls) {
  Table t = People();
  std::vector<Value> values;
  auto codes = EncodeGroups(t, "country", &values);
  ASSERT_TRUE(codes.ok());
  EXPECT_EQ(values.size(), 3u);
  EXPECT_EQ((*codes)[0], (*codes)[1]);  // both DE
  EXPECT_NE((*codes)[0], (*codes)[2]);
  EXPECT_EQ((*codes)[5], -1);  // null country
}

// ------------------------------------------------------------------- Join

TEST(HashJoin, LeftJoinKeepsUnmatched) {
  Table left = People();
  Table right = *ReadCsvString("code,gdp\nDE,3.8\nFR,2.6\n");
  auto j = HashJoin(left, "country", right, "code");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 6u);
  EXPECT_DOUBLE_EQ(j->GetCell(0, "gdp")->double_value(), 3.8);
  EXPECT_TRUE(j->GetCell(4, "gdp")->is_null());  // US unmatched
  EXPECT_TRUE(j->GetCell(5, "gdp")->is_null());  // null key
}

TEST(HashJoin, InnerJoinDropsUnmatched) {
  Table left = People();
  Table right = *ReadCsvString("code,gdp\nDE,3.8\n");
  JoinOptions opts;
  opts.type = JoinType::kInner;
  auto j = HashJoin(left, "country", right, "code", opts);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 2u);
}

TEST(HashJoin, CollisionPrefix) {
  Table left = People();
  Table right = *ReadCsvString("code,age\nDE,99\n");
  auto j = HashJoin(left, "country", right, "code");
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->schema().Contains("right_age"));
  EXPECT_EQ(j->GetCell(0, "right_age")->int_value(), 99);
  // Original column untouched.
  EXPECT_EQ(j->GetCell(0, "age")->int_value(), 30);
}

TEST(HashJoin, DuplicateRightKeysFirstWins) {
  Table left = *ReadCsvString("k\na\n");
  Table right = *ReadCsvString("k,v\na,1\na,2\n");
  auto j = HashJoin(left, "k", right, "k");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 1u);
  EXPECT_EQ(j->GetCell(0, "v")->int_value(), 1);
}

// -------------------------------------------------------------- QuerySpec

TEST(QuerySpec, ValidateAcceptsWellFormedSpec) {
  Table t = People();
  QuerySpec q;
  q.exposure = "country";
  q.outcome = "salary";
  ASSERT_TRUE(q.Validate(t).ok());
}

TEST(QuerySpec, ValidationFailures) {
  Table t = People();
  QuerySpec q;
  q.exposure = "country";
  q.outcome = "country";
  EXPECT_FALSE(q.Validate(t).ok());  // same column
  q.outcome = "name";
  EXPECT_FALSE(q.Validate(t).ok());  // string outcome
  q.outcome = "salary";
  q.exposure = "ghost";
  EXPECT_FALSE(q.Validate(t).ok());  // missing exposure
  q.exposure = "country";
  q.context.Add({"ghost", CompareOp::kEq, Value::Int(1), {}});
  EXPECT_FALSE(q.Validate(t).ok());  // missing context column
}

TEST(QuerySpec, ToSql) {
  QuerySpec q;
  q.exposure = "Country";
  q.outcome = "Salary";
  q.table_name = "SO";
  q.context.Add({"Continent", CompareOp::kEq, Value::String("Europe"), {}});
  EXPECT_EQ(q.ToSql(),
            "SELECT Country, avg(Salary) FROM SO WHERE Continent = 'Europe' "
            "GROUP BY Country");
}

}  // namespace
}  // namespace mesa
