#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "core/mcimr.h"
#include "core/pruning.h"
#include "core/responsibility.h"
#include "table/table_builder.h"

namespace mesa {
namespace {

// A compact confounded world: 40 groups; two independent per-group latents
// (u, v) drive the outcome. Attributes:
//   conf_u      — the first true confounder,
//   conf_u_twin — a redundant copy of conf_u (plus small noise),
//   conf_v      — the second true confounder,
//   group_code  — a bijection of the group (Lemma A.2 trap),
//   noise       — a per-group random attribute, irrelevant by construction,
//   indiv       — a row-level attribute that affects O but not the groups,
//   constant    — a constant column,
//   sparse      — conf_u with 95% of values missing.
struct World {
  Table table;
  QuerySpec query;
};

World MakeWorld(size_t rows = 12000, uint64_t seed = 77) {
  Rng rng(seed);
  const size_t kGroups = 100;
  std::vector<double> u(kGroups), v(kGroups), noise(kGroups);
  for (size_t g = 0; g < kGroups; ++g) {
    u[g] = rng.NextGaussian();
    v[g] = rng.NextGaussian();
    noise[g] = rng.NextGaussian();
  }
  TableBuilder b(Schema({{"group", DataType::kString},
                         {"outcome", DataType::kDouble},
                         {"conf_u", DataType::kDouble},
                         {"conf_u_twin", DataType::kDouble},
                         {"conf_v", DataType::kDouble},
                         {"group_code", DataType::kString},
                         {"noise", DataType::kDouble},
                         {"indiv", DataType::kDouble},
                         {"constant", DataType::kString},
                         {"sparse", DataType::kDouble}}));
  for (size_t i = 0; i < rows; ++i) {
    size_t g = rng.NextBelow(kGroups);
    double indiv = rng.NextGaussian();
    double outcome = 3.0 * u[g] + 2.0 * v[g] + 1.0 * indiv +
                     rng.NextGaussian(0, 0.4);
    MESA_CHECK(b.AppendRow({Value::String("g" + std::to_string(g)),
                            Value::Double(outcome), Value::Double(u[g]),
                            Value::Double(u[g] + 0.01 * noise[g]),
                            Value::Double(v[g]),
                            Value::String("code" + std::to_string(g)),
                            Value::Double(noise[g]), Value::Double(indiv),
                            Value::String("same"),
                            rng.NextBernoulli(0.95) ? Value::Null()
                                                    : Value::Double(u[g])})
                   .ok());
  }
  World w;
  w.table = *b.Finish();
  w.query.exposure = "group";
  w.query.outcome = "outcome";
  return w;
}

std::vector<std::string> AllCandidates() {
  return {"conf_u", "conf_u_twin", "conf_v",  "group_code",
          "noise",  "indiv",       "constant", "sparse"};
}

// Index of the prepared candidate named `name`, or -1.
int FindAttribute(const QueryAnalysis& qa, const std::string& name) {
  for (size_t i = 0; i < qa.attributes().size(); ++i) {
    if (qa.attributes()[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

// ---------------------------------------------------------- QueryAnalysis

TEST(QueryAnalysis, PrepareBasics) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  EXPECT_EQ(qa->num_rows(), w.table.num_rows());
  EXPECT_GT(qa->BaseCmi(), 0.5);
  EXPECT_GE(FindAttribute(*qa, "conf_u"), 0);
  EXPECT_EQ(FindAttribute(*qa, "nope"), -1);
  // Exposure / outcome never become candidates even if listed.
  auto qa2 = QueryAnalysis::Prepare(w.table, w.query,
                                    {"outcome", "group", "conf_u"});
  ASSERT_TRUE(qa2.ok());
  EXPECT_EQ(qa2->attributes().size(), 1u);
}

TEST(QueryAnalysis, ContextFiltersRows) {
  World w = MakeWorld();
  w.query.context.Add(
      {"group", CompareOp::kIn, Value::Null(),
       {Value::String("g0"), Value::String("g1"), Value::String("g2")}});
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  EXPECT_LT(qa->num_rows(), w.table.num_rows() / 4);
  EXPECT_EQ(qa->exposure().cardinality, 3);
}

TEST(QueryAnalysis, NoContextBorrowsInputTableAcrossMoves) {
  World w = MakeWorld(3000);
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  auto fresh = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(&qa->context_table(), &w.table);
  const size_t u = static_cast<size_t>(FindAttribute(*qa, "conf_u"));
  const size_t v = static_cast<size_t>(FindAttribute(*qa, "conf_v"));

  QueryAnalysis moved = std::move(*qa);
  EXPECT_EQ(&moved.context_table(), &w.table);
  const Column* col = *moved.context_table().ColumnByName("conf_u");
  EXPECT_EQ(col->ContentFingerprint(),
            (*w.table.ColumnByName("conf_u"))->ContentFingerprint());
  EXPECT_EQ(moved.CmiGivenSet({u, v}), fresh->CmiGivenSet({u, v}));
  EXPECT_EQ(moved.IdentificationFraction({u, v}),
            fresh->IdentificationFraction({u, v}));

  // A restricting context is gathered into the analysis's own table, which
  // stays put (and readable) when the analysis moves.
  QuerySpec restricted = w.query;
  restricted.context.Add({"group", CompareOp::kIn, Value::Null(),
                          {Value::String("g0"), Value::String("g1")}});
  auto sub = QueryAnalysis::Prepare(w.table, restricted, AllCandidates());
  ASSERT_TRUE(sub.ok());
  const Table* owned = &sub->context_table();
  EXPECT_NE(owned, &w.table);
  QueryAnalysis sub_moved = std::move(*sub);
  EXPECT_EQ(&sub_moved.context_table(), owned);
  EXPECT_EQ(sub_moved.context_table().num_rows(), sub_moved.num_rows());
  EXPECT_TRUE(sub_moved.context_table().ColumnByName("conf_u").ok());
}

TEST(QueryAnalysis, EmptyContextMatchIsError) {
  World w = MakeWorld();
  w.query.context.Add(
      {"group", CompareOp::kEq, Value::String("no_such_group"), {}});
  EXPECT_FALSE(
      QueryAnalysis::Prepare(w.table, w.query, AllCandidates()).ok());
}

TEST(QueryAnalysis, ConfounderReducesCmiNoiseDoesNot) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  double base = qa->BaseCmi();
  double with_u = qa->CmiGivenAttribute(FindAttribute(*qa, "conf_u"));
  double with_noise = qa->CmiGivenAttribute(FindAttribute(*qa, "noise"));
  EXPECT_LT(with_u, base);
  EXPECT_LT(with_u, with_noise);
}

TEST(QueryAnalysis, JointSetBeatsSingles) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  size_t u = FindAttribute(*qa, "conf_u");
  size_t v = FindAttribute(*qa, "conf_v");
  double joint = qa->CmiGivenSet({u, v});
  EXPECT_LT(joint, qa->CmiGivenAttribute(u));
  EXPECT_LT(joint, qa->CmiGivenAttribute(v));
}

TEST(QueryAnalysis, CmiGivenSetEmptyIsBase) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  EXPECT_DOUBLE_EQ(qa->CmiGivenSet({}), qa->BaseCmi());
}

TEST(QueryAnalysis, PairwiseMiSymmetricAndCached) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  size_t u = FindAttribute(*qa, "conf_u");
  size_t t = FindAttribute(*qa, "conf_u_twin");
  size_t n = FindAttribute(*qa, "noise");
  double mi_ut = qa->PairwiseMi(u, t);
  EXPECT_DOUBLE_EQ(mi_ut, qa->PairwiseMi(t, u));
  // Twin is far more redundant with conf_u than noise is.
  EXPECT_GT(mi_ut, qa->PairwiseMi(u, n));
  size_t evals = qa->estimator_evaluations();
  qa->PairwiseMi(u, t);
  EXPECT_EQ(qa->estimator_evaluations(), evals);  // cache hit
}

TEST(QueryAnalysis, NormalizedRedundancyInUnitRange) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  size_t u = FindAttribute(*qa, "conf_u");
  size_t t = FindAttribute(*qa, "conf_u_twin");
  double r = qa->NormalizedRedundancy(u, t);
  EXPECT_GT(r, 0.7);   // near-duplicates
  EXPECT_LE(r, 1.05);  // small estimator slack
}

TEST(QueryAnalysis, IdentificationFraction) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  size_t code = FindAttribute(*qa, "group_code");
  // A bijection of the exposure identifies everything.
  EXPECT_GT(qa->IdentificationFraction({code}), 0.95);
  // A single binned confounder does not.
  size_t u = FindAttribute(*qa, "conf_u");
  EXPECT_LT(qa->IdentificationFraction({u}), 0.5);
  EXPECT_DOUBLE_EQ(qa->IdentificationFraction({}), 0.0);
}

TEST(QueryAnalysis, SparseAttributeGetsMissingFraction) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  const auto& attr =
      qa->attributes()[static_cast<size_t>(FindAttribute(*qa, "sparse"))];
  EXPECT_GT(attr.missing_fraction, 0.85);
}

// ----------------------------------------------------------- OfflinePrune

TEST(OfflinePrune, DropsConstantAndSparse) {
  World w = MakeWorld();
  auto r = OfflinePrune(w.table, AllCandidates());
  ASSERT_TRUE(r.ok());
  auto pruned_reason = [&](const std::string& name) -> const char* {
    for (const auto& p : r->pruned) {
      if (p.name == name) return PruneReasonName(p.reason);
    }
    return "";
  };
  EXPECT_STREQ(pruned_reason("constant"), "constant");
  EXPECT_STREQ(pruned_reason("sparse"), "too_many_missing");
  EXPECT_STREQ(pruned_reason("conf_u"), "");  // kept
  // group_code: 40 distinct strings over 6000 rows — not high-entropy at
  // row level (it is per-entity identification, caught online instead).
  EXPECT_STREQ(pruned_reason("group_code"), "");
}

TEST(OfflinePrune, HighEntropyStringIds) {
  // A unique string per row is an identifier.
  Rng rng(3);
  TableBuilder b(Schema({{"id", DataType::kString}, {"x", DataType::kDouble}}));
  for (int i = 0; i < 200; ++i) {
    MESA_CHECK(b.AppendRow({Value::String("row" + std::to_string(i)),
                            Value::Double(rng.NextGaussian())})
                   .ok());
  }
  Table t = *b.Finish();
  auto r = OfflinePrune(t, {"id", "x"});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->pruned.size(), 1u);
  EXPECT_EQ(r->pruned[0].name, "id");
  EXPECT_EQ(r->pruned[0].reason, PruneReason::kHighEntropy);
  // Continuous unique values are exempt.
  EXPECT_EQ(r->kept, std::vector<std::string>{"x"});
}

TEST(OfflinePrune, VerdictMatchesExactDistinctCountOracle) {
  // 120 rows, every 7th null: 102 present. Column "<type>_<d>" holds d
  // distinct values, on both sides of each threshold the options below
  // put at 2 (constant), high_entropy_min_distinct and
  // max_distinct_fraction * present.
  const size_t kRows = 120;
  std::vector<uint8_t> valid(kRows);
  for (size_t r = 0; r < kRows; ++r) valid[r] = r % 7 == 0 ? 0 : 1;
  const size_t present = kRows - 18;
  Schema schema;
  std::vector<Column> columns;
  std::vector<std::string> names;
  std::map<std::string, size_t> oracle;  // exact distinct count per column
  auto add = [&](const std::string& name, Column col, size_t distinct) {
    ASSERT_TRUE(schema.AddField({name, col.type()}).ok());
    columns.push_back(std::move(col));
    names.push_back(name);
    oracle[name] = distinct;
  };
  for (size_t d : {1, 2, 3, 15, 16, 17, 20, 21, 22, 39, 40, 41, 91, 92, 93,
                   102}) {
    std::vector<int64_t> ints(kRows, 0);
    std::vector<double> doubles(kRows, 0.0);
    std::vector<std::string> strings(kRows);
    std::set<int64_t> int_set;
    std::set<double> double_set;
    std::set<std::string> string_set;
    for (size_t r = 0, j = 0; r < kRows; ++r) {
      if (!valid[r]) continue;
      ints[r] = static_cast<int64_t>((j * 37) % d);
      doubles[r] = 0.5 * static_cast<double>(ints[r]);
      strings[r] = "s" + std::to_string(ints[r]);
      int_set.insert(ints[r]);
      double_set.insert(doubles[r]);
      string_set.insert(strings[r]);
      ++j;
    }
    add("int_" + std::to_string(d), Column::FromInts(ints, valid),
        int_set.size());
    add("double_" + std::to_string(d), Column::FromDoubles(doubles, valid),
        double_set.size());
    add("string_" + std::to_string(d), Column::FromStrings(strings, valid),
        string_set.size());
  }
  // Signed zeros are one value; bools have at most two.
  std::vector<double> zeros(kRows);
  std::vector<uint8_t> bools(kRows);
  std::set<double> zero_set;
  std::set<uint8_t> bool_set;
  for (size_t r = 0; r < kRows; ++r) {
    zeros[r] = r % 2 == 0 ? 0.0 : -0.0;
    bools[r] = r % 3 == 0 ? 1 : 0;
    if (valid[r]) {
      zero_set.insert(zeros[r]);
      bool_set.insert(bools[r]);
    }
  }
  add("double_signed_zero", Column::FromDoubles(zeros, valid),
      zero_set.size());
  add("bool_2", Column::FromBools(bools, valid), bool_set.size());
  EXPECT_EQ(oracle["int_93"], 93u);
  EXPECT_EQ(oracle["double_signed_zero"], 1u);
  auto table = Table::Make(std::move(schema), std::move(columns));
  ASSERT_TRUE(table.ok());

  OfflinePruneOptions defaults;                    // settles at 92
  OfflinePruneOptions min_dominates;               // settles at 40
  min_dominates.high_entropy_min_distinct = 40;
  min_dominates.max_distinct_fraction = 0.2;
  OfflinePruneOptions every_split;                 // settles at 2
  every_split.high_entropy_min_distinct = 0;
  every_split.max_distinct_fraction = 0.0;
  OfflinePruneOptions unreachable;                 // never high-entropy
  unreachable.max_distinct_fraction = 2.0;
  for (const OfflinePruneOptions& options :
       {defaults, min_dominates, every_split, unreachable}) {
    PruneResult expected;
    for (const std::string& name : names) {
      const size_t d = oracle[name];
      const bool identifier_like = name.rfind("double_", 0) != 0;
      if (d <= 1) {
        expected.pruned.push_back({name, PruneReason::kConstant});
      } else if (identifier_like && d >= options.high_entropy_min_distinct &&
                 static_cast<double>(d) >
                     options.max_distinct_fraction *
                         static_cast<double>(present)) {
        expected.pruned.push_back({name, PruneReason::kHighEntropy});
      } else {
        expected.kept.push_back(name);
      }
    }
    auto r = OfflinePrune(*table, names, options);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->kept, expected.kept);
    ASSERT_EQ(r->pruned.size(), expected.pruned.size());
    for (size_t i = 0; i < expected.pruned.size(); ++i) {
      EXPECT_EQ(r->pruned[i].name, expected.pruned[i].name);
      EXPECT_EQ(r->pruned[i].reason, expected.pruned[i].reason)
          << expected.pruned[i].name;
    }
  }
}

TEST(OfflinePrune, MissingColumnErrors) {
  World w = MakeWorld(200);
  EXPECT_FALSE(OfflinePrune(w.table, {"ghost"}).ok());
}

// ------------------------------------------------------------ OnlinePrune

TEST(OnlinePrune, DropsFdAndIrrelevant) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  OnlinePruneResult r = OnlinePrune(*qa);
  auto reason_of = [&](const std::string& name) -> const char* {
    for (const auto& p : r.pruned) {
      if (p.name == name) return PruneReasonName(p.reason);
    }
    return "";
  };
  // The group bijection is a logical dependency.
  EXPECT_STREQ(reason_of("group_code"), "logical_dependency");
  // Constant survives offline only; online sees cardinality 1.
  EXPECT_STREQ(reason_of("constant"), "constant");
  // True confounders survive.
  EXPECT_STREQ(reason_of("conf_u"), "");
  EXPECT_STREQ(reason_of("conf_v"), "");
  // Kept indices all valid.
  for (size_t i : r.kept_indices) {
    EXPECT_LT(i, qa->attributes().size());
  }
}

TEST(OnlinePrune, RelevanceTestDropsPureIndividualNoise) {
  // An attribute independent of O entirely.
  Rng rng(5);
  TableBuilder b(Schema({{"g", DataType::kString},
                         {"o", DataType::kDouble},
                         {"junk", DataType::kDouble}}));
  std::vector<double> mean(10);
  for (auto& m : mean) m = rng.NextGaussian();
  for (int i = 0; i < 4000; ++i) {
    size_t g = rng.NextBelow(10);
    b.AppendRow({Value::String("g" + std::to_string(g)),
                 Value::Double(mean[g] + rng.NextGaussian(0, 0.3)),
                 Value::Double(rng.NextGaussian())})
        .ok();
  }
  Table t = *b.Finish();
  QuerySpec q;
  q.exposure = "g";
  q.outcome = "o";
  auto qa = QueryAnalysis::Prepare(t, q, {"junk"});
  ASSERT_TRUE(qa.ok());
  OnlinePruneResult r = OnlinePrune(*qa);
  ASSERT_EQ(r.pruned.size(), 1u);
  EXPECT_EQ(r.pruned[0].reason, PruneReason::kLowRelevance);
}

// ------------------------------------------------------------------ MCIMR

std::vector<size_t> Kept(const QueryAnalysis& qa) {
  return OnlinePrune(qa).kept_indices;
}

TEST(Mcimr, FindsBothConfounders) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  Explanation ex = RunMcimr(*qa, Kept(*qa));
  ASSERT_GE(ex.attribute_names.size(), 2u);
  // First two picks are conf_u/twin and conf_v in some order.
  auto is_u = [](const std::string& s) {
    return s == "conf_u" || s == "conf_u_twin";
  };
  EXPECT_TRUE(is_u(ex.attribute_names[0]) || ex.attribute_names[0] == "conf_v");
  bool has_u = false, has_v = false, has_noise = false;
  for (const auto& n : ex.attribute_names) {
    has_u |= is_u(n);
    has_v |= n == "conf_v";
    has_noise |= n == "noise";
  }
  EXPECT_TRUE(has_u);
  EXPECT_TRUE(has_v);
  EXPECT_FALSE(has_noise);
  EXPECT_LT(ex.final_cmi, 0.3 * ex.base_cmi);
}

TEST(Mcimr, RedundantTwinNotPickedTogether) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  Explanation ex = RunMcimr(*qa, Kept(*qa));
  bool u = false, twin = false;
  for (const auto& n : ex.attribute_names) {
    u |= n == "conf_u";
    twin |= n == "conf_u_twin";
  }
  EXPECT_FALSE(u && twin) << ex.ToString();
}

TEST(Mcimr, RespectsMaxSize) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  McimrOptions opts;
  opts.max_size = 1;
  Explanation ex = RunMcimr(*qa, Kept(*qa), opts);
  EXPECT_EQ(ex.attribute_names.size(), 1u);
}

TEST(Mcimr, EmptyCandidatesYieldEmptyExplanation) {
  World w = MakeWorld(500);
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  Explanation ex = RunMcimr(*qa, {});
  EXPECT_TRUE(ex.attribute_names.empty());
  EXPECT_DOUBLE_EQ(ex.final_cmi, ex.base_cmi);
}

TEST(Mcimr, TraceIsMonotoneInCmi) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  Explanation ex = RunMcimr(*qa, Kept(*qa));
  double prev = ex.base_cmi;
  for (const auto& step : ex.trace) {
    EXPECT_LT(step.cmi_after, prev);
    prev = step.cmi_after;
  }
  EXPECT_DOUBLE_EQ(ex.final_cmi, prev);
}

TEST(Mcimr, ObjectiveFormula) {
  Explanation ex;
  ex.final_cmi = 0.5;
  ex.attribute_indices = {1, 2, 3};
  EXPECT_DOUBLE_EQ(ex.Objective(), 1.5);
  EXPECT_EQ(ex.ToString(), "{}");  // names empty here
}

TEST(Mcimr, DisablingRedundancyActsLikeTopK) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  McimrOptions opts;
  opts.use_redundancy_term = false;
  opts.responsibility_stopping = false;
  opts.min_improvement = -1.0;  // accept everything
  opts.max_size = 2;
  Explanation ex = RunMcimr(*qa, Kept(*qa), opts);
  // Without redundancy, conf_u and its twin both rank top-2.
  ASSERT_EQ(ex.attribute_names.size(), 2u);
  auto is_u = [](const std::string& s) {
    return s == "conf_u" || s == "conf_u_twin";
  };
  EXPECT_TRUE(is_u(ex.attribute_names[0]));
  EXPECT_TRUE(is_u(ex.attribute_names[1]));
}

TEST(Mcimr, NextBestAttributeHonorsExclusions) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  std::vector<size_t> kept = Kept(*qa);
  McimrOptions opts;
  double score = 0.0;
  int first = NextBestAttribute(*qa, kept, {}, opts, &score);
  ASSERT_GE(first, 0);
  int second =
      NextBestAttribute(*qa, kept, {static_cast<size_t>(first)}, opts, &score);
  EXPECT_NE(first, second);
  // Excluding everything yields -1.
  EXPECT_EQ(NextBestAttribute(*qa, {}, {}, opts, &score), -1);
}

// --------------------------------------------------------- Responsibility

TEST(Responsibility, SingletonIsOne) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  size_t u = FindAttribute(*qa, "conf_u");
  auto r = ComputeResponsibilities(*qa, {u});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_DOUBLE_EQ(r[0].responsibility, 1.0);
  EXPECT_EQ(r[0].name, "conf_u");
}

TEST(Responsibility, SumsToOneWhenAllContribute) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  size_t u = FindAttribute(*qa, "conf_u");
  size_t v = FindAttribute(*qa, "conf_v");
  auto r = ComputeResponsibilities(*qa, {u, v});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_NEAR(r[0].responsibility + r[1].responsibility, 1.0, 1e-9);
  EXPECT_GT(r[0].responsibility, 0.0);
  EXPECT_GT(r[1].responsibility, 0.0);
  // Sorted descending.
  EXPECT_GE(r[0].responsibility, r[1].responsibility);
}

TEST(Responsibility, StrongerConfounderGetsMore) {
  // outcome = 3u + 2v: conf_u carries more.
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  size_t u = FindAttribute(*qa, "conf_u");
  size_t v = FindAttribute(*qa, "conf_v");
  auto r = ComputeResponsibilities(*qa, {u, v});
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].name, "conf_u");
}

TEST(Responsibility, UselessAttributeGetsNonPositive) {
  World w = MakeWorld();
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  size_t u = FindAttribute(*qa, "conf_u");
  size_t v = FindAttribute(*qa, "conf_v");
  size_t ind = FindAttribute(*qa, "indiv");
  auto r = ComputeResponsibilities(*qa, {u, v, ind});
  double indiv_resp = 0.0;
  for (const auto& e : r) {
    if (e.name == "indiv") indiv_resp = e.responsibility;
  }
  EXPECT_LT(indiv_resp, 0.15);
}

TEST(Responsibility, EmptyExplanation) {
  World w = MakeWorld(500);
  auto qa = QueryAnalysis::Prepare(w.table, w.query, AllCandidates());
  ASSERT_TRUE(qa.ok());
  EXPECT_TRUE(ComputeResponsibilities(*qa, {}).empty());
}

}  // namespace
}  // namespace mesa
