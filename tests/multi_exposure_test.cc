#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/candidates.h"
#include "core/mcimr.h"
#include "core/pruning.h"
#include "query/sql_parser.h"
#include "table/csv.h"
#include "table/table_builder.h"

namespace mesa {
namespace {

// -------------------------------------------------- QuerySpec composite

Table Sales() {
  return *ReadCsvString(
      "region,product,units\n"
      "north,widget,10\n"
      "north,widget,20\n"
      "north,gadget,5\n"
      "south,widget,8\n"
      "south,gadget,2\n"
      "south,gadget,4\n");
}

TEST(MultiExposureSpec, AccessorsAndSql) {
  QuerySpec q;
  q.exposure = "region";
  q.secondary_exposures = {"product"};
  q.outcome = "units";
  EXPECT_TRUE(q.IsExposure("region"));
  EXPECT_TRUE(q.IsExposure("product"));
  EXPECT_FALSE(q.IsExposure("units"));
  EXPECT_EQ(q.AllExposures(),
            (std::vector<std::string>{"region", "product"}));
  EXPECT_EQ(q.ToSql(),
            "SELECT region, product, avg(units) FROM D "
            "GROUP BY region, product");
}

TEST(MultiExposureSpec, ValidateRejectsDuplicatesAndOutcomeOverlap) {
  Table t = Sales();
  QuerySpec q;
  q.exposure = "region";
  q.secondary_exposures = {"region"};
  q.outcome = "units";
  EXPECT_FALSE(q.Validate(t).ok());
  q.secondary_exposures = {"units"};
  EXPECT_FALSE(q.Validate(t).ok());
  q.secondary_exposures = {"product"};
  EXPECT_TRUE(q.Validate(t).ok());
}

// ------------------------------------------------------ parser composite

TEST(MultiExposureParser, ParsesTwoGroupingColumns) {
  auto q = ParseQuery(
      "SELECT State, Airline, avg(Delay) FROM F GROUP BY State, Airline");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->exposure, "State");
  ASSERT_EQ(q->secondary_exposures.size(), 1u);
  EXPECT_EQ(q->secondary_exposures[0], "Airline");
}

TEST(MultiExposureParser, AggregateAnywhereInSelectList) {
  auto q = ParseQuery(
      "SELECT a, avg(x), b FROM t GROUP BY a, b");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->exposure, "a");
  EXPECT_EQ(q->secondary_exposures, (std::vector<std::string>{"b"}));
  EXPECT_EQ(q->outcome, "x");
}

TEST(MultiExposureParser, GroupByMustMatchOrderAndSet) {
  EXPECT_FALSE(
      ParseQuery("SELECT a, b, avg(x) FROM t GROUP BY b, a").ok());
  EXPECT_FALSE(ParseQuery("SELECT a, b, avg(x) FROM t GROUP BY a").ok());
  EXPECT_FALSE(ParseQuery("SELECT a, avg(x) FROM t GROUP BY a, b").ok());
}

// ----------------------------------------------- analysis over composite

TEST(MultiExposureAnalysis, CompositeExposureDrivenByTwoFactors) {
  // Outcome depends on region-level AND product-level latents; the
  // composite exposure (region, product) needs both confounders.
  Rng rng(55);
  const size_t kRegions = 30, kProducts = 20;
  std::vector<double> r_latent(kRegions), p_latent(kProducts);
  for (auto& v : r_latent) v = rng.NextGaussian();
  for (auto& v : p_latent) v = rng.NextGaussian();
  TableBuilder b(Schema({{"region", DataType::kString},
                         {"product", DataType::kString},
                         {"region_factor", DataType::kDouble},
                         {"product_factor", DataType::kDouble},
                         {"outcome", DataType::kDouble}}));
  for (int i = 0; i < 9000; ++i) {
    size_t r = rng.NextBelow(kRegions), p = rng.NextBelow(kProducts);
    double y = 2.0 * r_latent[r] + 2.0 * p_latent[p] +
               rng.NextGaussian(0, 0.4);
    MESA_CHECK(b.AppendRow({Value::String("r" + std::to_string(r)),
                            Value::String("p" + std::to_string(p)),
                            Value::Double(r_latent[r]),
                            Value::Double(p_latent[p]), Value::Double(y)})
                   .ok());
  }
  Table t = *b.Finish();
  QuerySpec q;
  q.exposure = "region";
  q.secondary_exposures = {"product"};
  q.outcome = "outcome";
  auto qa = QueryAnalysis::Prepare(t, q, {"region_factor", "product_factor",
                                          "region", "product"});
  ASSERT_TRUE(qa.ok());
  // Exposure columns never become candidates.
  EXPECT_EQ(qa->attributes().size(), 2u);
  EXPECT_GT(qa->BaseCmi(), 0.8);
  Explanation ex = RunMcimr(*qa, OnlinePrune(*qa).kept_indices);
  ASSERT_EQ(ex.attribute_names.size(), 2u) << ex.ToString();
  bool has_r = false, has_p = false;
  for (const auto& n : ex.attribute_names) {
    has_r |= n == "region_factor";
    has_p |= n == "product_factor";
  }
  EXPECT_TRUE(has_r && has_p) << ex.ToString();
  EXPECT_LT(ex.final_cmi, 0.3 * ex.base_cmi);
}

}  // namespace
}  // namespace mesa
