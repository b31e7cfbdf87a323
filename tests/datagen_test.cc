#include <gtest/gtest.h>

#include <map>
#include <set>

#include "datagen/common_gen.h"
#include "datagen/registry.h"
#include "query/aggregate.h"
#include "query/group_by.h"

namespace mesa {
namespace {

// -------------------------------------------------------------- registry

TEST(Registry, AllKindsGenerate) {
  for (DatasetKind kind : AllDatasetKinds()) {
    GenOptions opts;
    opts.rows = 500;
    auto ds = MakeDataset(kind, opts);
    ASSERT_TRUE(ds.ok()) << DatasetKindName(kind);
    EXPECT_EQ(ds->table.num_rows(), 500u) << DatasetKindName(kind);
    EXPECT_NE(ds->kg, nullptr);
    EXPECT_GT(ds->kg->num_triples(), 0u);
    EXPECT_FALSE(ds->extraction_columns.empty());
    for (const auto& col : ds->extraction_columns) {
      EXPECT_TRUE(ds->table.schema().Contains(col))
          << DatasetKindName(kind) << " missing " << col;
    }
  }
}

TEST(Registry, DefaultSizesMatchTable1) {
  GenOptions opts;
  auto so = MakeDataset(DatasetKind::kStackOverflow, opts);
  ASSERT_TRUE(so.ok());
  EXPECT_EQ(so->table.num_rows(), 47623u);
  auto covid = MakeDataset(DatasetKind::kCovid, opts);
  ASSERT_TRUE(covid.ok());
  EXPECT_EQ(covid->table.num_rows(), 188u);
  auto forbes = MakeDataset(DatasetKind::kForbes, opts);
  ASSERT_TRUE(forbes.ok());
  EXPECT_EQ(forbes->table.num_rows(), 1647u);
}

TEST(Registry, GenerationIsDeterministic) {
  GenOptions opts;
  opts.rows = 300;
  opts.seed = 12345;
  auto a = MakeDataset(DatasetKind::kStackOverflow, opts);
  auto b = MakeDataset(DatasetKind::kStackOverflow, opts);
  ASSERT_TRUE(a.ok() && b.ok());
  for (size_t r = 0; r < 300; ++r) {
    for (size_t c = 0; c < a->table.num_columns(); ++c) {
      ASSERT_EQ(a->table.column(c).GetValue(r), b->table.column(c).GetValue(r));
    }
  }
  EXPECT_EQ(a->kg->num_triples(), b->kg->num_triples());
}

TEST(Registry, DifferentSeedsDiffer) {
  GenOptions a_opts, b_opts;
  a_opts.rows = b_opts.rows = 300;
  a_opts.seed = 1;
  b_opts.seed = 2;
  auto a = MakeDataset(DatasetKind::kStackOverflow, a_opts);
  auto b = MakeDataset(DatasetKind::kStackOverflow, b_opts);
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (size_t r = 0; r < 300 && !any_diff; ++r) {
    any_diff = !(a->table.GetCell(r, "Salary")->double_value() ==
                 b->table.GetCell(r, "Salary")->double_value());
  }
  EXPECT_TRUE(any_diff);
}

TEST(Registry, FourteenCanonicalQueries) {
  size_t total = 0;
  for (DatasetKind kind : AllDatasetKinds()) {
    auto queries = CanonicalQueries(kind);
    EXPECT_FALSE(queries.empty());
    for (const auto& bq : queries) {
      EXPECT_FALSE(bq.id.empty());
      EXPECT_FALSE(bq.ground_truth.empty()) << bq.id;
      EXPECT_FALSE(bq.query.exposure.empty()) << bq.id;
    }
    total += queries.size();
  }
  EXPECT_EQ(total, 14u);  // Table 2
}

TEST(Registry, CanonicalQueriesValidateAgainstTheirDatasets) {
  for (DatasetKind kind : AllDatasetKinds()) {
    GenOptions opts;
    opts.rows = 2000;
    auto ds = MakeDataset(kind, opts);
    ASSERT_TRUE(ds.ok());
    for (const auto& bq : CanonicalQueries(kind)) {
      EXPECT_TRUE(bq.query.Validate(ds->table).ok()) << bq.id;
    }
  }
}

TEST(Registry, KgMissingRateControlsSparsity) {
  GenOptions dense, sparse;
  dense.rows = sparse.rows = 100;
  dense.kg_missing_rate = 0.0;
  sparse.kg_missing_rate = 0.6;
  auto d = MakeDataset(DatasetKind::kStackOverflow, dense);
  auto s = MakeDataset(DatasetKind::kStackOverflow, sparse);
  ASSERT_TRUE(d.ok() && s.ok());
  EXPECT_GT(d->kg->num_triples(), s->kg->num_triples());
}

// ------------------------------------------------------------ common_gen

TEST(CommonGen, CountryWorldStructure) {
  Rng rng(1);
  auto countries = BuildCountryWorld(&rng);
  EXPECT_GT(countries.size(), 80u);
  std::set<std::string> continents, names;
  size_t europe = 0;
  for (const auto& c : countries) {
    continents.insert(c.continent);
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate " << c.name;
    EXPECT_GE(c.hdi, 0.2);
    EXPECT_LE(c.hdi, 0.99);
    EXPECT_GT(c.gdp, 0.0);
    EXPECT_GT(c.population, 0.0);
    EXPECT_NEAR(c.density, c.population / c.area, 1e-9);
    if (c.continent == "Europe") ++europe;
  }
  EXPECT_EQ(continents.size(), 6u);
  EXPECT_GE(europe, 25u);
}

TEST(CommonGen, EuropeHdiIsNearConstant) {
  // The premise behind SO Q3 / Table 4: within Europe HDI barely varies.
  Rng rng(2);
  auto countries = BuildCountryWorld(&rng);
  double eu_min = 1.0, eu_max = 0.0, world_min = 1.0, world_max = 0.0;
  for (const auto& c : countries) {
    world_min = std::min(world_min, c.hdi);
    world_max = std::max(world_max, c.hdi);
    if (c.continent == "Europe") {
      eu_min = std::min(eu_min, c.hdi);
      eu_max = std::max(eu_max, c.hdi);
    }
  }
  EXPECT_LT(eu_max - eu_min, 0.35 * (world_max - world_min));
}

TEST(CommonGen, CountryKgHasExpectedPredicates) {
  Rng rng(3);
  auto countries = BuildCountryWorld(&rng);
  TripleStore kg;
  SyntheticKgBuilder builder(&kg, 7);
  CountryKgOptions opts;
  opts.missing_rate = 0.0;
  PopulateCountryKg(countries, &builder, opts);
  // Predicates used on Country subjects; entity types present.
  std::set<std::string> set;
  std::set<std::string> types;
  for (EntityId id = 0; id < kg.num_entities(); ++id) {
    types.insert(kg.entity(id).type);
    if (kg.entity(id).type != "Country") continue;
    for (const Triple* t : kg.PropertiesOf(id)) {
      set.insert(kg.predicate_name(t->predicate));
    }
  }
  for (const char* p : {"hdi", "hdi_rank", "gdp", "gdp_rank", "gini",
                        "density", "population_census", "wikiID", "type",
                        "noise_attr_0", "leader"}) {
    EXPECT_TRUE(set.count(p)) << p;
  }
  // Leader hop creates Person entities.
  EXPECT_TRUE(types.count("Person"));
}

TEST(CommonGen, CityAndAirlineWorlds) {
  Rng rng(4);
  auto cities = BuildCityWorld(&rng);
  auto airlines = BuildAirlineWorld(&rng);
  EXPECT_GE(cities.size(), 30u);
  EXPECT_GE(airlines.size(), 10u);
  for (const auto& c : cities) {
    EXPECT_GE(c.weather, 0.0);
    EXPECT_LE(c.weather, 1.0);
    // year_avg_f tracks year_low_f: the planted redundancy pair.
    EXPECT_GT(c.year_avg_f, c.year_low_f);
  }
  for (const auto& a : airlines) {
    EXPECT_GT(a.fleet_size, 0.0);
    EXPECT_GT(a.num_employees, 0.0);
  }
}

TEST(CommonGen, CelebrityWorldCategorySpecificFields) {
  Rng rng(5);
  auto celebs = BuildCelebrityWorld(&rng, 300);
  EXPECT_EQ(celebs.size(), 300u);
  bool saw_athlete = false;
  for (const auto& c : celebs) {
    if (c.category == "Athletes") {
      saw_athlete = true;
      EXPECT_GE(c.draft_pick, 1.0);
    } else {
      EXPECT_DOUBLE_EQ(c.cups, 0.0);
    }
  }
  EXPECT_TRUE(saw_athlete);
}

TEST(CommonGen, ForbesKgAmbiguousAlias) {
  Rng rng(6);
  auto celebs = BuildCelebrityWorld(&rng, 10);
  TripleStore kg;
  SyntheticKgBuilder builder(&kg, 8);
  PopulateForbesKg(celebs, &builder, {});
  EXPECT_GE(kg.FindByAlias("Ronaldo").size(), 2u);
}

// ------------------------------------------------ planted confounding

// avg(outcome) per value of the string column `group`; rows with a null
// group or outcome are skipped.
std::map<std::string, double> GroupAverages(const Table& table,
                                            const std::string& group,
                                            const std::string& outcome) {
  std::vector<Value> values;
  const std::vector<int32_t> codes = *EncodeGroups(table, group, &values);
  const Column* o = *table.ColumnByName(outcome);
  std::vector<AggregateAccumulator> accs(
      values.size(), AggregateAccumulator(AggregateFunction::kAvg));
  for (size_t r = 0; r < codes.size(); ++r) {
    if (codes[r] >= 0 && o->IsValid(r)) accs[codes[r]].Add(o->NumericAt(r));
  }
  std::map<std::string, double> out;
  for (size_t g = 0; g < values.size(); ++g) {
    if (accs[g].count() > 0) {
      out[values[g].string_value()] = *accs[g].Finalize();
    }
  }
  return out;
}

TEST(PlantedStructure, SoSalaryConfoundedByCountryEconomy) {
  GenOptions opts;
  opts.rows = 4000;
  auto ds = MakeDataset(DatasetKind::kStackOverflow, opts);
  ASSERT_TRUE(ds.ok());
  // Average salary differs strongly between a top and a bottom economy.
  auto by_continent = GroupAverages(ds->table, "Continent", "Salary");
  const double europe = by_continent["Europe"];
  const double africa = by_continent["Africa"];
  EXPECT_GT(europe, africa * 1.5);
}

TEST(PlantedStructure, CovidDeathsFallWithSuccess) {
  GenOptions opts;
  auto ds = MakeDataset(DatasetKind::kCovid, opts);
  ASSERT_TRUE(ds.ok());
  auto by_region =
      GroupAverages(ds->table, "WHO_Region", "Deaths_per_100_cases");
  const double europe = by_region["Europe"];
  const double africa = by_region["Africa"];
  EXPECT_GT(africa, europe);
}

TEST(PlantedStructure, FlightsDelayVariesByAirline) {
  GenOptions opts;
  opts.rows = 20000;
  auto ds = MakeDataset(DatasetKind::kFlights, opts);
  ASSERT_TRUE(ds.ok());
  double min_d = 1e9, max_d = -1e9;
  for (const auto& [airline, avg] :
       GroupAverages(ds->table, "Airline", "Departure_delay")) {
    min_d = std::min(min_d, avg);
    max_d = std::max(max_d, avg);
  }
  EXPECT_GT(max_d - min_d, 5.0);  // minutes
}

}  // namespace
}  // namespace mesa
