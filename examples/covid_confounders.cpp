// The paper's running Covid-19 example (Examples 1.1/1.2): why does the
// choice of country have such a strong effect on the death rate? MESA
// mines country properties from the knowledge graph and reports the
// confounders (country success: HDI/GDP — plus the in-table confirmed-case
// load), then shows each attribute's responsibility.
//
//   ./build/examples/covid_confounders

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/mesa.h"
#include "datagen/registry.h"
#include "query/aggregate.h"
#include "query/group_by.h"

using namespace mesa;

int main() {
  // The Covid-19 world: country-level pandemic snapshots + a DBpedia-like
  // country KG (see src/datagen/covid_gen.cc).
  auto ds = MakeDataset(DatasetKind::kCovid, {});
  if (!ds.ok()) return 1;

  // What Ann sees first: the grouped aggregate itself, one serial pass.
  std::vector<Value> countries;
  auto codes = EncodeGroups(ds->table, "Country", &countries);
  auto deaths = ds->table.ColumnByName("Deaths_per_100_cases");
  if (!codes.ok() || !deaths.ok()) return 1;
  std::vector<AggregateAccumulator> accs(
      countries.size(), AggregateAccumulator(AggregateFunction::kAvg));
  for (size_t r = 0; r < codes->size(); ++r) {
    if ((*codes)[r] >= 0 && (*deaths)->IsValid(r)) {
      accs[(*codes)[r]].Add((*deaths)->NumericAt(r));
    }
  }
  std::map<std::string, double> by_country;  // sorted by country
  for (size_t g = 0; g < countries.size(); ++g) {
    if (accs[g].count() > 0) {
      by_country[countries[g].string_value()] = *accs[g].Finalize();
    }
  }
  std::printf("SELECT Country, avg(Deaths_per_100_cases) FROM Covid GROUP BY "
              "Country\n");
  std::printf("(%zu countries; first five)\n", by_country.size());
  size_t shown = 0;
  for (const auto& [country, avg] : by_country) {
    if (shown++ == 5) break;
    std::printf("  %-14s %.2f\n", country.c_str(), avg);
  }

  // MESA explains the puzzling spread.
  Mesa mesa(ds->table, ds->kg.get(), ds->extraction_columns);
  auto report = mesa.ExplainSql(
      "SELECT Country, avg(Deaths_per_100_cases) FROM Covid "
      "GROUP BY Country");
  if (!report.ok()) {
    std::printf("error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n", report->Summary().c_str());
  std::printf("candidates: %zu after offline pruning, %zu after online\n",
              report->candidates_after_offline,
              report->candidates_after_online);
  for (const auto& r : report->responsibilities) {
    std::printf("  responsibility(%-22s) = %5.2f\n", r.name.c_str(),
                r.responsibility);
  }

  // Refined query, as in the paper: Europe only. (At 188 rows the
  // within-region estimates are rough — the paper's Covid Q2 has the same
  // caveat; see bench_table2_explanations for the systematic run.)
  auto europe = mesa.ExplainSql(
      "SELECT Country, avg(Deaths_per_100_cases) FROM Covid "
      "WHERE WHO_Region = 'Europe' GROUP BY Country");
  if (europe.ok()) {
    std::printf("\nWithin Europe (%zu-row subgroup): %s\n",
                static_cast<size_t>(europe->explanation.trace.size()),
                europe->Summary().c_str());
  }
  std::printf(
      "\nReading: countries with similar development levels (and similar\n"
      "case loads) have similar death rates — the paper's Example 1.2.\n");
  return 0;
}
