// Seeded mutational fuzz of the morsel-parallel CSV reader, built into the
// ASan target binary (sql_parser_fuzz_test; see docs/sanitizers.md). A
// multi-morsel CSV with quoted, multi-line, CRLF and null cells is damaged
// in its body — bytes overwritten, inserted, deleted, duplicated, the file
// cut short — with mutations clustered around the morsel cuts. Every
// mutant must read as a table or fail with InvalidArgument, and it must
// read the same way (the same schema and column fingerprints, or the same
// message) at 1 and 8 threads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "table/csv.h"

namespace mesa {
namespace {

constexpr size_t kMutants = 600;

// About 2.3 morsels of five mixed columns.
std::string BaseCsv() {
  Rng rng(2024);
  std::string text = "id,score,flag,name,note\n";
  for (size_t r = 0; text.size() < 2 * kCsvMorselBytes + 20000; ++r) {
    text += std::to_string(r) + ",";
    text += rng.NextBernoulli(0.1) ? "NA" : std::to_string(r % 97) + ".25";
    text += rng.NextBernoulli(0.5) ? ",true," : ",False,";
    text += rng.NextBernoulli(0.2) ? "\"n, \"\"" + std::to_string(r) + "\"\"\""
                                   : "n" + std::to_string(r);
    text += ",";
    switch (rng.NextBelow(4)) {
      case 0:
        text += "\"two\nlines\"";
        break;
      case 1:
        text += "nan";
        break;
      case 2:
        break;
      default:
        text += "plain";
    }
    text += rng.NextBernoulli(0.3) ? "\r\n" : "\n";
  }
  return text;
}

// A position in [lo, size], half the time within 48 bytes of a multiple
// of the morsel size, where the cuts are searched for.
size_t PickPosition(Rng& rng, size_t lo, size_t size) {
  size_t pos = lo + rng.NextBelow(size - lo + 1);
  if (rng.NextBernoulli(0.5)) {
    const size_t cut = (1 + rng.NextBelow(size / kCsvMorselBytes + 1)) *
                       kCsvMorselBytes;
    pos = cut + rng.NextBelow(97) - 48;
  }
  return std::min(std::max(pos, lo), size);
}

// One to four body mutations of `base`; the header line stays intact.
std::string Mutate(const std::string& base, size_t header_size, Rng& rng) {
  static const char kBytes[] = {'"', ',', '\n', '\r', '\0', '\xEF',
                                'x', '7', '.',  '-',  ' ',  'e'};
  std::string text = base;
  const size_t n = 1 + rng.NextBelow(4);
  for (size_t m = 0; m < n && text.size() > header_size; ++m) {
    const size_t pos = PickPosition(rng, header_size, text.size());
    const char byte = rng.NextBernoulli(0.8)
                          ? kBytes[rng.NextBelow(sizeof(kBytes))]
                          : static_cast<char>(rng.NextBelow(256));
    switch (rng.NextBelow(6)) {
      case 0:  // overwrite
        if (pos < text.size()) text[pos] = byte;
        break;
      case 1:  // insert
        text.insert(pos, 1, byte);
        break;
      case 2:  // delete a short run
        text.erase(pos, 1 + rng.NextBelow(16));
        break;
      case 3:  // cut the file short
        text.resize(pos);
        break;
      case 4: {  // duplicate a run from elsewhere
        const size_t from = PickPosition(rng, header_size, text.size());
        text.insert(pos, text.substr(from, 1 + rng.NextBelow(200)));
        break;
      }
      default:  // an escaped quote
        text.insert(pos, "\"\"");
    }
  }
  return text;
}

// What a read produced: the error, or the schema and column fingerprints.
std::string Outcome(const Result<Table>& t) {
  if (!t.ok()) return t.status().ToString();
  std::string out;
  for (size_t c = 0; c < t->num_columns(); ++c) {
    out += t->schema().field(c).name + ":" +
           DataTypeName(t->schema().field(c).type) + ":" +
           std::to_string(t->column(c).ContentFingerprint()) + "\n";
  }
  return out + std::to_string(t->num_rows());
}

TEST(CsvFuzz, MutantsReadTheSameAtOneAndEightThreads) {
  const std::string base = BaseCsv();
  const size_t header_size = base.find('\n') + 1;
  std::vector<std::string> mutants;
  Rng rng(77);
  for (size_t i = 0; i < kMutants; ++i) {
    mutants.push_back(Mutate(base, header_size, rng));
  }

  const size_t saved = NumThreads();
  std::vector<std::string> serial;
  SetNumThreads(1);
  size_t ok = 0;
  for (const std::string& text : mutants) {
    auto t = ReadCsvString(text);
    ASSERT_TRUE(t.ok() ||
                t.status().code() == StatusCode::kInvalidArgument)
        << t.status().ToString();
    ok += t.ok() ? 1 : 0;
    serial.push_back(Outcome(t));
  }
  SetNumThreads(8);
  for (size_t i = 0; i < mutants.size(); ++i) {
    ASSERT_EQ(Outcome(ReadCsvString(mutants[i])), serial[i]) << "mutant " << i;
  }
  SetNumThreads(saved);
  // Both outcomes are exercised.
  EXPECT_GT(ok, kMutants / 20);
  EXPECT_LT(ok, kMutants - kMutants / 20);
}

}  // namespace
}  // namespace mesa
