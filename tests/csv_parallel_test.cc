// The morsel-parallel CSV reader against oracles that do not use it:
// datagen tables written by WriteCsvString must read back cell for cell,
// and synthetic inputs whose tricky records straddle a morsel cut must
// read back as the test built them, with errors naming the same byte
// offset or global data row. Every case runs at 1, 2 and 8 threads. Own
// binary: it resizes the global pool, and CI runs it under TSan at
// MESA_NUM_THREADS=8.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "datagen/registry.h"
#include "table/csv.h"

namespace mesa {
namespace {

// Runs `check` once per thread count, restoring the pool size afterwards.
void AtEachThreadCount(const std::function<void(size_t)>& check) {
  const size_t saved = NumThreads();
  for (size_t threads : {1, 2, 8}) {
    SetNumThreads(threads);
    check(threads);
  }
  SetNumThreads(saved);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Cell-for-cell equality (doubles bitwise, nulls by position) plus equal
// content fingerprints.
void ExpectSameTable(const Table& want, const Table& got,
                     const std::string& label) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << label;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << label;
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const Column& w = want.column(c);
    const Column& g = got.column(c);
    const std::string where = label + " column " + want.schema().field(c).name;
    ASSERT_EQ(got.schema().field(c).name, want.schema().field(c).name)
        << where;
    ASSERT_EQ(g.type(), w.type()) << where;
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << where << " row " << r;
      if (w.IsNull(r)) continue;
      switch (w.type()) {
        case DataType::kInt64:
          ASSERT_EQ(g.IntAt(r), w.IntAt(r)) << where << " row " << r;
          break;
        case DataType::kDouble:
          ASSERT_TRUE(SameBits(g.DoubleAt(r), w.DoubleAt(r)))
              << where << " row " << r << ": " << g.DoubleAt(r) << " vs "
              << w.DoubleAt(r);
          break;
        case DataType::kBool:
          ASSERT_EQ(g.BoolAt(r), w.BoolAt(r)) << where << " row " << r;
          break;
        case DataType::kString:
          ASSERT_EQ(g.StringAt(r), w.StringAt(r)) << where << " row " << r;
          break;
        case DataType::kNull:
          break;
      }
    }
    EXPECT_EQ(g.ContentFingerprint(), w.ContentFingerprint()) << where;
  }
}

// ------------------------------------------------- datagen tables as oracle

// The table as its CSV text represents it, built with plain appends:
// doubles pass through the writer's "%.6g" and strtod, a seeded ~1 in 23
// cells is null, and ~1 in 41 string cells gains a delimiter, a quote and
// a newline so the writer must quote it.
Table CsvFaithful(const Table& source, uint64_t seed) {
  std::vector<Column> columns;
  for (size_t c = 0; c < source.num_columns(); ++c) {
    const Column& in = source.column(c);
    Column out(in.type());
    for (size_t r = 0; r < source.num_rows(); ++r) {
      const uint64_t h = MixSeed(seed, r * source.num_columns() + c);
      if (in.IsNull(r) || h % 23 == 0) {
        out.AppendNull();
        continue;
      }
      switch (in.type()) {
        case DataType::kInt64:
          out.AppendInt(in.IntAt(r));
          break;
        case DataType::kDouble: {
          char buf[64];
          std::snprintf(buf, sizeof(buf), "%.6g", in.DoubleAt(r));
          out.AppendDouble(std::strtod(buf, nullptr));
          break;
        }
        case DataType::kBool:
          out.AppendBool(in.BoolAt(r));
          break;
        case DataType::kString:
          out.AppendString(h % 41 == 1 ? in.StringAt(r) + ", \"q\"\nx"
                                       : in.StringAt(r));
          break;
        case DataType::kNull:
          break;
      }
    }
    columns.push_back(std::move(out));
  }
  return *Table::Make(source.schema(), std::move(columns));
}

TEST(CsvParallel, DatagenTablesRoundTripThroughTheWriter) {
  for (DatasetKind kind : AllDatasetKinds()) {
    GenOptions gen;
    gen.rows = 20000;
    auto dataset = MakeDataset(kind, gen);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    const Table want = CsvFaithful(dataset->table, 7);
    const std::string csv = WriteCsvString(want);
    ASSERT_GE(csv.size(), 8 * kCsvMorselBytes) << DatasetKindName(kind);
    AtEachThreadCount([&](size_t threads) {
      auto got = ReadCsvString(csv);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameTable(want, *got,
                      std::string(DatasetKindName(kind)) + " threads=" +
                          std::to_string(threads));
    });
  }
}

// ------------------------------------------- synthetic multi-morsel inputs

// A CSV under construction together with the rows it must read back as
// (nullopt = null cell). Cell texts are the unescaped values.
struct Synthetic {
  std::string text;
  std::vector<std::vector<std::optional<std::string>>> rows;

  explicit Synthetic(std::string header) : text(std::move(header)) {}

  void Add(const std::string& raw,
           std::vector<std::optional<std::string>> cells) {
    text += raw;
    rows.push_back(std::move(cells));
  }
  // Raw bytes that read back as no row (blank lines).
  void AddBlank(const std::string& raw) { text += raw; }

  // Plain rows (one cell per column, built by `make`) until the text is
  // exactly `size` bytes long. The last row lands on the byte by
  // appending '7's to its cell `stretch`.
  void PadTo(size_t size,
             const std::function<std::vector<std::string>(size_t)>& make,
             size_t stretch) {
    for (;;) {
      std::vector<std::string> cells = make(rows.size());
      auto raw_row = [&] {
        std::string raw;
        for (size_t c = 0; c < cells.size(); ++c) {
          raw += (c > 0 ? "," : "") + cells[c];
        }
        return raw + "\n";
      };
      std::string raw = raw_row();
      if (text.size() + 2 * raw.size() > size) {
        ASSERT_GE(size, text.size() + raw.size()) << "cannot pad";
        cells[stretch] += std::string(size - text.size() - raw.size(), '7');
        raw = raw_row();
      }
      Add(raw, {cells.begin(), cells.end()});
      if (text.size() == size) return;
    }
  }
};

std::vector<std::string> PadRow(size_t i) {
  return {std::to_string(i), "p" + std::to_string(i)};
}

// Checks a read against the rows the test built. Column types are given;
// values are parsed from the expected text with the C library directly.
void ExpectRows(const Table& t, const Synthetic& s,
                const std::vector<DataType>& types, const std::string& label) {
  ASSERT_EQ(t.num_columns(), types.size()) << label;
  ASSERT_EQ(t.num_rows(), s.rows.size()) << label;
  for (size_t c = 0; c < types.size(); ++c) {
    ASSERT_EQ(t.schema().field(c).type, types[c]) << label << " column " << c;
  }
  for (size_t r = 0; r < s.rows.size(); ++r) {
    for (size_t c = 0; c < types.size(); ++c) {
      const Column& col = t.column(c);
      const std::optional<std::string>& want = s.rows[r][c];
      const std::string where =
          label + " row " + std::to_string(r) + " column " + std::to_string(c);
      ASSERT_EQ(col.IsNull(r), !want.has_value()) << where;
      if (!want) continue;
      switch (types[c]) {
        case DataType::kInt64:
          ASSERT_EQ(col.IntAt(r), std::strtoll(want->c_str(), nullptr, 10))
              << where;
          break;
        case DataType::kDouble:
          ASSERT_TRUE(
              SameBits(col.DoubleAt(r), std::strtod(want->c_str(), nullptr)))
              << where;
          break;
        case DataType::kBool:
          ASSERT_EQ(col.BoolAt(r), *want == "true") << where;
          break;
        case DataType::kString:
          ASSERT_EQ(col.StringAt(r), *want) << where;
          break;
        case DataType::kNull:
          break;
      }
    }
  }
}

// Builds header + padding rows made by `pad` so that byte `header +
// kCsvMorselBytes` (the first cut's search start) lies `shift` bytes into
// `special`, then one more morsel of padding.
template <typename AddSpecial>
Synthetic Straddle(
    const std::string& header, size_t shift, const AddSpecial& add_special,
    const std::function<std::vector<std::string>(size_t)>& pad = PadRow) {
  Synthetic s(header);
  s.PadTo(header.size() + kCsvMorselBytes - shift, pad, 1);
  add_special(&s);
  s.PadTo(s.text.size() + kCsvMorselBytes + 100, pad, 1);
  return s;
}

void AddQuotedRecords(Synthetic* s) {
  s->Add("1,\"a,b\"\n", {"1", "a,b"});
  s->Add("2,\"say \"\"hi\"\"\"\n", {"2", "say \"hi\""});
  s->Add("3,\"multi\nline\n\"\n", {"3", "multi\nline\n"});
  s->Add("4,crlf\r\n", {"4", "crlf"});
  s->Add("5,\"x\"\"\ny\"\r\n", {"5", "x\"\ny"});
  s->Add("6,\"\"\"\"\n", {"6", "\""});
}

TEST(CsvParallel, QuotesAndLineEndingsStraddlingACut) {
  Synthetic probe("");
  AddQuotedRecords(&probe);
  for (size_t shift = 0; shift <= probe.text.size(); ++shift) {
    const Synthetic s = Straddle("id,note\n", shift, AddQuotedRecords);
    AtEachThreadCount([&](size_t threads) {
      auto t = ReadCsvString(s.text);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      ExpectRows(*t, s, {DataType::kInt64, DataType::kString},
                 "shift " + std::to_string(shift) + " threads " +
                     std::to_string(threads));
    });
  }
}

void AddBlanksAndNulls(Synthetic* s) {
  s->AddBlank("\n");
  s->AddBlank("\r\n");
  s->Add("7,NULL\n", {"7", std::nullopt});
  s->AddBlank("\"\"\n");
  s->Add("8,na\n", {"8", std::nullopt});
  s->Add("NA,n/a\n", {std::nullopt, std::nullopt});
  s->Add("9,N/A\r\n", {"9", std::nullopt});
  s->Add("nan,NaN\n", {std::nullopt, std::nullopt});
  s->Add("10,null\n", {"10", std::nullopt});
  s->Add(",\n", {std::nullopt, std::nullopt});
  s->Add("\"\",\"nA\"\n", {std::nullopt, std::nullopt});
}

TEST(CsvParallel, BlankLinesAndNullTokensStraddlingACut) {
  Synthetic probe("");
  AddBlanksAndNulls(&probe);
  for (size_t shift = 0; shift <= probe.text.size(); ++shift) {
    const Synthetic s = Straddle("id,name\n", shift, AddBlanksAndNulls);
    AtEachThreadCount([&](size_t threads) {
      auto t = ReadCsvString(s.text);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      ExpectRows(*t, s, {DataType::kInt64, DataType::kString},
                 "shift " + std::to_string(shift) + " threads " +
                     std::to_string(threads));
    });
  }
}

// Spellings strtod reads as NaN are null in a double column, like "nan".
void AddNanSpellings(Synthetic* s) {
  s->Add("11,-nan\n", {"11", std::nullopt});
  s->Add("12,NaN(7)\n", {"12", std::nullopt});
  s->Add("13,nan\n", {"13", std::nullopt});
  s->Add("14,-NAN\r\n", {"14", std::nullopt});
  s->Add("15,2.5\n", {"15", "2.5"});
  s->Add("16,\"nan(0x1)\"\n", {"16", std::nullopt});
}

TEST(CsvParallel, NanSpellingsInADoubleColumnStraddlingACut) {
  const auto pad = [](size_t i) {
    return std::vector<std::string>{std::to_string(i),
                                    std::to_string(i) + ".5"};
  };
  Synthetic probe("");
  AddNanSpellings(&probe);
  for (size_t shift = 0; shift <= probe.text.size(); ++shift) {
    const Synthetic s = Straddle("id,x\n", shift, AddNanSpellings, pad);
    AtEachThreadCount([&](size_t threads) {
      auto t = ReadCsvString(s.text);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      ExpectRows(*t, s, {DataType::kInt64, DataType::kDouble},
                 "shift " + std::to_string(shift) + " threads " +
                     std::to_string(threads));
      EXPECT_EQ(t->column(1).null_count(), 5u);
    });
  }
}

// Ten morsels of int / int / bool / int / empty cells, then one last row
// that flips the first three column types, keeps the fourth, and leaves
// the fifth all null.
TEST(CsvParallel, OneCellInTheLastMorselDecidesTheType) {
  Synthetic s("a,b,c,d,e\n");
  s.Add("-0,007,true,-0,\n", {"-0", "007", "true", "-0", std::nullopt});
  s.PadTo(
      10 * kCsvMorselBytes,
      [](size_t i) -> std::vector<std::string> {
        return {std::to_string(i), std::to_string(i % 7),
                i % 2 == 0 ? "TRUE" : "false", std::to_string(i), "NA"};
      },
      3);
  s.Add("2.5,x,1,9,\n", {"2.5", "x", "1", "9", std::nullopt});

  AtEachThreadCount([&](size_t threads) {
    auto t = ReadCsvString(s.text);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    const std::string label = "threads " + std::to_string(threads);
    EXPECT_EQ(t->schema().field(0).type, DataType::kDouble) << label;
    EXPECT_EQ(t->schema().field(1).type, DataType::kString) << label;
    EXPECT_EQ(t->schema().field(2).type, DataType::kString) << label;
    EXPECT_EQ(t->schema().field(3).type, DataType::kInt64) << label;
    EXPECT_EQ(t->schema().field(4).type, DataType::kString) << label;
    ASSERT_EQ(t->num_rows(), s.rows.size()) << label;
    // An integer cell of a column that ended up double reads as strtod
    // reads it: "-0" is -0.0, not +0.0.
    EXPECT_TRUE(std::signbit(t->column(0).DoubleAt(0))) << label;
    EXPECT_EQ(t->column(0).DoubleAt(s.rows.size() - 1), 2.5) << label;
    // Cells of a column that ended up string keep their text.
    EXPECT_EQ(t->column(1).StringAt(0), "007") << label;
    EXPECT_EQ(t->column(2).StringAt(0), "true") << label;
    EXPECT_EQ(t->column(2).StringAt(2), "TRUE") << label;
    EXPECT_EQ(t->column(3).IntAt(0), 0) << label;
    EXPECT_EQ(t->column(4).null_count(), s.rows.size()) << label;
  });
}

TEST(CsvParallel, AllNullColumnAcrossMorsels) {
  const size_t rows = 3 * kCsvMorselBytes / 8;
  std::string text = "id,empty\n";
  for (size_t r = 0; r < rows; ++r) {
    text += std::to_string(r) + (r % 3 == 0 ? ",NA\n" : ",\n");
  }
  AtEachThreadCount([&](size_t threads) {
    auto t = ReadCsvString(text);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    EXPECT_EQ(t->schema().field(0).type, DataType::kInt64) << threads;
    EXPECT_EQ(t->schema().field(1).type, DataType::kString) << threads;
    EXPECT_EQ(t->num_rows(), rows) << threads;
    EXPECT_EQ(t->column(1).null_count(), rows) << threads;
  });
}

// The message every thread count must produce for `text`.
void ExpectErrorAtEachThreadCount(const std::string& text,
                                  const CsvReadOptions& options,
                                  const std::string& message) {
  AtEachThreadCount([&](size_t threads) {
    auto t = ReadCsvString(text, options);
    ASSERT_FALSE(t.ok()) << "threads " << threads;
    EXPECT_EQ(t.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(t.status().message(), message) << "threads " << threads;
  });
}

// Ten morsels of "i,p<i>" rows with a blank line every 100 rows, so data
// rows and records differ in number.
std::string TenMorsels(size_t* data_rows) {
  std::string text = "n,s\n";
  size_t rows = 0;
  while (text.size() < 10 * kCsvMorselBytes) {
    text += std::to_string(rows) + ",p" + std::to_string(rows) + "\n";
    ++rows;
    if (rows % 100 == 0) text += "\n";
  }
  *data_rows = rows;
  return text;
}

TEST(CsvParallel, ErrorsInTheLastMorselNameGlobalPositions) {
  size_t rows = 0;
  const std::string body = TenMorsels(&rows);

  // A short record: the byte offset is the record's start in the input.
  ExpectErrorAtEachThreadCount(
      body + "17\n", {},
      "CSV record at byte " + std::to_string(body.size()) +
          " has 1 fields, expected 2");
  // A quote left open to end of input.
  ExpectErrorAtEachThreadCount(
      body + "1,\"open\n2,3\n", {},
      "unterminated quoted field in CSV record at byte " +
          std::to_string(body.size()));
  // A declared column's bad cell: the data row counts over every morsel,
  // skipping blank lines.
  CsvReadOptions declared;
  declared.declared_types["n"] = DataType::kInt64;
  ExpectErrorAtEachThreadCount(
      body + "x,y\n", declared,
      "cell 'x' in column 'n' (data row " + std::to_string(rows + 1) +
          ") does not parse as declared type int64");
}

TEST(CsvParallel, ErrorPrecedenceAcrossMorsels) {
  size_t rows = 0;
  const std::string body = TenMorsels(&rows);
  CsvReadOptions declared;
  declared.declared_types["n"] = DataType::kInt64;
  declared.declared_types["s"] = DataType::kBool;

  // Column s (index 1) breaks its type in the first row, column n
  // (index 0) only in the last: the lowest column index wins.
  std::string text = body + "x,true\n";
  ExpectErrorAtEachThreadCount(
      text, declared,
      "cell 'x' in column 'n' (data row " + std::to_string(rows + 1) +
          ") does not parse as declared type int64");

  // A structural error beats any type violation, and the first one in
  // file order wins over a later one.
  const size_t early = body.find("\n", 3 * kCsvMorselBytes) + 1;
  text = body.substr(0, early) + "1,2,3\n" + body.substr(early) + "9\n";
  ExpectErrorAtEachThreadCount(text, declared,
                               "CSV record at byte " + std::to_string(early) +
                                   " has 3 fields, expected 2");

  // A bad declaration beats a type violation.
  declared.declared_types["missing"] = DataType::kInt64;
  ExpectErrorAtEachThreadCount(body, declared,
                               "declared type for unknown CSV column "
                               "'missing'");
}

}  // namespace
}  // namespace mesa
