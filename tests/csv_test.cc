#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "stats/discretizer.h"
#include "table/csv.h"

namespace mesa {
namespace {

TEST(CsvRead, BasicTypeInference) {
  auto t = ReadCsvString("a,b,c,d\n1,1.5,x,true\n2,2.5,y,false\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->schema().field(1).type, DataType::kDouble);
  EXPECT_EQ(t->schema().field(2).type, DataType::kString);
  EXPECT_EQ(t->schema().field(3).type, DataType::kBool);
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetCell(1, "a")->int_value(), 2);
  EXPECT_TRUE(t->GetCell(1, "d")->is_bool());
}

TEST(CsvRead, IntColumnWithDecimalBecomesDouble) {
  auto t = ReadCsvString("x\n1\n2.5\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kDouble);
}

TEST(CsvRead, NullTokens) {
  auto t = ReadCsvString("x,y\n1,a\n,b\nNA,c\nnull,d\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t->column(0).null_count(), 3u);
}

// strtod reads "-nan" and "NaN(7)" as NaN; such cells of a double column
// are null like the "nan" token, on both the inferred and the declared
// path, or the discretizer would code them like a real value.
TEST(CsvRead, NanSpellingsInDoubleColumnsAreNull) {
  const std::string text = "x\n1.5\nnan\n-nan\nNaN(7)\n2.5\n0.5\n";
  CsvReadOptions declared;
  declared.declared_types = {{"x", DataType::kDouble}};
  for (const CsvReadOptions& options : {CsvReadOptions{}, declared}) {
    auto t = ReadCsvString(text, options);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    ASSERT_EQ(t->schema().field(0).type, DataType::kDouble);
    EXPECT_EQ(t->column(0).null_count(), 3u);
    for (size_t r : {1, 2, 3}) EXPECT_TRUE(t->column(0).IsNull(r)) << r;
    auto coded = DiscretizeColumn(*t, "x");
    ASSERT_TRUE(coded.ok()) << coded.status().ToString();
    EXPECT_EQ(coded->codes, (std::vector<int32_t>{1, -1, -1, -1, 2, 0}));
  }
  // In a string column the same spellings stay text.
  auto s = ReadCsvString("s\n-nan\nNaN(7)\nabc\n");
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(s->schema().field(0).type, DataType::kString);
  EXPECT_EQ(s->column(0).null_count(), 0u);
  EXPECT_EQ(s->column(0).StringAt(0), "-nan");
}

TEST(CsvRead, QuotedFields) {
  auto t = ReadCsvString(
      "name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\nplain,\"multi\nline\"\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetCell(0, "name")->string_value(), "Smith, John");
  EXPECT_EQ(t->GetCell(0, "notes")->string_value(), "said \"hi\"");
  EXPECT_EQ(t->GetCell(1, "notes")->string_value(), "multi\nline");
}

TEST(CsvRead, CrLfLineEndings) {
  auto t = ReadCsvString("a,b\r\n1,2\r\n3,4\r\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->GetCell(1, "b")->int_value(), 4);
}

TEST(CsvRead, RejectsRaggedRecords) {
  auto t = ReadCsvString("a,b\n1,2\n3\n");
  EXPECT_FALSE(t.ok());
}

TEST(CsvRead, RejectsEmptyInput) { EXPECT_FALSE(ReadCsvString("").ok()); }

TEST(CsvRead, HeaderOnly) {
  auto t = ReadCsvString("a,b\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->num_rows(), 0u);
  EXPECT_EQ(t->num_columns(), 2u);
}

TEST(CsvRead, AllNullColumnDegradesToString) {
  auto t = ReadCsvString("a,b\n,1\n,2\n");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->schema().field(0).type, DataType::kString);
  EXPECT_EQ(t->column(0).null_count(), 2u);
}

TEST(CsvRead, CustomDelimiter) {
  CsvReadOptions opts;
  opts.delimiter = ';';
  auto t = ReadCsvString("a;b\n1;2\n", opts);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->GetCell(0, "b")->int_value(), 2);
}

TEST(CsvRoundTrip, PreservesData) {
  const std::string csv = "id,name,score\n1,alpha,0.5\n2,\"beta, the 2nd\",1.5\n";
  auto t = ReadCsvString(csv);
  ASSERT_TRUE(t.ok());
  std::string out = WriteCsvString(*t);
  auto t2 = ReadCsvString(out);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->num_rows(), t->num_rows());
  for (size_t r = 0; r < t->num_rows(); ++r) {
    for (size_t c = 0; c < t->num_columns(); ++c) {
      EXPECT_EQ(t->column(c).GetValue(r), t2->column(c).GetValue(r))
          << "cell " << r << "," << c;
    }
  }
}

TEST(CsvRoundTrip, NullsRenderAsEmpty) {
  auto t = ReadCsvString("a,b\n1,\n,2\n");
  ASSERT_TRUE(t.ok());
  std::string out = WriteCsvString(*t);
  auto t2 = ReadCsvString(out);
  ASSERT_TRUE(t2.ok());
  EXPECT_TRUE(t2->column(1).IsNull(0));
  EXPECT_TRUE(t2->column(0).IsNull(1));
}

TEST(CsvFile, WriteAndReadBack) {
  auto t = ReadCsvString("a,b\n1,x\n2,y\n");
  ASSERT_TRUE(t.ok());
  std::string path = testing::TempDir() + "/mesa_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(*t, path).ok());
  auto t2 = ReadCsvFile(path);
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(t2->num_rows(), 2u);
  std::remove(path.c_str());
}

TEST(CsvFile, MissingFileIsIOError) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/nope.csv").status().code(),
            StatusCode::kIOError);
}

TEST(CsvFile, DirectoryIsIOErrorNamingThePath) {
  // A directory opens but cannot be read; that is an I/O failure, not an
  // empty CSV.
  const std::string dir = testing::TempDir();
  auto t = ReadCsvFile(dir);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kIOError);
  EXPECT_NE(t.status().message().find(dir), std::string::npos)
      << t.status().ToString();
}

TEST(CsvRead, LeadingUtf8BomIsNotPartOfTheFirstName) {
  auto t = ReadCsvString("\xEF\xBB\xBF" "a,b\nx,1\n");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->schema().field(0).name, "a");
  EXPECT_EQ(t->GetCell(0, "a")->string_value(), "x");
  EXPECT_EQ(t->GetCell(0, "b")->int_value(), 1);
  // Only one mark is an encoding signature; byte offsets in errors still
  // count it.
  auto twice = ReadCsvString("\xEF\xBB\xBF\xEF\xBB\xBF" "a\nx\n");
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(twice->schema().field(0).name, "\xEF\xBB\xBF" "a");
  auto ragged = ReadCsvString("\xEF\xBB\xBF" "a,b\n1\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.status().message(),
            "CSV record at byte 7 has 1 fields, expected 2");
}

}  // namespace
}  // namespace mesa
