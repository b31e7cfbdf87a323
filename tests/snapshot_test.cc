// Tests for the binary snapshot container (src/snapshot/,
// docs/snapshot_format.md):
//
//  - a seeded round-trip property suite: 20 random tables (every type,
//    null-heavy, all-null, empty) plus KGs must come back value- and
//    fingerprint-identical, and re-serializing must be byte-identical
//    (the writer is deterministic);
//  - hostile-input suites: truncation at every byte boundary, bad magic,
//    future version, flipped payload bytes, misaligned section offsets,
//    out-of-bounds dictionary codes and a repeated column-dictionary
//    entry must all yield a clean error Status — never a crash — with
//    checksum verification on AND off;
//  - serving parity: a Router over a NAME=file.msnap dataset must reply
//    byte-identically to a Router over the CSV + KG the snapshot was
//    built from, at 1, 2, and 8 pool threads.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "datagen/registry.h"
#include "kg/serialization.h"
#include "serve/json.h"
#include "serve/router.h"
#include "snapshot/crc32c.h"
#include "snapshot/format.h"
#include "snapshot/reader.h"
#include "snapshot/writer.h"
#include "table/csv.h"

namespace mesa {
namespace snapshot {
namespace {

// std::string storage has no alignment guarantee; FromBuffer requires an
// 8-aligned base, so tests stage images in a u64-backed holder.
struct AlignedImage {
  explicit AlignedImage(const std::string& bytes)
      : words((bytes.size() + 7) / 8, 0), size(bytes.size()) {
    // An empty image has no buffer; memcpy from/to null is undefined.
    if (size > 0) std::memcpy(words.data(), bytes.data(), size);
  }
  const uint8_t* data() const {
    return reinterpret_cast<const uint8_t*>(words.data());
  }
  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(words.data()), size);
  }
  std::vector<uint64_t> words;
  size_t size;
};

Result<SnapshotReader> OpenImage(const std::shared_ptr<AlignedImage>& image,
                                 const SnapshotReadOptions& options = {}) {
  return SnapshotReader::FromBuffer(image->data(), image->size, image,
                                    options);
}

// A random table exercising every column type and null pattern. Seed 0
// is the empty table (columns, no rows); every seed gets one all-null
// column.
Table MakeRandomTable(uint64_t seed) {
  Rng rng(MixSeed(0xA11CE, seed));
  const size_t rows = seed == 0 ? 0 : rng.NextBelow(60) + 1;
  const char* words[] = {"", "alpha", "beta", "gamma", "delta", "épsilon"};

  Column doubles(DataType::kDouble);
  Column ints(DataType::kInt64);
  Column strings(DataType::kString);
  Column bools(DataType::kBool);
  Column all_null(DataType::kDouble);
  for (size_t row = 0; row < rows; ++row) {
    if (rng.NextBernoulli(0.2)) {
      doubles.AppendNull();
    } else {
      doubles.AppendDouble(rng.NextGaussian());
    }
    if (rng.NextBernoulli(0.2)) {
      ints.AppendNull();
    } else {
      ints.AppendInt(rng.NextInt(-1000, 1000));
    }
    if (rng.NextBernoulli(0.2)) {
      strings.AppendNull();
    } else {
      strings.AppendString(words[rng.NextBelow(6)]);
    }
    if (rng.NextBernoulli(0.2)) {
      bools.AppendNull();
    } else {
      bools.AppendBool(rng.NextBernoulli(0.5));
    }
    all_null.AppendNull();
  }

  auto table = Table::Make(
      Schema({{"d", DataType::kDouble},
              {"i", DataType::kInt64},
              {"s", DataType::kString},
              {"b", DataType::kBool},
              {"dead", DataType::kDouble}}),
      {std::move(doubles), std::move(ints), std::move(strings),
       std::move(bools), std::move(all_null)});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return std::move(*table);
}

// A random KG exercising every literal type, edges, and (possibly
// ambiguous) aliases.
TripleStore MakeKg(uint64_t seed) {
  Rng rng(MixSeed(0xBEEF, seed));
  TripleStore kg;
  const size_t entities = rng.NextBelow(20) + 2;
  for (size_t i = 0; i < entities; ++i) {
    auto id = kg.AddEntity("entity-" + std::to_string(i),
                           i % 2 == 0 ? "Even" : "Odd");
    EXPECT_TRUE(id.ok());
    if (rng.NextBernoulli(0.5)) {
      // "shared" is deliberately ambiguous across entities.
      EXPECT_TRUE(kg.AddAlias(*id, "shared").ok());
    }
    if (rng.NextBernoulli(0.3)) {
      EXPECT_TRUE(kg.AddAlias(*id, "alias-" + std::to_string(i)).ok());
    }
  }
  const size_t triples = rng.NextBelow(60) + 5;
  for (size_t i = 0; i < triples; ++i) {
    EntityId subject = static_cast<EntityId>(rng.NextBelow(entities));
    switch (rng.NextBelow(6)) {
      case 0:
        EXPECT_TRUE(kg.AddLiteral(subject, "weight",
                                  Value::Double(rng.NextGaussian()))
                        .ok());
        break;
      case 1:
        EXPECT_TRUE(
            kg.AddLiteral(subject, "rank", Value::Int(rng.NextInt(0, 99)))
                .ok());
        break;
      case 2:
        EXPECT_TRUE(kg.AddLiteral(subject, "flag",
                                  Value::Bool(rng.NextBernoulli(0.5)))
                        .ok());
        break;
      case 3:
        EXPECT_TRUE(
            kg.AddLiteral(subject, "note",
                          Value::String("n" + std::to_string(rng.NextBelow(9))))
                .ok());
        break;
      case 4:
        EXPECT_TRUE(kg.AddLiteral(subject, "missing", Value::Null()).ok());
        break;
      default:
        EXPECT_TRUE(
            kg.AddEdge(subject, "linked_to",
                       static_cast<EntityId>(rng.NextBelow(entities)))
                .ok());
        break;
    }
  }
  return kg;
}

std::string MustSerialize(const Table& table, const TripleStore* kg,
                          std::vector<std::string> extraction = {}) {
  SnapshotWriter writer;
  writer.SetTable(&table);
  if (kg != nullptr) writer.SetKg(kg);
  writer.SetExtractionColumns(std::move(extraction));
  auto bytes = writer.Serialize();
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return std::move(*bytes);
}

void ExpectTablesEqual(const Table& expected, const Table& actual) {
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  ASSERT_EQ(expected.num_columns(), actual.num_columns());
  EXPECT_TRUE(expected.schema() == actual.schema())
      << expected.schema().ToString() << " vs " << actual.schema().ToString();
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const Column& want = expected.column(c);
    const Column& got = actual.column(c);
    EXPECT_EQ(want.null_count(), got.null_count());
    EXPECT_EQ(want.ContentFingerprint(), got.ContentFingerprint())
        << "column " << expected.schema().field(c).name;
    for (size_t row = 0; row < expected.num_rows(); ++row) {
      EXPECT_TRUE(want.GetValue(row) == got.GetValue(row))
          << "column " << c << " row " << row;
    }
  }
}

TEST(SnapshotRoundTrip, TwentySeededDatasets) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Table table = MakeRandomTable(seed);
    TripleStore kg = MakeKg(seed);
    const bool with_kg = seed % 3 != 2;  // every shape: with and without KG.
    std::string bytes =
        MustSerialize(table, with_kg ? &kg : nullptr,
                      with_kg ? std::vector<std::string>{"a", "b"}
                              : std::vector<std::string>{});
    auto image = std::make_shared<AlignedImage>(bytes);
    auto reader = OpenImage(image);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ASSERT_EQ(with_kg, reader->has_kg());

    auto loaded = reader->ReadTable();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectTablesEqual(table, *loaded);

    if (with_kg) {
      auto loaded_kg = reader->ReadKg();
      ASSERT_TRUE(loaded_kg.ok()) << loaded_kg.status().ToString();
      // The text serialization is a canonical rendering (ids, aliases,
      // triples in insertion order), so string equality is KG equality.
      EXPECT_EQ(WriteKgString(kg), WriteKgString(**loaded_kg));
      EXPECT_EQ(reader->extraction_columns(),
                (std::vector<std::string>{"a", "b"}));
    }

    // Determinism: the same bundle re-serialized (from the borrowed
    // table!) is byte-identical.
    auto reloaded_kg =
        with_kg ? *reader->ReadKg() : std::shared_ptr<TripleStore>();
    EXPECT_EQ(bytes,
              MustSerialize(*loaded, reloaded_kg.get(),
                            with_kg ? std::vector<std::string>{"a", "b"}
                                    : std::vector<std::string>{}));
  }
}

TEST(SnapshotRoundTrip, BorrowedColumnsDetachOnWrite) {
  Table table = MakeRandomTable(7);
  std::string bytes = MustSerialize(table, nullptr);
  auto image = std::make_shared<AlignedImage>(bytes);
  auto reader = OpenImage(image);
  ASSERT_TRUE(reader.ok());
  auto loaded = reader->ReadTable();
  ASSERT_TRUE(loaded.ok());

  Column& column = loaded->mutable_column(0);
  ASSERT_TRUE(column.is_borrowed());
  const size_t rows = column.size();
  ASSERT_GT(rows, 0u);
  ASSERT_TRUE(column.Set(0, Value::Double(42.0)).ok());
  EXPECT_FALSE(column.is_borrowed());
  EXPECT_EQ(42.0, column.DoubleAt(0));
  // The mutation detached a private copy; the mapping (and a second read
  // of the same snapshot) is untouched.
  auto again = reader->ReadTable();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->column(0).is_borrowed());
  EXPECT_TRUE(table.column(0).GetValue(0) == again->column(0).GetValue(0));
}

TEST(SnapshotRoundTrip, BorrowedStringColumnDetachesWithValuesUnchanged) {
  Table table = MakeRandomTable(9);
  std::string bytes = MustSerialize(table, nullptr);
  auto image = std::make_shared<AlignedImage>(bytes);
  auto reader = OpenImage(image);
  ASSERT_TRUE(reader.ok());
  auto loaded = reader->ReadTable();
  ASSERT_TRUE(loaded.ok());

  Column& column = loaded->mutable_column(2);
  ASSERT_EQ(column.type(), DataType::kString);
  ASSERT_TRUE(column.is_borrowed());
  const Column before = column;
  const size_t rows = column.size();
  ASSERT_GT(rows, 1u);
  const uint64_t fingerprint = column.ContentFingerprint();
  // Appending a string the dictionary already holds detaches the column
  // by copying its code run; every old row reads as before.
  column.AppendString(before.dictionary().front());
  EXPECT_FALSE(column.is_borrowed());
  EXPECT_NE(column.code_data(), before.code_data());
  ASSERT_EQ(column.size(), rows + 1);
  for (size_t row = 0; row < rows; ++row) {
    ASSERT_EQ(column.IsValid(row), before.IsValid(row)) << row;
    ASSERT_EQ(column.StringAt(row), before.StringAt(row)) << row;
  }
  EXPECT_EQ(column.StringAt(rows), before.dictionary().front());
  EXPECT_EQ(column.dictionary(), before.dictionary());
  // The borrowed copy still reads the mapping, unchanged.
  EXPECT_TRUE(before.is_borrowed());
  EXPECT_EQ(before.ContentFingerprint(), fingerprint);
  EXPECT_EQ(before.ContentFingerprint(), table.column(2).ContentFingerprint());
}

TEST(SnapshotRoundTrip, TableOnlySnapshotHasNoKg) {
  Table table = MakeRandomTable(3);
  std::string bytes = MustSerialize(table, nullptr);
  auto image = std::make_shared<AlignedImage>(bytes);
  auto reader = OpenImage(image);
  ASSERT_TRUE(reader.ok());
  EXPECT_FALSE(reader->has_kg());
  auto kg = reader->ReadKg();
  EXPECT_FALSE(kg.ok());
  EXPECT_EQ(StatusCode::kNotFound, kg.status().code());
}

TEST(SnapshotRoundTrip, FileRoundTrip) {
  Table table = MakeRandomTable(11);
  TripleStore kg = MakeKg(11);
  SnapshotWriter writer;
  writer.SetTable(&table);
  writer.SetKg(&kg);
  writer.SetExtractionColumns({"x"});
  const std::string path = testing::TempDir() + "/snapshot_test." +
                           std::to_string(::getpid()) + ".msnap";
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = SnapshotReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto loaded = reader->ReadTable();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectTablesEqual(table, *loaded);
  auto loaded_kg = reader->ReadKg();
  ASSERT_TRUE(loaded_kg.ok());
  EXPECT_EQ(WriteKgString(kg), WriteKgString(**loaded_kg));

  // The zero-copy views must outlive the reader: drop it, then read.
  Table survives = std::move(*loaded);
  reader = Status::InvalidArgument("dropped");
  uint64_t fingerprint_sum = 0;
  for (size_t c = 0; c < survives.num_columns(); ++c) {
    fingerprint_sum += survives.column(c).ContentFingerprint();
  }
  EXPECT_NE(0u, fingerprint_sum);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hostile inputs. Every mutation below must produce a clean error Status
// (run under ASan/UBSan in CI — see .github/workflows/ci.yml).

class SnapshotHostileTest : public testing::Test {
 protected:
  void SetUp() override {
    table_ = MakeRandomTable(5);
    kg_ = MakeKg(5);
    bytes_ = MustSerialize(table_, &kg_, {"a"});
  }

  // Opens a mutated image with checksums on or off; the table and KG are
  // also read so section-level validation runs, not just the envelope.
  static Status TryLoad(const std::string& bytes, bool verify) {
    auto image = std::make_shared<AlignedImage>(bytes);
    SnapshotReadOptions options;
    options.verify_checksums = verify;
    auto reader = OpenImage(image, options);
    if (!reader.ok()) return reader.status();
    auto table = reader->ReadTable();
    if (!table.ok()) return table.status();
    if (reader->has_kg()) {
      auto kg = reader->ReadKg();
      if (!kg.ok()) return kg.status();
    }
    return Status::OK();
  }

  Footer ReadFooter() const {
    Footer footer;
    std::memcpy(&footer, bytes_.data() + bytes_.size() - sizeof(Footer),
                sizeof(Footer));
    return footer;
  }

  std::vector<SectionEntry> ReadSections(const Footer& footer) const {
    std::vector<SectionEntry> sections(footer.section_count);
    std::memcpy(sections.data(), bytes_.data() + footer.section_table_offset,
                footer.section_count * sizeof(SectionEntry));
    return sections;
  }

  // Writes back a section entry and refreshes the table CRC in the
  // footer, so envelope checks pass and the mutation under test is the
  // first thing the reader can object to.
  void PatchSection(std::string* bytes, const Footer& footer, size_t index,
                    const SectionEntry& entry) const {
    std::memcpy(bytes->data() + footer.section_table_offset +
                    index * sizeof(SectionEntry),
                &entry, sizeof(entry));
    const uint32_t table_crc =
        Crc32c(bytes->data() + footer.section_table_offset,
               footer.section_count * sizeof(SectionEntry));
    const size_t crc_offset = bytes->size() - sizeof(Footer) +
                              offsetof(Footer, section_table_crc32c);
    std::memcpy(bytes->data() + crc_offset, &table_crc, sizeof(table_crc));
  }

  Table table_;
  TripleStore kg_;
  std::string bytes_;
};

TEST_F(SnapshotHostileTest, TruncationAtEveryLength) {
  // Every proper prefix must fail cleanly; only the full image loads.
  // Stride 1 over the whole file keeps the sweep honest (the file is a
  // few KB) without making the test slow.
  ASSERT_TRUE(TryLoad(bytes_, /*verify=*/true).ok());
  for (size_t len = 0; len < bytes_.size(); ++len) {
    Status status = TryLoad(bytes_.substr(0, len), /*verify=*/true);
    ASSERT_FALSE(status.ok()) << "truncation to " << len << " bytes loaded";
  }
}

TEST_F(SnapshotHostileTest, BadMagic) {
  std::string bytes = bytes_;
  bytes[0] ^= 0x5A;
  Status status = TryLoad(bytes, /*verify=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string::npos, status.message().find("magic"))
      << status.ToString();
}

TEST_F(SnapshotHostileTest, FutureVersionIsRejected) {
  std::string bytes = bytes_;
  const uint32_t future = kVersion + 1;
  std::memcpy(bytes.data() + offsetof(Header, version), &future,
              sizeof(future));
  Status status = TryLoad(bytes, /*verify=*/true);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(std::string::npos, status.message().find("version"))
      << status.ToString();
}

TEST_F(SnapshotHostileTest, FlippedPayloadByteFailsChecksum) {
  const Footer footer = ReadFooter();
  const std::vector<SectionEntry> sections = ReadSections(footer);
  // Flip the first byte of every non-empty section payload in turn.
  for (const SectionEntry& entry : sections) {
    if (entry.size == 0) continue;
    std::string bytes = bytes_;
    bytes[entry.offset] ^= 0xFF;
    Status status = TryLoad(bytes, /*verify=*/true);
    ASSERT_FALSE(status.ok()) << "flip in section kind " << entry.kind;
    EXPECT_NE(std::string::npos, status.message().find("checksum"))
        << status.ToString();
  }
}

TEST_F(SnapshotHostileTest, MisalignedSectionOffset) {
  const Footer footer = ReadFooter();
  std::vector<SectionEntry> sections = ReadSections(footer);
  std::string bytes = bytes_;
  SectionEntry entry = sections[0];
  entry.offset += 4;  // breaks the 8-alignment invariant.
  PatchSection(&bytes, footer, 0, entry);
  for (bool verify : {true, false}) {
    Status status = TryLoad(bytes, verify);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos, status.message().find("aligned"))
        << status.ToString();
  }
}

TEST_F(SnapshotHostileTest, SectionBeyondFileBounds) {
  const Footer footer = ReadFooter();
  std::vector<SectionEntry> sections = ReadSections(footer);
  std::string bytes = bytes_;
  SectionEntry entry = sections[0];
  entry.size = bytes.size() * 2;
  PatchSection(&bytes, footer, 0, entry);
  for (bool verify : {true, false}) {
    Status status = TryLoad(bytes, verify);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos, status.message().find("bounds"))
        << status.ToString();
  }
}

TEST_F(SnapshotHostileTest, OutOfBoundsDictionaryCode) {
  const Footer footer = ReadFooter();
  const std::vector<SectionEntry> sections = ReadSections(footer);
  // Find the string column's code array and point its first code past
  // the dictionary. With verification off, the unconditional structural
  // gate must still catch it before any borrowed view is formed.
  bool found = false;
  for (const SectionEntry& entry : sections) {
    if (entry.kind != static_cast<uint32_t>(SectionKind::kColumnDictCodes) ||
        entry.size < sizeof(uint32_t)) {
      continue;
    }
    found = true;
    std::string bytes = bytes_;
    const uint32_t huge = 0x7FFFFFFF;
    std::memcpy(bytes.data() + entry.offset, &huge, sizeof(huge));
    Status status = TryLoad(bytes, /*verify=*/false);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(std::string::npos, status.message().find("code out of range"))
        << status.ToString();
    // With verification on, the checksum trips first — either way, a
    // clean error.
    EXPECT_FALSE(TryLoad(bytes, /*verify=*/true).ok());
  }
  ASSERT_TRUE(found) << "test table lost its string column";
}

TEST_F(SnapshotHostileTest, RepeatedColumnDictionaryEntry) {
  // A column whose dictionary is "alpha", "gamma", "" (null rows code "").
  auto table = Table::Make(
      Schema({{"s", DataType::kString}}),
      {Column::FromStrings({"alpha", "gamma", "alpha", ""}, {1, 1, 1, 0})});
  ASSERT_TRUE(table.ok());
  bytes_ = MustSerialize(*table, nullptr);
  ASSERT_TRUE(TryLoad(bytes_, /*verify=*/true).ok());

  // Overwrite "gamma" with "alpha" in the dictionary blob and refresh the
  // section checksum, so only the repeated entry is wrong.
  const Footer footer = ReadFooter();
  const std::vector<SectionEntry> sections = ReadSections(footer);
  bool found = false;
  for (size_t i = 0; i < sections.size(); ++i) {
    SectionEntry entry = sections[i];
    if (entry.kind != static_cast<uint32_t>(SectionKind::kColumnDict)) {
      continue;
    }
    found = true;
    std::string bytes = bytes_;
    const size_t gamma = bytes.find("gamma", entry.offset);
    ASSERT_LT(gamma, entry.offset + entry.size);
    bytes.replace(gamma, 5, "alpha");
    entry.crc32c = Crc32c(bytes.data() + entry.offset, entry.size);
    PatchSection(&bytes, footer, i, entry);
    for (bool verify : {true, false}) {
      Status status = TryLoad(bytes, verify);
      ASSERT_FALSE(status.ok()) << "verify " << verify;
      EXPECT_EQ(StatusCode::kInvalidArgument, status.code());
      EXPECT_NE(std::string::npos, status.message().find("repeats"))
          << status.ToString();
    }
  }
  ASSERT_TRUE(found) << "no column dictionary section";
}

TEST_F(SnapshotHostileTest, ValidNanInDoubleColumn) {
  // A Column never holds a valid NaN, so the reader must not borrow one.
  auto table = Table::Make(Schema({{"x", DataType::kDouble}}),
                           {Column::FromDoubles({1.5, 2.5, 0.0}, {1, 1, 0})});
  ASSERT_TRUE(table.ok());
  bytes_ = MustSerialize(*table, nullptr);
  ASSERT_TRUE(TryLoad(bytes_, /*verify=*/true).ok());

  const Footer footer = ReadFooter();
  const std::vector<SectionEntry> sections = ReadSections(footer);
  bool found = false;
  for (size_t i = 0; i < sections.size(); ++i) {
    SectionEntry entry = sections[i];
    if (entry.kind != static_cast<uint32_t>(SectionKind::kColumnPayload)) {
      continue;
    }
    found = true;
    ASSERT_EQ(entry.size, 3 * sizeof(double));
    const double nan = std::nan("");
    // Under the null row a NaN is a dead payload and loads; under a
    // valid row it is rejected with a clean status, checksums on or off.
    for (size_t row : {size_t{2}, size_t{1}}) {
      std::string bytes = bytes_;
      std::memcpy(bytes.data() + entry.offset + row * sizeof(double), &nan,
                  sizeof(nan));
      entry.crc32c = Crc32c(bytes.data() + entry.offset, entry.size);
      PatchSection(&bytes, footer, i, entry);
      for (bool verify : {true, false}) {
        Status status = TryLoad(bytes, verify);
        if (row == 2) {
          EXPECT_TRUE(status.ok()) << status.ToString();
          continue;
        }
        ASSERT_FALSE(status.ok()) << "verify " << verify;
        EXPECT_EQ(StatusCode::kInvalidArgument, status.code());
        EXPECT_NE(std::string::npos, status.message().find("row 1 holds a NaN"))
            << status.ToString();
      }
    }
  }
  ASSERT_TRUE(found) << "no column payload section";
}

TEST_F(SnapshotHostileTest, GarbageFiles) {
  Rng rng(99);
  for (size_t trial = 0; trial < 50; ++trial) {
    std::string garbage(rng.NextBelow(4096), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextBelow(256));
    EXPECT_FALSE(TryLoad(garbage, /*verify=*/true).ok());
  }
  EXPECT_FALSE(TryLoad(std::string(), /*verify=*/true).ok());
  EXPECT_FALSE(TryLoad(std::string(4096, '\0'), /*verify=*/true).ok());
}

TEST_F(SnapshotHostileTest, MissingFileIsCleanError) {
  auto reader = SnapshotReader::Open("/nonexistent/path/to.msnap");
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(StatusCode::kIOError, reader.status().code());
}

// ---------------------------------------------------------------------------
// Serving parity: NAME=file.msnap must answer byte-identically to the
// CSV + KG it was built from, across the thread-count sweep.

TEST(SnapshotServeParity, RepliesMatchCsvAcrossThreadCounts) {
  GenOptions gen;
  gen.rows = 1500;
  auto dataset = MakeDataset(DatasetKind::kCovid, gen);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();

  const std::string tag = std::to_string(::getpid());
  const std::string csv = testing::TempDir() + "/snap_parity." + tag + ".csv";
  const std::string kg = testing::TempDir() + "/snap_parity." + tag + ".kg";
  const std::string snap =
      testing::TempDir() + "/snap_parity." + tag + ".msnap";
  ASSERT_TRUE(WriteCsvFile(dataset->table, csv).ok());
  ASSERT_TRUE(WriteKgFile(*dataset->kg, kg).ok());
  SnapshotWriter writer;
  writer.SetTable(&dataset->table);
  writer.SetKg(dataset->kg.get());
  writer.SetExtractionColumns(dataset->extraction_columns);
  ASSERT_TRUE(writer.WriteFile(snap).ok());

  const std::vector<std::string> requests = {
      R"({"verb":"explain","dataset":"covid","sql":)"
      R"("SELECT Country, avg(Deaths_per_100_cases) FROM covid GROUP BY Country"})",
      R"({"verb":"explain","dataset":"covid","sql":)"
      R"("SELECT WHO_Region, avg(Confirmed_per_100k) FROM covid GROUP BY WHO_Region"})",
  };

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetNumThreads(threads);

    serve::Router csv_router{serve::RouterOptions{}};
    serve::Router::DatasetSpec csv_spec;
    csv_spec.name = "covid";
    csv_spec.csv_path = csv;
    csv_spec.kg_path = kg;
    csv_spec.extraction_columns = dataset->extraction_columns;
    ASSERT_TRUE(csv_router.AddDataset(csv_spec).ok());

    serve::Router snap_router{serve::RouterOptions{}};
    serve::Router::DatasetSpec snap_spec;
    snap_spec.name = "covid";
    snap_spec.snapshot_path = snap;
    ASSERT_TRUE(snap_router.AddDataset(snap_spec).ok());

    for (const std::string& request : requests) {
      auto csv_reply =
          serve::JsonValue::Parse(csv_router.Handle(request).reply_line);
      auto snap_reply =
          serve::JsonValue::Parse(snap_router.Handle(request).reply_line);
      ASSERT_TRUE(csv_reply.ok() && snap_reply.ok());
      EXPECT_TRUE(csv_reply->GetBool("ok")) << csv_reply->GetString("error");
      EXPECT_EQ(csv_reply->GetBool("ok"), snap_reply->GetBool("ok"));
      // The report is the full formatted explanation; byte equality here
      // is the acceptance bar (trace ids legitimately differ).
      EXPECT_EQ(csv_reply->GetString("report"),
                snap_reply->GetString("report"));
      EXPECT_EQ(csv_reply->GetString("code"), snap_reply->GetString("code"));
    }
  }
  SetNumThreads(1);  // leave a predictable pool for other tests.

  std::remove(csv.c_str());
  std::remove(kg.c_str());
  std::remove(snap.c_str());
}

}  // namespace
}  // namespace snapshot
}  // namespace mesa
