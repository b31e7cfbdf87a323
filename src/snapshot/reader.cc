#include "snapshot/reader.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <string_view>
#include <unordered_set>

#include "common/metrics.h"
#include "snapshot/crc32c.h"
#include "snapshot/mapped_file.h"

namespace mesa {
namespace snapshot {
namespace {

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("snapshot: " + what);
}

/// All struct reads go through memcpy: the mmap base is page-aligned and
/// sections are 8-aligned, but memcpy keeps the reader correct for any
/// future layout and is free on modern compilers.
template <typename T>
T LoadPod(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

bool HostIsLittleEndian() {
  const uint32_t probe = 1;
  return *reinterpret_cast<const uint8_t*>(&probe) == 1;
}

/// Parses a string-list payload (u64 count, u64 cumulative end offsets,
/// concatenated bytes) with full bounds checking.
Result<std::vector<std::string>> ParseStringList(const uint8_t* p, uint64_t n,
                                                 const char* what) {
  const std::string label(what);
  if (n < sizeof(uint64_t)) {
    return Corrupt(label + ": string list shorter than its count field");
  }
  const uint64_t count = LoadPod<uint64_t>(p);
  if (count > (n - sizeof(uint64_t)) / sizeof(uint64_t)) {
    return Corrupt(label + ": string count " + std::to_string(count) +
                   " exceeds section size");
  }
  const uint64_t blob_start = sizeof(uint64_t) * (1 + count);
  const uint64_t blob_size = n - blob_start;
  std::vector<std::string> out;
  out.reserve(count);
  uint64_t prev_end = 0;
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t end = LoadPod<uint64_t>(p + sizeof(uint64_t) * (1 + i));
    if (end < prev_end || end > blob_size) {
      return Corrupt(label + ": string offsets not monotonic within blob");
    }
    out.emplace_back(reinterpret_cast<const char*>(p + blob_start + prev_end),
                     end - prev_end);
    prev_end = end;
  }
  if (prev_end != blob_size) {
    return Corrupt(label + ": trailing bytes after last string");
  }
  return out;
}

bool IsValidDataType(uint32_t type) {
  return type >= static_cast<uint32_t>(DataType::kBool) &&
         type <= static_cast<uint32_t>(DataType::kString);
}

}  // namespace

Result<SnapshotReader> SnapshotReader::Open(
    const std::string& path, const SnapshotReadOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  MESA_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> mapped,
                        MappedFile::Open(path));
  const uint8_t* data = mapped->data();
  const size_t size = mapped->size();
  MESA_ASSIGN_OR_RETURN(
      SnapshotReader reader,
      FromBuffer(data, size, std::move(mapped), options));
  MESA_COUNT("snapshot/open");
  MESA_COUNT_N("snapshot/load_bytes", size);
  using FractionalMs = std::chrono::duration<double, std::milli>;
  const double open_ms =
      FractionalMs(std::chrono::steady_clock::now() - start).count();
  MESA_RECORD("snapshot/open_ms", open_ms);
  return reader;
}

Result<SnapshotReader> SnapshotReader::FromBuffer(
    const uint8_t* data, size_t size, std::shared_ptr<const void> owner,
    const SnapshotReadOptions& options) {
  if (!HostIsLittleEndian()) {
    return Status::FailedPrecondition(
        "snapshot reader requires a little-endian host");
  }
  if (reinterpret_cast<uintptr_t>(data) % kAlignment != 0) {
    return Status::InvalidArgument(
        "snapshot: buffer base address must be 8-aligned");
  }
  SnapshotReader reader;
  reader.data_ = data;
  reader.size_ = size;
  reader.owner_ = std::move(owner);
  MESA_RETURN_IF_ERROR(reader.Validate(options));
  return reader;
}

Status SnapshotReader::Validate(const SnapshotReadOptions& options) {
  if (size_ < sizeof(Header) + sizeof(Footer)) {
    return Corrupt("file of " + std::to_string(size_) +
                   " bytes is too small to hold header and footer");
  }
  const Header header = LoadPod<Header>(data_);
  if (header.magic != kMagic) {
    return Corrupt("bad magic (not a mesa-snapshot file)");
  }
  if (header.version != kVersion) {
    return Corrupt("unsupported format version " +
                   std::to_string(header.version) + " (this build reads v" +
                   std::to_string(kVersion) + " only)");
  }
  if (header.flags != 0) {
    return Corrupt("reserved header flags set");
  }

  const Footer footer = LoadPod<Footer>(data_ + size_ - sizeof(Footer));
  if (footer.footer_magic != kFooterMagic) {
    return Corrupt("bad footer magic (file truncated or overwritten)");
  }
  if (footer.file_size != size_) {
    return Corrupt("footer claims " + std::to_string(footer.file_size) +
                   " bytes, file has " + std::to_string(size_));
  }
  if (footer.reserved != 0) return Corrupt("reserved footer field set");
  if (footer.section_table_offset % kAlignment != 0) {
    return Corrupt("section table offset not 8-aligned");
  }
  const uint64_t table_bytes = size_ - sizeof(Footer);
  if (footer.section_table_offset < sizeof(Header) ||
      footer.section_table_offset > table_bytes ||
      footer.section_count >
          (table_bytes - footer.section_table_offset) / sizeof(SectionEntry)) {
    return Corrupt("section table out of bounds");
  }
  const uint8_t* table = data_ + footer.section_table_offset;
  const uint64_t table_size = footer.section_count * sizeof(SectionEntry);
  if (Crc32c(table, table_size) != footer.section_table_crc32c) {
    return Corrupt("section table checksum mismatch");
  }

  sections_.reserve(footer.section_count);
  for (uint64_t i = 0; i < footer.section_count; ++i) {
    const SectionEntry entry =
        LoadPod<SectionEntry>(table + i * sizeof(SectionEntry));
    if (entry.kind < static_cast<uint32_t>(SectionKind::kTableMeta) ||
        entry.kind > static_cast<uint32_t>(SectionKind::kKgAliasStrings)) {
      return Corrupt("unknown section kind " + std::to_string(entry.kind));
    }
    if (entry.reserved != 0) return Corrupt("reserved section field set");
    if (entry.offset % kAlignment != 0) {
      return Corrupt("section " + std::to_string(entry.kind) +
                     " offset not 8-aligned");
    }
    if (entry.offset < sizeof(Header) ||
        entry.offset > footer.section_table_offset ||
        entry.size > footer.section_table_offset - entry.offset) {
      return Corrupt("section " + std::to_string(entry.kind) +
                     " extends out of bounds");
    }
    if (options.verify_checksums &&
        Crc32c(data_ + entry.offset, entry.size) != entry.crc32c) {
      return Corrupt("section " + std::to_string(entry.kind) + "/" +
                     std::to_string(entry.arg) + " checksum mismatch");
    }
    sections_.push_back(entry);
  }

  if (FindSection(SectionKind::kTableMeta, 0) == nullptr) {
    return Corrupt("missing table section");
  }
  if (const SectionEntry* entry =
          FindSection(SectionKind::kExtractionColumns, 0)) {
    MESA_ASSIGN_OR_RETURN(
        extraction_columns_,
        ParseStringList(data_ + entry->offset, entry->size,
                        "extraction columns"));
  }
  return Status::OK();
}

const SectionEntry* SnapshotReader::FindSection(SectionKind kind,
                                                uint32_t arg) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.kind == static_cast<uint32_t>(kind) && entry.arg == arg) {
      return &entry;
    }
  }
  return nullptr;
}

Result<const uint8_t*> SnapshotReader::RequireSection(
    SectionKind kind, uint32_t arg, uint64_t* size_out) const {
  const SectionEntry* entry = FindSection(kind, arg);
  if (entry == nullptr) {
    return Corrupt("missing section kind " +
                   std::to_string(static_cast<uint32_t>(kind)) + " arg " +
                   std::to_string(arg));
  }
  *size_out = entry->size;
  return data_ + entry->offset;
}

bool SnapshotReader::has_kg() const {
  return FindSection(SectionKind::kKgMeta, 0) != nullptr;
}

Result<Table> SnapshotReader::ReadTable() const {
  uint64_t n = 0;
  MESA_ASSIGN_OR_RETURN(const uint8_t* meta_bytes,
                        RequireSection(SectionKind::kTableMeta, 0, &n));
  if (n != sizeof(TableMeta)) return Corrupt("table meta has wrong size");
  const TableMeta meta = LoadPod<TableMeta>(meta_bytes);
  const uint64_t rows = meta.num_rows;
  // A column needs at least one validity byte per row, so a plausible
  // column count is bounded by the file size; this also bounds the loop
  // below against a hostile huge count.
  if (meta.num_columns > size_) return Corrupt("implausible column count");

  MESA_ASSIGN_OR_RETURN(const uint8_t* schema_bytes,
                        RequireSection(SectionKind::kSchema, 0, &n));
  MESA_ASSIGN_OR_RETURN(std::vector<std::string> names,
                        ParseStringList(schema_bytes, n, "schema"));
  if (names.size() != meta.num_columns) {
    return Corrupt("schema names " + std::to_string(names.size()) +
                   " != column count " + std::to_string(meta.num_columns));
  }

  std::vector<Field> fields;
  std::vector<Column> columns;
  fields.reserve(meta.num_columns);
  columns.reserve(meta.num_columns);
  for (uint32_t i = 0; i < meta.num_columns; ++i) {
    MESA_ASSIGN_OR_RETURN(const uint8_t* column_meta_bytes,
                          RequireSection(SectionKind::kColumnMeta, i, &n));
    if (n != sizeof(ColumnMeta)) {
      return Corrupt("column meta has wrong size");
    }
    const ColumnMeta column_meta = LoadPod<ColumnMeta>(column_meta_bytes);
    if (!IsValidDataType(column_meta.type)) {
      return Corrupt("column " + names[i] + " has invalid type " +
                     std::to_string(column_meta.type));
    }
    if (column_meta.reserved != 0) {
      return Corrupt("reserved column meta field set");
    }
    const DataType type = static_cast<DataType>(column_meta.type);

    MESA_ASSIGN_OR_RETURN(const uint8_t* valid,
                          RequireSection(SectionKind::kColumnValidity, i, &n));
    if (n != rows) {
      return Corrupt("column " + names[i] + " validity size " +
                     std::to_string(n) + " != row count " +
                     std::to_string(rows));
    }
    // Recount rather than trust: null_count feeds statistics and the
    // borrow contract, and the recount touches pages the query would
    // anyway.
    uint64_t null_count = 0;
    for (uint64_t row = 0; row < rows; ++row) {
      if (valid[row] == 0) ++null_count;
    }
    if (null_count != column_meta.null_count) {
      return Corrupt("column " + names[i] + " null count mismatch");
    }

    switch (type) {
      case DataType::kDouble: {
        MESA_ASSIGN_OR_RETURN(
            const uint8_t* payload,
            RequireSection(SectionKind::kColumnPayload, i, &n));
        if (n != rows * sizeof(double)) {
          return Corrupt("column " + names[i] + " payload size mismatch");
        }
        // A Column never holds a valid NaN (it stores one as null), and
        // the writer never emits one.
        const double* doubles = reinterpret_cast<const double*>(payload);
        for (uint64_t row = 0; row < rows; ++row) {
          if (valid[row] != 0 && std::isnan(doubles[row])) {
            return Corrupt("column " + names[i] + " row " +
                           std::to_string(row) + " holds a NaN");
          }
        }
        columns.push_back(
            Column::BorrowDoubles(doubles, valid, rows, null_count, owner_));
        break;
      }
      case DataType::kInt64: {
        MESA_ASSIGN_OR_RETURN(
            const uint8_t* payload,
            RequireSection(SectionKind::kColumnPayload, i, &n));
        if (n != rows * sizeof(int64_t)) {
          return Corrupt("column " + names[i] + " payload size mismatch");
        }
        columns.push_back(Column::BorrowInts(
            reinterpret_cast<const int64_t*>(payload), valid, rows, null_count,
            owner_));
        break;
      }
      case DataType::kBool: {
        MESA_ASSIGN_OR_RETURN(
            const uint8_t* payload,
            RequireSection(SectionKind::kColumnPayload, i, &n));
        if (n != rows) {
          return Corrupt("column " + names[i] + " payload size mismatch");
        }
        columns.push_back(
            Column::BorrowBools(payload, valid, rows, null_count, owner_));
        break;
      }
      case DataType::kString: {
        MESA_ASSIGN_OR_RETURN(
            const uint8_t* codes_bytes,
            RequireSection(SectionKind::kColumnDictCodes, i, &n));
        if (n != rows * sizeof(uint32_t)) {
          return Corrupt("column " + names[i] + " code array size mismatch");
        }
        uint64_t dict_size = 0;
        MESA_ASSIGN_OR_RETURN(
            const uint8_t* dict_bytes,
            RequireSection(SectionKind::kColumnDict, i, &dict_size));
        MESA_ASSIGN_OR_RETURN(
            std::vector<std::string> dict,
            ParseStringList(dict_bytes, dict_size, "column dictionary"));
        // Memory-safety gate (unconditional): every code must index the
        // dictionary, or StringAt would read out of bounds.
        const uint32_t* codes =
            reinterpret_cast<const uint32_t*>(codes_bytes);
        for (uint64_t row = 0; row < rows; ++row) {
          if (codes[row] >= dict.size()) {
            return Corrupt("column " + names[i] + " row " +
                           std::to_string(row) +
                           " dictionary code out of range");
          }
        }
        // Also unconditional: code-based readers (discretizer, distinct
        // counts, the writer) would count a repeated entry twice.
        std::unordered_set<std::string_view> entries;
        entries.reserve(dict.size());
        for (const std::string& entry : dict) {
          if (!entries.insert(entry).second) {
            return Corrupt("column " + names[i] +
                           " dictionary repeats an entry");
          }
        }
        columns.push_back(Column::BorrowStringDict(
            std::move(dict), codes, valid, rows, null_count, owner_));
        break;
      }
      case DataType::kNull:
        return Corrupt("column " + names[i] + " has null type");
    }
    fields.push_back(Field{names[i], type});
  }

  MESA_ASSIGN_OR_RETURN(
      Table table, Table::Make(Schema(std::move(fields)), std::move(columns)));
  MESA_COUNT("snapshot/table_reads");
  return table;
}

Result<std::shared_ptr<TripleStore>> SnapshotReader::ReadKg() const {
  uint64_t n = 0;
  const SectionEntry* meta_entry = FindSection(SectionKind::kKgMeta, 0);
  if (meta_entry == nullptr) {
    return Status::NotFound("snapshot has no knowledge graph");
  }
  if (meta_entry->size != sizeof(KgMeta)) {
    return Corrupt("kg meta has wrong size");
  }
  const KgMeta meta = LoadPod<KgMeta>(data_ + meta_entry->offset);
  if (meta.num_entities > UINT32_MAX || meta.num_predicates > UINT32_MAX) {
    return Corrupt("kg entity/predicate count exceeds id space");
  }

  MESA_ASSIGN_OR_RETURN(const uint8_t* labels_bytes,
                        RequireSection(SectionKind::kKgEntityLabels, 0, &n));
  MESA_ASSIGN_OR_RETURN(std::vector<std::string> labels,
                        ParseStringList(labels_bytes, n, "entity labels"));
  MESA_ASSIGN_OR_RETURN(const uint8_t* types_bytes,
                        RequireSection(SectionKind::kKgEntityTypes, 0, &n));
  MESA_ASSIGN_OR_RETURN(std::vector<std::string> types,
                        ParseStringList(types_bytes, n, "entity types"));
  if (labels.size() != meta.num_entities || types.size() != meta.num_entities) {
    return Corrupt("entity label/type list sizes disagree with kg meta");
  }

  MESA_ASSIGN_OR_RETURN(const uint8_t* predicates_bytes,
                        RequireSection(SectionKind::kKgPredicates, 0, &n));
  MESA_ASSIGN_OR_RETURN(std::vector<std::string> predicates,
                        ParseStringList(predicates_bytes, n, "predicates"));
  if (predicates.size() != meta.num_predicates) {
    return Corrupt("predicate list size disagrees with kg meta");
  }

  MESA_ASSIGN_OR_RETURN(
      const uint8_t* literal_strings_bytes,
      RequireSection(SectionKind::kKgLiteralStrings, 0, &n));
  MESA_ASSIGN_OR_RETURN(
      std::vector<std::string> literal_strings,
      ParseStringList(literal_strings_bytes, n, "literal strings"));
  MESA_ASSIGN_OR_RETURN(const uint8_t* alias_strings_bytes,
                        RequireSection(SectionKind::kKgAliasStrings, 0, &n));
  MESA_ASSIGN_OR_RETURN(
      std::vector<std::string> alias_strings,
      ParseStringList(alias_strings_bytes, n, "alias strings"));

  auto kg = std::make_shared<TripleStore>();
  for (uint64_t i = 0; i < meta.num_entities; ++i) {
    Result<EntityId> id = kg->AddEntity(labels[i], types[i]);
    if (!id.ok()) {
      return Corrupt("duplicate entity label '" + labels[i] + "'");
    }
  }
  for (const std::string& predicate : predicates) {
    kg->InternPredicate(predicate);
  }
  if (kg->num_predicates() != meta.num_predicates) {
    return Corrupt("duplicate predicate names");
  }

  MESA_ASSIGN_OR_RETURN(const uint8_t* aliases_bytes,
                        RequireSection(SectionKind::kKgAliases, 0, &n));
  if (n < sizeof(uint64_t)) return Corrupt("alias section too small");
  const uint64_t num_aliases = LoadPod<uint64_t>(aliases_bytes);
  if (num_aliases != meta.num_aliases ||
      num_aliases > (n - sizeof(uint64_t)) / sizeof(AliasRecord)) {
    return Corrupt("alias count disagrees with section size");
  }
  for (uint64_t i = 0; i < num_aliases; ++i) {
    const AliasRecord record = LoadPod<AliasRecord>(
        aliases_bytes + sizeof(uint64_t) + i * sizeof(AliasRecord));
    if (record.entity >= meta.num_entities ||
        record.string_index >= alias_strings.size()) {
      return Corrupt("alias record out of range");
    }
    MESA_RETURN_IF_ERROR(
        kg->AddAlias(record.entity, alias_strings[record.string_index]));
  }

  MESA_ASSIGN_OR_RETURN(const uint8_t* triples_bytes,
                        RequireSection(SectionKind::kKgTriples, 0, &n));
  if (n < sizeof(uint64_t)) return Corrupt("triple section too small");
  const uint64_t num_triples = LoadPod<uint64_t>(triples_bytes);
  if (num_triples != meta.num_triples ||
      num_triples > (n - sizeof(uint64_t)) / sizeof(TripleRecord)) {
    return Corrupt("triple count disagrees with section size");
  }
  for (uint64_t i = 0; i < num_triples; ++i) {
    const TripleRecord record = LoadPod<TripleRecord>(
        triples_bytes + sizeof(uint64_t) + i * sizeof(TripleRecord));
    if (record.subject >= meta.num_entities ||
        record.predicate >= meta.num_predicates) {
      return Corrupt("triple subject/predicate out of range");
    }
    const std::string& predicate = predicates[record.predicate];
    if (record.object_kind == kObjectEntity) {
      if (record.payload >= meta.num_entities) {
        return Corrupt("triple object entity out of range");
      }
      MESA_RETURN_IF_ERROR(kg->AddEdge(
          record.subject, predicate, static_cast<EntityId>(record.payload)));
      continue;
    }
    if (record.object_kind != kObjectLiteral) {
      return Corrupt("triple object kind invalid");
    }
    Value literal;
    switch (record.literal_type) {
      case static_cast<uint32_t>(DataType::kNull):
        literal = Value::Null();
        break;
      case static_cast<uint32_t>(DataType::kBool):
        literal = Value::Bool(record.payload != 0);
        break;
      case static_cast<uint32_t>(DataType::kInt64):
        literal = Value::Int(static_cast<int64_t>(record.payload));
        break;
      case static_cast<uint32_t>(DataType::kDouble): {
        double v;
        std::memcpy(&v, &record.payload, sizeof(v));
        literal = Value::Double(v);
        break;
      }
      case static_cast<uint32_t>(DataType::kString): {
        if (record.payload >= literal_strings.size()) {
          return Corrupt("triple literal string index out of range");
        }
        literal = Value::String(literal_strings[record.payload]);
        break;
      }
      default:
        return Corrupt("triple literal type invalid");
    }
    MESA_RETURN_IF_ERROR(
        kg->AddLiteral(record.subject, predicate, std::move(literal)));
  }

  MESA_COUNT("snapshot/kg_reads");
  return kg;
}

}  // namespace snapshot
}  // namespace mesa
