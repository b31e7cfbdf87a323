#include "snapshot/writer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "snapshot/crc32c.h"
#include "snapshot/format.h"

namespace mesa {
namespace snapshot {
namespace {

/// Accumulates the file: header, 8-aligned CRC'd sections, section table,
/// footer. All multi-byte values are host-endian; the writer refuses to
/// run on big-endian hosts (checked in Serialize) so host order == the
/// little-endian on-disk order.
class FileBuilder {
 public:
  FileBuilder() {
    Header header{kMagic, kVersion, 0};
    AppendRaw(&header, sizeof(header));
  }

  void AddSection(SectionKind kind, uint32_t arg, const std::string& payload) {
    PadToAlignment();
    SectionEntry entry;
    entry.kind = static_cast<uint32_t>(kind);
    entry.arg = arg;
    entry.offset = buffer_.size();
    entry.size = payload.size();
    entry.crc32c = Crc32c(payload.data(), payload.size());
    entry.reserved = 0;
    sections_.push_back(entry);
    buffer_.append(payload);
  }

  std::string Finish() {
    PadToAlignment();
    const uint64_t table_offset = buffer_.size();
    for (const SectionEntry& entry : sections_) {
      AppendRaw(&entry, sizeof(entry));
    }
    Footer footer;
    footer.section_table_offset = table_offset;
    footer.section_count = sections_.size();
    footer.section_table_crc32c =
        Crc32c(buffer_.data() + table_offset, buffer_.size() - table_offset);
    footer.reserved = 0;
    footer.file_size = buffer_.size() + sizeof(Footer);
    footer.footer_magic = kFooterMagic;
    AppendRaw(&footer, sizeof(footer));
    return std::move(buffer_);
  }

 private:
  void AppendRaw(const void* data, size_t n) {
    buffer_.append(static_cast<const char*>(data), n);
  }

  void PadToAlignment() {
    buffer_.resize(AlignUp(buffer_.size()), '\0');
  }

  std::string buffer_;
  std::vector<SectionEntry> sections_;
};

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

template <typename T>
void AppendPod(std::string* out, const T& value) {
  AppendRaw(out, &value, sizeof(value));
}

/// String list payload: u64 count, u64 end_offsets[count] (cumulative byte
/// ends into the blob), then the concatenated bytes.
std::string EncodeStringList(const std::vector<std::string>& strings) {
  std::string out;
  AppendPod(&out, static_cast<uint64_t>(strings.size()));
  uint64_t end = 0;
  for (const std::string& s : strings) {
    end += s.size();
    AppendPod(&out, end);
  }
  for (const std::string& s : strings) out.append(s);
  return out;
}

/// First-occurrence-order string interner for the KG literal / alias
/// pools.
class StringInterner {
 public:
  uint32_t Intern(const std::string& s) {
    auto [it, inserted] =
        ids_.emplace(s, static_cast<uint32_t>(strings_.size()));
    if (inserted) strings_.push_back(s);
    return it->second;
  }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t> ids_;
};

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void WriteColumn(FileBuilder* builder, uint32_t index, const Column& column) {
  const size_t rows = column.size();

  std::string meta_payload;
  ColumnMeta meta;
  meta.type = static_cast<uint32_t>(column.type());
  meta.reserved = 0;
  meta.null_count = column.null_count();
  AppendPod(&meta_payload, meta);
  builder->AddSection(SectionKind::kColumnMeta, index, meta_payload);

  // Validity canonicalized to 0/1 bytes.
  std::string validity(rows, '\0');
  for (size_t row = 0; row < rows; ++row) {
    validity[row] = column.IsValid(row) ? 1 : 0;
  }
  builder->AddSection(SectionKind::kColumnValidity, index, validity);

  std::string payload;
  switch (column.type()) {
    case DataType::kDouble: {
      payload.reserve(rows * sizeof(double));
      for (size_t row = 0; row < rows; ++row) {
        // Dead payloads canonicalized to 0 so equal data writes equal bytes.
        AppendPod(&payload, column.IsValid(row) ? column.DoubleAt(row) : 0.0);
      }
      builder->AddSection(SectionKind::kColumnPayload, index, payload);
      break;
    }
    case DataType::kInt64: {
      payload.reserve(rows * sizeof(int64_t));
      for (size_t row = 0; row < rows; ++row) {
        AppendPod(&payload,
                  column.IsValid(row) ? column.IntAt(row) : int64_t{0});
      }
      builder->AddSection(SectionKind::kColumnPayload, index, payload);
      break;
    }
    case DataType::kBool: {
      payload.resize(rows, '\0');
      for (size_t row = 0; row < rows; ++row) {
        payload[row] = (column.IsValid(row) && column.BoolAt(row)) ? 1 : 0;
      }
      builder->AddSection(SectionKind::kColumnPayload, index, payload);
      break;
    }
    case DataType::kString: {
      // Re-code the dictionary in first-occurrence row order (entries
      // never repeat, so equal content writes equal bytes). Null rows code
      // "": the dictionary's own "" or a slot past its end.
      const std::vector<std::string>& dict = column.dictionary();
      const uint32_t* in_codes = column.code_data();
      const size_t null_entry =
          std::find(dict.begin(), dict.end(), "") - dict.begin();
      constexpr uint32_t kUnseen = UINT32_MAX;
      std::vector<uint32_t> remap(dict.size() + 1, kUnseen);
      std::vector<std::string> out_dict;
      std::string codes;
      codes.reserve(rows * sizeof(uint32_t));
      for (size_t row = 0; row < rows; ++row) {
        const size_t entry = column.IsValid(row) ? in_codes[row] : null_entry;
        if (remap[entry] == kUnseen) {
          remap[entry] = static_cast<uint32_t>(out_dict.size());
          out_dict.push_back(entry < dict.size() ? dict[entry] : "");
        }
        AppendPod(&codes, remap[entry]);
      }
      builder->AddSection(SectionKind::kColumnDictCodes, index, codes);
      builder->AddSection(SectionKind::kColumnDict, index,
                          EncodeStringList(out_dict));
      break;
    }
    case DataType::kNull:
      // Unreachable: Column's constructor rejects kNull.
      break;
  }
}

void WriteTable(FileBuilder* builder, const Table& table) {
  std::string meta_payload;
  TableMeta meta;
  meta.num_rows = table.num_rows();
  meta.num_columns = table.num_columns();
  AppendPod(&meta_payload, meta);
  builder->AddSection(SectionKind::kTableMeta, 0, meta_payload);

  builder->AddSection(SectionKind::kSchema, 0,
                      EncodeStringList(table.schema().names()));

  for (size_t i = 0; i < table.num_columns(); ++i) {
    WriteColumn(builder, static_cast<uint32_t>(i), table.column(i));
  }
}

void WriteKg(FileBuilder* builder, const TripleStore& kg) {
  // Triples in insertion order: an all-wildcard pattern scans the store.
  const std::vector<const Triple*> triples = kg.Match({});

  // Aliases in (entity id, per-entity registration order) — the same
  // canonical order the text `.kg` format round-trips through.
  StringInterner alias_strings;
  std::string alias_payload;
  uint64_t num_aliases = 0;
  AppendPod(&alias_payload, num_aliases);  // patched below.
  for (EntityId id = 0; id < kg.num_entities(); ++id) {
    for (const std::string& alias : kg.AliasesOf(id)) {
      AliasRecord record{id, alias_strings.Intern(alias)};
      AppendPod(&alias_payload, record);
      ++num_aliases;
    }
  }
  std::memcpy(alias_payload.data(), &num_aliases, sizeof(num_aliases));

  std::string meta_payload;
  KgMeta meta;
  meta.num_entities = kg.num_entities();
  meta.num_triples = triples.size();
  meta.num_aliases = num_aliases;
  meta.num_predicates = kg.num_predicates();
  AppendPod(&meta_payload, meta);
  builder->AddSection(SectionKind::kKgMeta, 0, meta_payload);

  std::vector<std::string> labels, types;
  labels.reserve(kg.num_entities());
  types.reserve(kg.num_entities());
  for (EntityId id = 0; id < kg.num_entities(); ++id) {
    labels.push_back(kg.entity(id).label);
    types.push_back(kg.entity(id).type);
  }
  builder->AddSection(SectionKind::kKgEntityLabels, 0,
                      EncodeStringList(labels));
  builder->AddSection(SectionKind::kKgEntityTypes, 0, EncodeStringList(types));

  std::vector<std::string> predicates;
  predicates.reserve(kg.num_predicates());
  for (PredicateId id = 0; id < kg.num_predicates(); ++id) {
    predicates.push_back(kg.predicate_name(id));
  }
  builder->AddSection(SectionKind::kKgPredicates, 0,
                      EncodeStringList(predicates));

  StringInterner literal_strings;
  std::string triple_payload;
  AppendPod(&triple_payload, static_cast<uint64_t>(triples.size()));
  for (const Triple* triple : triples) {
    TripleRecord record;
    record.subject = triple->subject;
    record.predicate = triple->predicate;
    if (triple->object.is_entity()) {
      record.object_kind = kObjectEntity;
      record.literal_type = static_cast<uint32_t>(DataType::kNull);
      record.payload = triple->object.entity;
    } else {
      const Value& v = triple->object.literal;
      record.object_kind = kObjectLiteral;
      record.literal_type = static_cast<uint32_t>(v.type());
      switch (v.type()) {
        case DataType::kNull:
          record.payload = 0;
          break;
        case DataType::kBool:
          record.payload = v.bool_value() ? 1 : 0;
          break;
        case DataType::kInt64:
          record.payload = static_cast<uint64_t>(v.int_value());
          break;
        case DataType::kDouble:
          record.payload = DoubleBits(v.double_value());
          break;
        case DataType::kString:
          record.payload = literal_strings.Intern(v.string_value());
          break;
      }
    }
    AppendPod(&triple_payload, record);
  }
  builder->AddSection(SectionKind::kKgTriples, 0, triple_payload);
  builder->AddSection(SectionKind::kKgLiteralStrings, 0,
                      EncodeStringList(literal_strings.strings()));
  builder->AddSection(SectionKind::kKgAliases, 0, alias_payload);
  builder->AddSection(SectionKind::kKgAliasStrings, 0,
                      EncodeStringList(alias_strings.strings()));
}

}  // namespace

Result<std::string> SnapshotWriter::Serialize() const {
  if (table_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshot writer: no table set (a snapshot always carries a table)");
  }
  // The format is little-endian by definition; this writer emits host
  // order, so a big-endian host would silently produce garbage.
  const uint32_t probe = 1;
  if (*reinterpret_cast<const uint8_t*>(&probe) != 1) {
    return Status::FailedPrecondition(
        "snapshot writer requires a little-endian host");
  }

  FileBuilder builder;
  WriteTable(&builder, *table_);
  if (!extraction_columns_.empty()) {
    builder.AddSection(SectionKind::kExtractionColumns, 0,
                       EncodeStringList(extraction_columns_));
  }
  if (kg_ != nullptr) WriteKg(&builder, *kg_);
  return builder.Finish();
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  Result<std::string> bytes = Serialize();
  if (!bytes.ok()) return bytes.status();

  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot open " + tmp_path + " for writing");
  }
  const size_t written = std::fwrite(bytes->data(), 1, bytes->size(), file);
  const bool close_ok = std::fclose(file) == 0;
  if (written != bytes->size() || !close_ok) {
    std::remove(tmp_path.c_str());
    return Status::IOError("short write to " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename " + tmp_path + " to " + path);
  }
  return Status::OK();
}

}  // namespace snapshot
}  // namespace mesa
