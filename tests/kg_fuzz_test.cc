// Seeded mutational fuzz of the ".kg" text reader (kg/serialization.h),
// built into the ASan target binary (sql_parser_fuzz_test; see
// docs/sanitizers.md). Seeded random stores round-trip through
// WriteKgString / ReadKgString; their text is then damaged — cut short,
// lines cut to a prefix, runs spliced in from elsewhere, bytes flipped or
// inserted — and every mutant must read as a store or fail with a Status,
// never crash, and read the same way twice.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "kg/serialization.h"

namespace mesa {
namespace {

constexpr size_t kStores = 40;
constexpr size_t kMutantsPerStore = 60;

// Printable text with inner spaces but no tab or newline (the format's
// separators) and no trailing space (the reader strips line ends).
std::string RandomText(Rng& rng, const char* prefix) {
  static const char kChars[] = "abcXYZ019 _-.,:'";
  std::string text = prefix;
  const size_t n = rng.NextBelow(8);
  for (size_t i = 0; i < n; ++i) {
    text += kChars[rng.NextBelow(sizeof(kChars) - 1)];
  }
  return text + "z";
}

Value RandomLiteral(Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0:
      return Value::Double(rng.NextGaussian(0.0, 1e3));
    case 1:
      return Value::Int(static_cast<int64_t>(rng.NextBelow(1u << 20)) - 1000);
    case 2:
      return Value::Bool(rng.NextBernoulli(0.5));
    default:
      return Value::String(RandomText(rng, "s"));
  }
}

TripleStore RandomStore(uint64_t seed) {
  Rng rng(seed);
  TripleStore store;
  const size_t entities = 2 + rng.NextBelow(30);
  for (size_t e = 0; e < entities; ++e) {
    // The index keeps labels unique; types carry no spaces.
    const std::string label = RandomText(rng, "") + "#" + std::to_string(e);
    const std::string type = rng.NextBernoulli(0.5) ? "Country" : "Person";
    EXPECT_TRUE(store.AddEntity(label, type).ok());
  }
  for (EntityId id = 0; id < store.num_entities(); ++id) {
    if (rng.NextBernoulli(0.3)) {
      EXPECT_TRUE(store.AddAlias(id, RandomText(rng, "alias ")).ok());
    }
    const size_t props = rng.NextBelow(5);
    for (size_t p = 0; p < props; ++p) {
      const std::string pred = "p" + std::to_string(rng.NextBelow(6));
      if (rng.NextBernoulli(0.25)) {
        const EntityId to =
            static_cast<EntityId>(rng.NextBelow(store.num_entities()));
        EXPECT_TRUE(store.AddEdge(id, pred, to).ok());
      } else {
        EXPECT_TRUE(store.AddLiteral(id, pred, RandomLiteral(rng)).ok());
      }
    }
  }
  return store;
}

// One to four mutations of `base`.
std::string Mutate(const std::string& base, Rng& rng) {
  static const char kBytes[] = {'\t', '\n', ' ', '\r', 'E', 'A', 'L', 'G',
                                '#',  ':',  '-', '0',  '9', 'd', 'i', 's'};
  std::string text = base;
  const size_t n = 1 + rng.NextBelow(4);
  for (size_t m = 0; m < n && !text.empty(); ++m) {
    const size_t pos = rng.NextBelow(text.size() + 1);
    const char byte = rng.NextBernoulli(0.8)
                          ? kBytes[rng.NextBelow(sizeof(kBytes))]
                          : static_cast<char>(rng.NextBelow(256));
    switch (rng.NextBelow(6)) {
      case 0:  // cut the file short
        text.resize(pos);
        break;
      case 1: {  // cut one line to a prefix of 0-3 bytes
        const size_t start = text.rfind('\n', pos == 0 ? 0 : pos - 1);
        const size_t begin = start == std::string::npos ? 0 : start + 1;
        const size_t end = text.find('\n', begin);
        const size_t keep = rng.NextBelow(4);
        if (end != std::string::npos && end - begin > keep) {
          text.erase(begin + keep, end - begin - keep);
        }
        break;
      }
      case 2: {  // splice in a run from elsewhere
        const size_t from = rng.NextBelow(text.size());
        text.insert(pos, text.substr(from, 1 + rng.NextBelow(40)));
        break;
      }
      case 3:  // flip a byte
        if (pos < text.size()) {
          text[pos] = static_cast<char>(text[pos] ^ (1 << rng.NextBelow(8)));
        }
        break;
      case 4:  // overwrite a byte
        if (pos < text.size()) text[pos] = byte;
        break;
      default:  // insert a byte
        text.insert(pos, 1, byte);
    }
  }
  return text;
}

// What a read produced: the error, or the store written back out.
std::string Outcome(const Result<TripleStore>& store) {
  return store.ok() ? WriteKgString(*store) : store.status().ToString();
}

TEST(KgFuzz, GeneratedStoresRoundTrip) {
  for (uint64_t seed = 1; seed <= kStores; ++seed) {
    const TripleStore store = RandomStore(seed);
    const std::string text = WriteKgString(store);
    auto loaded = ReadKgString(text);
    ASSERT_TRUE(loaded.ok()) << "seed " << seed << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->num_entities(), store.num_entities());
    EXPECT_EQ(loaded->num_triples(), store.num_triples());
    EXPECT_EQ(WriteKgString(*loaded), text) << "seed " << seed;
  }
}

TEST(KgFuzz, MutantsReadAsAStoreOrAStatus) {
  Rng rng(20261022);
  size_t ok = 0;
  size_t total = 0;
  for (uint64_t seed = 1; seed <= kStores; ++seed) {
    const std::string base = WriteKgString(RandomStore(seed));
    for (size_t i = 0; i < kMutantsPerStore; ++i) {
      const std::string text = Mutate(base, rng);
      const Result<TripleStore> read = ReadKgString(text);
      ASSERT_EQ(Outcome(ReadKgString(text)), Outcome(read))
          << "seed " << seed << " mutant " << i;
      ok += read.ok() ? 1 : 0;
      ++total;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(ok, total / 20);
  EXPECT_LT(ok, total - total / 20);
}

}  // namespace
}  // namespace mesa
