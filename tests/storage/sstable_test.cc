#include "storage/sstable.h"

#include <gtest/gtest.h>

#include <map>

#include "common/coding.h"
#include "common/hash.h"
#include "common/random.h"
#include "storage/block_cache.h"

namespace pstorm::storage {
namespace {

std::shared_ptr<Table> BuildTable(
    const std::map<std::string, std::string>& entries,
    TableBuilder::Options options = {}) {
  TableBuilder builder(options);
  for (const auto& [k, v] : entries) builder.Add(k, v, EntryType::kValue);
  auto table = Table::Open(builder.Finish());
  EXPECT_TRUE(table.ok()) << table.status();
  return table.value();
}

std::map<std::string, std::string> ManyEntries(int n) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = "value-" + std::to_string(i) + std::string(i % 50, 'x');
  }
  return entries;
}

TEST(SSTableTest, EmptyTable) {
  auto table = BuildTable({});
  EXPECT_EQ(table->num_data_blocks(), 0u);
  auto it = table->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  auto got = table->Get("anything");
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->has_value());
}

TEST(SSTableTest, GetFindsEveryKey) {
  auto entries = ManyEntries(2000);
  auto table = BuildTable(entries);
  EXPECT_GT(table->num_data_blocks(), 1u) << "want multiple blocks";
  for (const auto& [k, v] : entries) {
    auto got = table->Get(k);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->has_value()) << k;
    EXPECT_EQ((*got)->value, v);
    EXPECT_EQ((*got)->type, EntryType::kValue);
  }
}

TEST(SSTableTest, GetMissesAbsentKeys) {
  auto table = BuildTable(ManyEntries(500));
  for (const char* probe : {"absent", "key9999999", "a", "zzz"}) {
    auto got = table->Get(probe);
    ASSERT_TRUE(got.ok());
    EXPECT_FALSE(got->has_value()) << probe;
  }
}

TEST(SSTableTest, KeyRangeIsExposed) {
  auto table = BuildTable(ManyEntries(100));
  EXPECT_EQ(table->smallest_key(), "key000000");
  EXPECT_EQ(table->largest_key(), "key000099");
}

TEST(SSTableTest, FullScanInOrder) {
  auto entries = ManyEntries(3000);
  auto table = BuildTable(entries);
  auto it = table->NewIterator();
  auto expected = entries.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(it->key(), expected->first);
    EXPECT_EQ(it->value(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(it->status().ok()) << it->status();
}

TEST(SSTableTest, SeekAcrossBlockBoundaries) {
  auto entries = ManyEntries(2000);
  TableBuilder::Options small_blocks;
  small_blocks.block_size_bytes = 256;
  auto table = BuildTable(entries, small_blocks);
  EXPECT_GT(table->num_data_blocks(), 20u);

  Rng rng(5);
  auto it = table->NewIterator();
  for (int trial = 0; trial < 300; ++trial) {
    char probe[16];
    std::snprintf(probe, sizeof(probe), "key%06d",
                  static_cast<int>(rng.NextUint64(2100)));
    it->Seek(probe);
    auto expected = entries.lower_bound(probe);
    if (expected == entries.end()) {
      EXPECT_FALSE(it->Valid());
    } else {
      ASSERT_TRUE(it->Valid()) << probe;
      EXPECT_EQ(it->key(), expected->first);
    }
  }
}

TEST(SSTableTest, SeekPastEndIsInvalid) {
  auto table = BuildTable(ManyEntries(10));
  auto it = table->NewIterator();
  it->Seek("zzzz");
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST(SSTableTest, TombstonesRoundTrip) {
  TableBuilder builder;
  builder.Add("a", "va", EntryType::kValue);
  builder.Add("b", "", EntryType::kTombstone);
  builder.Add("c", "vc", EntryType::kValue);
  auto table = Table::Open(builder.Finish());
  ASSERT_TRUE(table.ok());
  auto got = (*table)->Get("b");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ((*got)->type, EntryType::kTombstone);
}

TEST(SSTableTest, OpenRejectsCorruptedBody) {
  TableBuilder builder;
  for (const auto& [k, v] : ManyEntries(200)) {
    builder.Add(k, v, EntryType::kValue);
  }
  std::string contents = builder.Finish();
  contents[contents.size() / 2] ^= 0x01;  // Flip one bit in the body.
  auto table = Table::Open(contents);
  EXPECT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsCorruption()) << table.status();
}

TEST(SSTableTest, OpenRejectsBadMagicAndTruncation) {
  TableBuilder builder;
  builder.Add("k", "v", EntryType::kValue);
  std::string contents = builder.Finish();

  std::string bad_magic = contents;
  bad_magic.back() ^= 0xff;
  EXPECT_TRUE(Table::Open(bad_magic).status().IsCorruption());

  EXPECT_TRUE(Table::Open("short").status().IsCorruption());
  EXPECT_TRUE(
      Table::Open(contents.substr(0, contents.size() - 10)).status()
          .IsCorruption());
}

std::string BuildFile(const std::map<std::string, std::string>& entries,
                      TableBuilder::Options options = {}) {
  TableBuilder builder(options);
  for (const auto& [k, v] : entries) builder.Add(k, v, EntryType::kValue);
  return builder.Finish();
}

/// Recomputes the v2 footer's content hash after the test mutates the body,
/// so corruption *below* the hash (codec-level damage) is reachable.
void RepairV2ContentHash(std::string* contents) {
  const size_t body = contents->size() - 7 * 8;
  const uint64_t hash = Fnv1a64(std::string_view(contents->data(), body));
  std::string fixed;
  PutFixed64(&fixed, hash);
  contents->replace(body + 40, 8, fixed);
}

TEST(SSTableTest, V1TablesStillOpenAndRead) {
  TableBuilder::Options v1;
  v1.format_version = 1;
  auto entries = ManyEntries(800);
  auto table = BuildTable(entries, v1);
  EXPECT_EQ(table->format_version(), 1);
  for (const char* key : {"key000000", "key000399", "key000799"}) {
    auto got = table->Get(key);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(got->has_value()) << key;
    EXPECT_EQ((*got)->value, entries[key]);
  }
  size_t scanned = 0;
  auto it = table->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++scanned;
  EXPECT_EQ(scanned, entries.size());
  // V1 carries no prefix filter: every prefix is conservatively possible.
  EXPECT_TRUE(table->MayContainPrefix("no-such-prefix\0"));
}

TEST(SSTableTest, V1AndV2FilesAreDistinguishedByMagic) {
  auto entries = ManyEntries(50);
  TableBuilder::Options v1;
  v1.format_version = 1;
  const std::string f1 = BuildFile(entries, v1);
  const std::string f2 = BuildFile(entries);
  EXPECT_NE(f1.substr(f1.size() - 8), f2.substr(f2.size() - 8));
  EXPECT_EQ(Table::Open(f1).value()->format_version(), 1);
  EXPECT_EQ(Table::Open(f2).value()->format_version(), 2);
}

TEST(SSTableTest, V2CompressionShrinksRepetitiveTables) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "Dynamic/job-%04d", i);
    entries[key] = "identical highly compressible payload text " +
                   std::string(100, 'p');
  }
  TableBuilder::Options none;
  none.codec = CodecType::kNone;
  const std::string plain = BuildFile(entries, none);
  const std::string packed = BuildFile(entries);  // Default kLz.
  EXPECT_LT(packed.size(), plain.size() / 2);

  // Both read back identically.
  for (const std::string& file : {plain, packed}) {
    auto table = Table::Open(file);
    ASSERT_TRUE(table.ok()) << table.status();
    auto got = (*table)->Get("Dynamic/job-0250");
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ((*got)->value, entries["Dynamic/job-0250"]);
  }
}

TEST(SSTableTest, IncompressibleBlocksFallBackToNoneTagPerBlock) {
  // Random values cannot shrink; the per-block fallback stores them raw,
  // so the v2 file is barely larger than the v1 file (tag bytes + footer).
  Rng rng(11);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    std::string noise(128, '\0');
    for (char& c : noise) c = static_cast<char>(rng.NextUint64(256));
    entries[key] = noise;
  }
  TableBuilder::Options v1;
  v1.format_version = 1;
  const std::string f1 = BuildFile(entries, v1);
  const std::string f2 = BuildFile(entries);
  EXPECT_LT(f2.size(), f1.size() + f1.size() / 20 + 256);
  auto table = Table::Open(f2);
  ASSERT_TRUE(table.ok()) << table.status();
  auto got = (*table)->Get("key000100");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ((*got)->value, entries["key000100"]);
}

TEST(SSTableTest, PrefixBloomAnswersExactPrefixProbes) {
  // Keys shaped like the hstore's row + '\0' + column composite keys.
  std::map<std::string, std::string> entries;
  for (int row = 0; row < 40; ++row) {
    for (const char* col : {"profile", "features", "summary"}) {
      std::string key = "job-" + std::to_string(1000 + row);
      key.push_back('\0');
      key += col;
      entries.emplace(key, "v");
    }
  }
  auto table = BuildTable(entries);  // Default prefix_delimiter '\0'.

  int present_hits = 0;
  for (int row = 0; row < 40; ++row) {
    std::string prefix = "job-" + std::to_string(1000 + row);
    prefix.push_back('\0');
    present_hits += table->MayContainPrefix(prefix) ? 1 : 0;
  }
  EXPECT_EQ(present_hits, 40) << "no false negatives allowed";

  int absent_hits = 0;
  for (int row = 0; row < 100; ++row) {
    std::string prefix = "job-" + std::to_string(900000 + row);
    prefix.push_back('\0');
    absent_hits += table->MayContainPrefix(prefix) ? 1 : 0;
  }
  EXPECT_LE(absent_hits, 10) << "false-positive rate far above bloom spec";

  // Probes that are not exact prefix-shaped answer true conservatively.
  EXPECT_TRUE(table->MayContainPrefix("job-9999"));  // No delimiter.
  std::string two_part = "job-9999";
  two_part.push_back('\0');
  two_part += "col";
  EXPECT_TRUE(table->MayContainPrefix(two_part));  // Delimiter mid-key.
}

TEST(SSTableTest, CorruptCodecTagFailsOpenNotCrash) {
  // One-block table: Open eagerly decodes the first block for the key
  // range, so a bad tag surfaces as Corruption at Open time. The content
  // hash is repaired so the codec layer itself must catch the damage.
  std::string contents = BuildFile({{"k", std::string(500, 'v')}});
  const size_t body = contents.size() - 7 * 8;
  const uint64_t filter_offset = DecodeFixed64(contents.data() + body);
  contents[filter_offset - 1] = '\x7f';  // Unknown codec tag.
  RepairV2ContentHash(&contents);
  auto table = Table::Open(std::move(contents));
  ASSERT_FALSE(table.ok());
  EXPECT_TRUE(table.status().IsCorruption()) << table.status();
}

TEST(SSTableTest, CorruptCompressedBlockFailsReadNotCrash) {
  // Multi-block table with the damage in the *last* block: Open succeeds
  // (it only decodes the first block) and the Corruption surfaces on Get.
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 400; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = std::string(60, 'z');
  }
  TableBuilder::Options small_blocks;
  small_blocks.block_size_bytes = 512;
  std::string contents = BuildFile(entries, small_blocks);
  const size_t body = contents.size() - 7 * 8;
  const uint64_t filter_offset = DecodeFixed64(contents.data() + body);
  contents[filter_offset - 1] = '\x7f';  // Last data block's codec tag.
  RepairV2ContentHash(&contents);
  auto table = Table::Open(std::move(contents));
  ASSERT_TRUE(table.ok()) << table.status();
  auto got = (*table)->Get("key000399");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
}

TEST(SSTableTest, TruncatedCompressedPayloadFailsDecompress) {
  // Shrink the last block's compressed payload by moving its tag byte
  // earlier; the index handle now covers a truncated stream.
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 400; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = std::string(60, 'z');
  }
  TableBuilder::Options small_blocks;
  small_blocks.block_size_bytes = 512;
  std::string contents = BuildFile(entries, small_blocks);
  const size_t body = contents.size() - 7 * 8;
  const uint64_t filter_offset = DecodeFixed64(contents.data() + body);
  // Zero a run in the middle of the last block's payload: a valid LZ
  // stream interpreted over damaged bytes must fail the strict decoder or
  // the final size check, never read out of bounds.
  for (size_t i = filter_offset - 20; i < filter_offset - 1; ++i) {
    contents[i] = '\xff';
  }
  RepairV2ContentHash(&contents);
  auto table = Table::Open(std::move(contents));
  ASSERT_TRUE(table.ok()) << table.status();
  auto got = (*table)->Get("key000399");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status();
}

TEST(SSTableTest, SharedCacheServesRepeatGets) {
  auto cache = std::make_shared<BlockCache>(1 << 20);
  auto entries = ManyEntries(500);
  TableBuilder::Options options;
  options.block_size_bytes = 512;
  TableBuilder builder(options);
  for (const auto& [k, v] : entries) builder.Add(k, v, EntryType::kValue);
  auto table = Table::Open(builder.Finish(), cache);
  ASSERT_TRUE(table.ok()) << table.status();

  const auto cold = cache->GetStats();
  for (int round = 0; round < 3; ++round) {
    auto got = (*table)->Get("key000123");
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(got->has_value());
  }
  const auto warm = cache->GetStats();
  EXPECT_GE(warm.hits, cold.hits + 2) << "repeat gets should hit the cache";
}

class TableBlockSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TableBlockSizeTest, ScanAndGetAgreeAtAnyBlockSize) {
  TableBuilder::Options options;
  options.block_size_bytes = GetParam();
  auto entries = ManyEntries(600);
  auto table = BuildTable(entries, options);

  size_t scanned = 0;
  auto it = table->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++scanned;
  EXPECT_EQ(scanned, entries.size());

  auto got = table->Get("key000300");
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ((*got)->value, entries["key000300"]);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, TableBlockSizeTest,
                         ::testing::Values(64, 256, 1024, 4096, 1 << 20));

}  // namespace
}  // namespace pstorm::storage
