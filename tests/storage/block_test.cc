#include "storage/block.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/random.h"
#include "storage/bloom.h"
#include "test_strings.h"

namespace pstorm::storage {
namespace {

std::unique_ptr<Block> BuildBlock(
    const std::map<std::string, std::string>& entries,
    int restart_interval = 16) {
  BlockBuilder builder(restart_interval);
  for (const auto& [k, v] : entries) builder.Add(k, v, EntryType::kValue);
  auto block = Block::Parse(builder.Finish());
  EXPECT_NE(block, nullptr);
  return block;
}

TEST(BlockTest, EmptyBlockIterates) {
  BlockBuilder builder;
  auto block = Block::Parse(builder.Finish());
  ASSERT_NE(block, nullptr);
  auto it = block->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  EXPECT_TRUE(it->status().ok());
}

TEST(BlockTest, SingleEntry) {
  auto block = BuildBlock({{"key", "value"}});
  auto it = block->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "key");
  EXPECT_EQ(it->value(), "value");
  EXPECT_EQ(it->type(), EntryType::kValue);
  it->Next();
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, IteratesInOrderWithPrefixCompression) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; ++i) {
    entries["sharedprefix/key" + std::to_string(1000 + i)] =
        "value" + std::to_string(i);
  }
  auto block = BuildBlock(entries, /*restart_interval=*/4);
  auto it = block->NewIterator();
  auto expected = entries.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(it->key(), expected->first);
    EXPECT_EQ(it->value(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(it->status().ok());
}

TEST(BlockTest, SeekFindsExactAndSuccessor) {
  auto block = BuildBlock({{"b", "1"}, {"d", "2"}, {"f", "3"}});
  auto it = block->NewIterator();

  it->Seek("d");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");

  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "d");

  it->Seek("a");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "b");

  it->Seek("g");
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, SeekAcrossRestartPoints) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 64; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "k%03d", i * 2);  // Even keys only.
    entries[buf] = std::to_string(i);
  }
  auto block = BuildBlock(entries, /*restart_interval=*/3);
  auto it = block->NewIterator();
  for (int i = 0; i < 64; ++i) {
    char even[8], odd[8];
    std::snprintf(even, sizeof(even), "k%03d", i * 2);
    std::snprintf(odd, sizeof(odd), "k%03d", i * 2 - 1);
    it->Seek(even);
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), even);
    it->Seek(odd);  // Odd keys are absent; lands on the even successor.
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key(), even);
  }
}

TEST(BlockTest, TombstoneTypeSurvivesRoundTrip) {
  BlockBuilder builder;
  builder.Add("alive", "v", EntryType::kValue);
  builder.Add("dead", "", EntryType::kTombstone);
  auto block = Block::Parse(builder.Finish());
  ASSERT_NE(block, nullptr);
  auto it = block->NewIterator();
  it->Seek("dead");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->type(), EntryType::kTombstone);
}

TEST(BlockTest, ParseRejectsGarbage) {
  EXPECT_EQ(Block::Parse(""), nullptr);
  EXPECT_EQ(Block::Parse("abc"), nullptr);
  // Restart count exceeding the buffer is rejected.
  std::string bogus(4, '\xff');
  EXPECT_EQ(Block::Parse(bogus), nullptr);
}

TEST(BlockTest, RandomizedSeekMatchesMap) {
  Rng rng(99);
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 500; ++i) {
    std::string key = Numbered("k", rng.NextUint64(100000));
    entries[key] = Numbered("v", i);
  }
  auto block = BuildBlock(entries, /*restart_interval=*/7);
  auto it = block->NewIterator();
  for (int trial = 0; trial < 200; ++trial) {
    std::string probe = Numbered("k", rng.NextUint64(100000));
    it->Seek(probe);
    auto expected = entries.lower_bound(probe);
    if (expected == entries.end()) {
      EXPECT_FALSE(it->Valid());
    } else {
      ASSERT_TRUE(it->Valid()) << "probe=" << probe;
      EXPECT_EQ(it->key(), expected->first);
      EXPECT_EQ(it->value(), expected->second);
    }
  }
}

class BloomBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(BloomBitsTest, NoFalseNegativesAndBoundedFalsePositives) {
  const int bits_per_key = GetParam();
  BloomFilterBuilder builder(bits_per_key);
  std::vector<std::string> members;
  for (int i = 0; i < 1000; ++i) {
    members.push_back("member-" + std::to_string(i));
    builder.AddKey(members.back());
  }
  const std::string filter = builder.Finish();

  for (const auto& key : members) {
    EXPECT_TRUE(BloomFilterMayContain(filter, key));
  }
  int false_positives = 0;
  const int probes = 5000;
  for (int i = 0; i < probes; ++i) {
    if (BloomFilterMayContain(filter, "absent-" + std::to_string(i))) {
      ++false_positives;
    }
  }
  // 10 bits/key -> ~1%; even 6 bits/key stays under 10%.
  const double fp_rate = static_cast<double>(false_positives) / probes;
  EXPECT_LT(fp_rate, bits_per_key >= 10 ? 0.03 : 0.12)
      << "bits_per_key=" << bits_per_key;
}

INSTANTIATE_TEST_SUITE_P(BitsSweep, BloomBitsTest,
                         ::testing::Values(6, 10, 14));

TEST(BloomTest, EmptyFilterIsPermissive) {
  EXPECT_TRUE(BloomFilterMayContain("", "anything"));
}

}  // namespace
}  // namespace pstorm::storage
