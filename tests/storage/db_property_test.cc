// Property-based testing of the storage engine: random operation
// sequences checked against a std::map model, across seeds and engine
// tuning parameters.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "common/random.h"
#include "storage/db.h"

namespace pstorm::storage {
namespace {

struct PropertyParams {
  uint64_t seed;
  size_t memtable_flush_bytes;
  int l0_trigger;
  size_t block_size;
};

std::string ParamName(const PropertyParams& p) {
  return "seed" + std::to_string(p.seed) + "_mem" +
         std::to_string(p.memtable_flush_bytes) + "_blk" +
         std::to_string(p.block_size);
}

// gtest would otherwise print the struct's raw bytes, padding included,
// into the ctest name of each case.
void PrintTo(const PropertyParams& p, std::ostream* os) {
  *os << ParamName(p);
}

class DbModelTest : public ::testing::TestWithParam<PropertyParams> {};

TEST_P(DbModelTest, RandomOpsMatchModel) {
  const PropertyParams p = GetParam();
  InMemoryEnv env;
  DbOptions options;
  options.memtable_flush_bytes = p.memtable_flush_bytes;
  options.l0_compaction_trigger = p.l0_trigger;
  options.table_options.block_size_bytes = p.block_size;
  options.target_file_bytes = 4 * p.memtable_flush_bytes;
  auto db = Db::Open(&env, "/prop-db", options);
  ASSERT_TRUE(db.ok());

  std::map<std::string, std::string> model;
  Rng rng(p.seed);
  for (int op = 0; op < 3000; ++op) {
    const std::string key = "k" + std::to_string(rng.NextUint64(400));
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      const std::string value = "v" + std::to_string(op);
      model[key] = value;
      ASSERT_TRUE((*db)->Put(key, value).ok());
    } else if (dice < 0.80) {
      model.erase(key);
      ASSERT_TRUE((*db)->Delete(key).ok());
    } else if (dice < 0.95) {
      auto got = (*db)->Get(key);
      auto expected = model.find(key);
      if (expected == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << key << ": " << got.status();
        EXPECT_EQ(got.value(), expected->second);
      }
    } else if (dice < 0.98) {
      ASSERT_TRUE((*db)->Flush().ok());
    } else {
      ASSERT_TRUE((*db)->CompactAll().ok());
    }
  }

  // Final full-scan equivalence.
  auto it = (*db)->NewIterator();
  auto expected = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(it->key(), expected->first);
    EXPECT_EQ(it->value(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
  EXPECT_TRUE(it->status().ok());

  // Equivalence survives a persistence round trip.
  ASSERT_TRUE((*db)->Flush().ok());
  db->reset();
  auto reopened = Db::Open(&env, "/prop-db", options);
  ASSERT_TRUE(reopened.ok());
  for (const auto& [k, v] : model) {
    auto got = (*reopened)->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(got.value(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, DbModelTest,
    ::testing::Values(PropertyParams{1, 512, 2, 128},
                      PropertyParams{2, 2048, 3, 256},
                      PropertyParams{3, 256, 4, 64},
                      PropertyParams{4, 1 << 20, 4, 4096},
                      PropertyParams{5, 128, 2, 512}),
    [](const auto& info) { return ParamName(info.param); });

class IteratorSeekPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IteratorSeekPropertyTest, SeekAgreesWithModelLowerBound) {
  InMemoryEnv env;
  DbOptions options;
  options.memtable_flush_bytes = 512;
  auto db = Db::Open(&env, "/seek-db", options);
  ASSERT_TRUE(db.ok());

  std::map<std::string, std::string> model;
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key" + std::to_string(rng.NextUint64(5000));
    model[key] = std::to_string(i);
    ASSERT_TRUE((*db)->Put(key, std::to_string(i)).ok());
  }
  // Delete a random 25%.
  for (auto it = model.begin(); it != model.end();) {
    if (rng.Bernoulli(0.25)) {
      ASSERT_TRUE((*db)->Delete(it->first).ok());
      it = model.erase(it);
    } else {
      ++it;
    }
  }

  auto iter = (*db)->NewIterator();
  for (int trial = 0; trial < 200; ++trial) {
    const std::string probe = "key" + std::to_string(rng.NextUint64(5000));
    iter->Seek(probe);
    auto expected = model.lower_bound(probe);
    if (expected == model.end()) {
      EXPECT_FALSE(iter->Valid()) << probe;
    } else {
      ASSERT_TRUE(iter->Valid()) << probe;
      EXPECT_EQ(iter->key(), expected->first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IteratorSeekPropertyTest,
                         ::testing::Values(11, 22, 33));

}  // namespace
}  // namespace pstorm::storage
