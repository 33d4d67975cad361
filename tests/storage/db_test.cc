#include "storage/db.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>

#include "common/random.h"
#include "storage/merging_iterator.h"

namespace pstorm::storage {
namespace {

class DbTest : public ::testing::Test {
 protected:
  std::unique_ptr<Db> OpenDb(DbOptions options = {}) {
    auto db = Db::Open(&env_, "/db", options);
    EXPECT_TRUE(db.ok()) << db.status();
    return std::move(db).value();
  }

  /// Options that force frequent flush/compaction so tests cover the full
  /// write path with small data.
  static DbOptions TinyOptions() {
    DbOptions options;
    options.memtable_flush_bytes = 512;
    options.l0_compaction_trigger = 3;
    options.target_file_bytes = 1024;
    options.table_options.block_size_bytes = 256;
    return options;
  }

  InMemoryEnv env_;
};

TEST_F(DbTest, PutGetRoundTrip) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k1", "v1").ok());
  ASSERT_TRUE(db->Put("k2", "v2").ok());
  EXPECT_EQ(db->Get("k1").value(), "v1");
  EXPECT_EQ(db->Get("k2").value(), "v2");
  EXPECT_TRUE(db->Get("k3").status().IsNotFound());
}

TEST_F(DbTest, EmptyKeyRejected) {
  auto db = OpenDb();
  EXPECT_TRUE(db->Put("", "v").IsInvalidArgument());
  EXPECT_TRUE(db->Delete("").IsInvalidArgument());
}

TEST_F(DbTest, OverwriteTakesLatestValue) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "old").ok());
  ASSERT_TRUE(db->Put("k", "new").ok());
  EXPECT_EQ(db->Get("k").value(), "new");
}

TEST_F(DbTest, WriteBatchCommitsInOrderWithOneSync) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("gone", "old").ok());
  const DbStats before = db->stats();
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Put("a", "3");  // Later records of a batch win.
  batch.Delete("gone");
  ASSERT_TRUE(db->Write(batch).ok());
  const DbStats after = db->stats();
  EXPECT_EQ(after.wal_appends - before.wal_appends, 4u);
  EXPECT_EQ(after.wal_syncs - before.wal_syncs, 1u);
  EXPECT_EQ(db->Get("a").value(), "3");
  EXPECT_EQ(db->Get("b").value(), "2");
  EXPECT_TRUE(db->Get("gone").status().IsNotFound());

  // One empty key rejects the whole batch before anything is logged.
  WriteBatch bad;
  bad.Put("c", "1");
  bad.Put("", "x");
  EXPECT_TRUE(db->Write(bad).IsInvalidArgument());
  EXPECT_TRUE(db->Get("c").status().IsNotFound());
  EXPECT_EQ(db->stats().wal_appends, after.wal_appends);
}

TEST_F(DbTest, DeleteHidesKey) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v").ok());
  ASSERT_TRUE(db->Delete("k").ok());
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
}

TEST_F(DbTest, DeleteShadowsFlushedValue) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k", "v").ok());
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->Delete("k").ok());
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_TRUE(db->Get("k").status().IsNotFound());
}

TEST_F(DbTest, GetReadsAcrossMemtableL0AndL1) {
  auto db = OpenDb(TinyOptions());
  // Enough writes to populate every level.
  std::map<std::string, std::string> model;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    std::string k = "key" + std::to_string(rng.NextUint64(200));
    std::string v = "val" + std::to_string(i);
    model[k] = v;
    ASSERT_TRUE(db->Put(k, v).ok());
  }
  EXPECT_GT(db->stats().flushes, 0u);
  EXPECT_GT(db->stats().compactions, 0u);
  for (const auto& [k, v] : model) {
    auto got = db->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status();
    EXPECT_EQ(got.value(), v) << k;
  }
}

TEST_F(DbTest, IteratorMatchesModelUnderRandomOps) {
  auto db = OpenDb(TinyOptions());
  std::map<std::string, std::string> model;
  Rng rng(2);
  for (int i = 0; i < 2000; ++i) {
    std::string k = "key" + std::to_string(rng.NextUint64(300));
    if (rng.Bernoulli(0.25)) {
      model.erase(k);
      ASSERT_TRUE(db->Delete(k).ok());
    } else {
      std::string v = "val" + std::to_string(i);
      model[k] = v;
      ASSERT_TRUE(db->Put(k, v).ok());
    }
  }
  auto it = db->NewIterator();
  auto expected = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(it->key(), expected->first);
    EXPECT_EQ(it->value(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(DbTest, IteratorSeek) {
  auto db = OpenDb();
  for (const char* k : {"b", "d", "f"}) ASSERT_TRUE(db->Put(k, k).ok());
  ASSERT_TRUE(db->Delete("d").ok());
  auto it = db->NewIterator();
  it->Seek("c");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), "f") << "tombstoned 'd' must be skipped";
}

TEST_F(DbTest, PersistsAcrossReopen) {
  DbOptions options = TinyOptions();
  std::map<std::string, std::string> model;
  {
    auto db = OpenDb(options);
    Rng rng(3);
    for (int i = 0; i < 300; ++i) {
      std::string k = "key" + std::to_string(rng.NextUint64(100));
      std::string v = "val" + std::to_string(i);
      model[k] = v;
      ASSERT_TRUE(db->Put(k, v).ok());
    }
    ASSERT_TRUE(db->Flush().ok());  // Memtable is not durable by itself.
  }
  auto db = OpenDb(options);
  for (const auto& [k, v] : model) {
    auto got = db->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(got.value(), v);
  }
}

TEST_F(DbTest, CompactionDropsTombstonesAndObsoleteFiles) {
  auto db = OpenDb(TinyOptions());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db->Delete("key" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(db->num_level0_tables(), 0u);
  auto it = db->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid()) << "everything was deleted";
  // After dropping all records, level 1 should hold at most a stub.
  EXPECT_LE(db->num_level1_tables(), 1u);
}

TEST_F(DbTest, FlushEmptyMemtableIsNoop) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->stats().flushes, 0u);
}

TEST_F(DbTest, CorruptManifestFailsOpen) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("k", "v").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(env_.WriteFile("/db/MANIFEST", "not a manifest").ok());
  auto reopened = Db::Open(&env_, "/db");
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(DbTest, CorruptTableFileIsQuarantinedNotFatal) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("gone", "v").ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->Put("kept", "v2").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  // Rot the older of the two sstables (they are numbered in flush order).
  auto contents = env_.ReadFile("/db/000001.sst");
  ASSERT_TRUE(contents.ok());
  std::string bad = contents.value();
  bad[0] ^= 0xff;
  ASSERT_TRUE(env_.WriteFile("/db/000001.sst", bad).ok());

  // The open survives: the rotten table is renamed aside and counted, the
  // healthy one still serves.
  auto reopened = Db::Open(&env_, "/db");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->stats().quarantined_files, 1u);
  EXPECT_EQ((*reopened)->Get("kept").value(), "v2");
  EXPECT_TRUE((*reopened)->Get("gone").status().IsNotFound());
  EXPECT_TRUE(env_.FileExists("/db/000001.sst.quarantine"));
  EXPECT_FALSE(env_.FileExists("/db/000001.sst"));

  // The rewritten manifest dropped the quarantined table, so the next
  // open is clean.
  auto again = Db::Open(&env_, "/db");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->stats().quarantined_files, 0u);
  EXPECT_EQ((*again)->Get("kept").value(), "v2");
}

TEST_F(DbTest, TruncatedTableFooterIsQuarantined) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("k", "v").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  // A torn sstable write cuts the file mid-footer; the reader must call it
  // Corruption (not walk off the end) and the open must quarantine it.
  auto contents = env_.ReadFile("/db/000001.sst");
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(env_.WriteFile("/db/000001.sst",
                             contents.value().substr(
                                 0, contents.value().size() - 20))
                  .ok());
  EXPECT_TRUE(Table::Open(contents.value().substr(
                              0, contents.value().size() - 20))
                  .status()
                  .IsCorruption());
  auto reopened = Db::Open(&env_, "/db");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->stats().quarantined_files, 1u);
}

TEST_F(DbTest, MissingTableFileIsQuarantineCounted) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("k", "v").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(env_.DeleteFile("/db/000001.sst").ok());
  auto reopened = Db::Open(&env_, "/db");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->stats().quarantined_files, 1u);
  EXPECT_TRUE((*reopened)->Get("k").status().IsNotFound());
}

TEST_F(DbTest, BadManifestLineFailsOpen) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("k", "v").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(env_.WriteFile("/db/MANIFEST",
                             "pstorm-manifest-v1\nl0 a b c\n")
                  .ok());
  auto reopened = Db::Open(&env_, "/db");
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(DbTest, UnknownManifestTagFailsOpen) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("k", "v").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(
      env_.WriteFile("/db/MANIFEST", "pstorm-manifest-v1\nl7 000001.sst\n")
          .ok());
  auto reopened = Db::Open(&env_, "/db");
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(DbTest, BadManifestNextFileValueFailsOpen) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(
      env_.WriteFile("/db/MANIFEST", "pstorm-manifest-v1\nnext_file 12x\n")
          .ok());
  auto reopened = Db::Open(&env_, "/db");
  EXPECT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption());
}

TEST_F(DbTest, OrphanFromCrashedCompactionIsRemovedOnOpen) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("k", "v").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  // A compaction that crashed after writing its output but before the
  // manifest switch leaves an unreferenced sstable (and possibly a staged
  // .tmp) behind.
  ASSERT_TRUE(env_.WriteFile("/db/000099.sst", "leftover bytes").ok());
  ASSERT_TRUE(env_.WriteFile("/db/MANIFEST.tmp", "staged").ok());
  auto reopened = Db::Open(&env_, "/db");
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->stats().orphans_removed, 2u);
  EXPECT_FALSE(env_.FileExists("/db/000099.sst"));
  EXPECT_FALSE(env_.FileExists("/db/MANIFEST.tmp"));
  EXPECT_EQ((*reopened)->Get("k").value(), "v");
}

TEST_F(DbTest, QuarantinedFilesSurviveOrphanSweep) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("k", "v").ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  ASSERT_TRUE(env_.WriteFile("/db/000042.sst.quarantine", "evidence").ok());
  auto reopened = Db::Open(&env_, "/db");
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(env_.FileExists("/db/000042.sst.quarantine"));
}

TEST(MergingIteratorTest, NewestSourceWins) {
  Memtable newer, older;
  older.Put("k", "old");
  older.Put("only-old", "x");
  newer.Put("k", "new");
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(newer.NewIterator());
  children.push_back(older.NewIterator());
  auto merged = NewMergingIterator(std::move(children));
  merged->SeekToFirst();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->key(), "k");
  EXPECT_EQ(merged->value(), "new");
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->key(), "only-old");
  merged->Next();
  EXPECT_FALSE(merged->Valid());
}

TEST(MergingIteratorTest, EmptyChildren) {
  auto merged = NewMergingIterator({});
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
}

TEST(EnvTest, InMemoryBasics) {
  InMemoryEnv env;
  EXPECT_FALSE(env.FileExists("/a/b"));
  ASSERT_TRUE(env.WriteFile("/a/b", "data").ok());
  EXPECT_TRUE(env.FileExists("/a/b"));
  EXPECT_EQ(env.ReadFile("/a/b").value(), "data");
  ASSERT_TRUE(env.RenameFile("/a/b", "/a/c").ok());
  EXPECT_FALSE(env.FileExists("/a/b"));
  EXPECT_EQ(env.ReadFile("/a/c").value(), "data");
  auto listing = env.ListDir("/a");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.value(), std::vector<std::string>{"c"});
  ASSERT_TRUE(env.DeleteFile("/a/c").ok());
  EXPECT_TRUE(env.DeleteFile("/a/c").IsNotFound());
}

/// Like a POSIX fd, an append handle writes to the file it opened: once
/// WriteFile replaces the path, the old handle's appends miss it.
TEST(EnvTest, InMemoryAppendHandleKeepsItsFile) {
  InMemoryEnv env;
  auto old_handle = env.NewAppendableFile("/log").value();
  EXPECT_EQ(env.ReadFile("/log").value(), "");  // Created empty.
  ASSERT_TRUE(old_handle->Append("a").ok());
  ASSERT_TRUE(old_handle->Sync().ok());
  EXPECT_EQ(env.ReadFile("/log").value(), "a");
  ASSERT_TRUE(env.WriteFile("/log", "").ok());
  ASSERT_TRUE(old_handle->Append("lost").ok());
  EXPECT_EQ(env.ReadFile("/log").value(), "");
  auto new_handle = env.NewAppendableFile("/log").value();
  ASSERT_TRUE(new_handle->Append("b").ok());
  EXPECT_EQ(env.ReadFile("/log").value(), "b");
}

TEST(EnvTest, PosixAppendHandleAppendsAndSyncs) {
  PosixEnv env;
  const std::string dir = ::testing::TempDir() + "/pstorm_append_test_" +
                          std::to_string(::getpid());
  ASSERT_TRUE(env.CreateDir(dir).ok());
  const std::string path = dir + "/log";
  {
    auto log = env.NewAppendableFile(path);
    ASSERT_TRUE(log.ok()) << log.status();
    ASSERT_TRUE((*log)->Append("one").ok());
    ASSERT_TRUE((*log)->Sync().ok());
  }
  auto reopened = env.NewAppendableFile(path).value();  // Appends, no trunc.
  ASSERT_TRUE(reopened->Append("two").ok());
  ASSERT_TRUE(reopened->Sync().ok());
  EXPECT_EQ(env.ReadFile(path).value(), "onetwo");
  ASSERT_TRUE(env.DeleteFile(path).ok());
  std::filesystem::remove_all(dir);
}

TEST(EnvTest, PosixRoundTrip) {
  PosixEnv env;
  const std::string dir =
      ::testing::TempDir() + "/pstorm_env_test_" + std::to_string(::getpid());
  ASSERT_TRUE(env.CreateDir(dir).ok());
  ASSERT_TRUE(env.WriteFile(dir + "/f1", "hello").ok());
  EXPECT_EQ(env.ReadFile(dir + "/f1").value(), "hello");
  ASSERT_TRUE(env.RenameFile(dir + "/f1", dir + "/f2").ok());
  auto listing = env.ListDir(dir);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing.value(), std::vector<std::string>{"f2"});
  ASSERT_TRUE(env.DeleteFile(dir + "/f2").ok());
}

TEST(DbOnPosixTest, EndToEnd) {
  PosixEnv env;
  const std::string dir =
      ::testing::TempDir() + "/pstorm_db_test_" + std::to_string(::getpid());
  {
    auto db = Db::Open(&env, dir);
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Put("persisted", "yes").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  auto db = Db::Open(&env, dir);
  ASSERT_TRUE(db.ok()) << db.status();
  EXPECT_EQ((*db)->Get("persisted").value(), "yes");
}

/// A flush replaces the WAL with an empty file; the log's append handle
/// must follow it, or later records land in the unlinked old file and a
/// reopen never sees them.
TEST(DbOnPosixTest, AppendAfterFlushTruncatedTheLogIsReplayed) {
  PosixEnv env;
  const std::string dir = ::testing::TempDir() + "/pstorm_db_truncate_test_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  {
    auto db = Db::Open(&env, dir).value();
    ASSERT_TRUE(db->Put("flushed", "1").ok());
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->Put("after-truncate", "2").ok());
  }
  auto db = Db::Open(&env, dir).value();
  EXPECT_EQ(db->stats().wal_records_replayed, 1u);
  EXPECT_EQ(db->Get("flushed").value(), "1");
  auto replayed = db->Get("after-truncate");
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed.value(), "2");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace pstorm::storage
