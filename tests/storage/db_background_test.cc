#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/thread_pool.h"
#include "storage/db.h"
#include "storage/env.h"
#include "test_strings.h"

namespace pstorm::storage {
namespace {

/// Options sized so a handful of small puts crosses every threshold.
DbOptions BackgroundOptions(common::ThreadPool* pool) {
  DbOptions options;
  options.memtable_flush_bytes = 512;
  options.l0_compaction_trigger = 3;
  options.target_file_bytes = 1024;
  options.table_options.block_size_bytes = 256;
  options.maintenance_pool = pool;
  return options;
}

std::map<std::string, std::string> Drain(Db* db) {
  std::map<std::string, std::string> out;
  auto iter = db->NewIterator();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    out[std::string(iter->key())] = std::string(iter->value());
  }
  EXPECT_TRUE(iter->status().ok());
  return out;
}

/// Occupies the pool's single worker until Release(), so a test can hold
/// scheduled maintenance in the queue and observe the pre-flush state.
class PoolGate {
 public:
  explicit PoolGate(common::ThreadPool* pool) {
    pool->Schedule([this] {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return released_; });
    });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(DbBackgroundTest, BackgroundModeServesSameDataAsInline) {
  InMemoryEnv inline_env;
  InMemoryEnv bg_env;
  common::ThreadPool pool(2);
  DbOptions inline_options = BackgroundOptions(nullptr);
  auto inline_db = Db::Open(&inline_env, "/db", inline_options).value();
  auto bg_db = Db::Open(&bg_env, "/db", BackgroundOptions(&pool)).value();

  for (int i = 0; i < 300; ++i) {
    const std::string key = Numbered("k", i % 60);
    const std::string value = Numbered("v", i) + std::string(24, 'x');
    ASSERT_TRUE(inline_db->Put(key, value).ok());
    ASSERT_TRUE(bg_db->Put(key, value).ok());
    if (i % 17 == 16) {
      const std::string victim = Numbered("k", i % 60);
      ASSERT_TRUE(inline_db->Delete(victim).ok());
      ASSERT_TRUE(bg_db->Delete(victim).ok());
    }
  }
  ASSERT_TRUE(bg_db->WaitForIdle().ok());
  EXPECT_EQ(Drain(bg_db.get()), Drain(inline_db.get()));
  // The data volume forced real background work.
  EXPECT_GT(bg_db->stats().flushes, 0u);
  EXPECT_GT(bg_db->stats().compactions, 0u);

  // Point lookups agree too.
  for (int i = 0; i < 60; ++i) {
    const std::string key = Numbered("k", i);
    const auto a = inline_db->Get(key);
    const auto b = bg_db->Get(key);
    ASSERT_EQ(a.ok(), b.ok()) << key;
    if (a.ok()) {
      EXPECT_EQ(a.value(), b.value()) << key;
    }
  }
}

TEST(DbBackgroundTest, PutNeverRunsMaintenanceInline) {
  InMemoryEnv env;
  common::ThreadPool pool(1);
  // Hold the worker hostage: scheduled flushes cannot run yet.
  auto db = Db::Open(&env, "/db", BackgroundOptions(&pool)).value();
  PoolGate gate(&pool);

  // Cross the flush threshold several times over. Every Put must return
  // without a single table having been written (the swap parks at most one
  // memtable; beyond that the writer would stall, so stay under two
  // memtables' worth after the swap).
  const std::string value(100, 'x');
  int puts = 0;
  for (; puts < 6; ++puts) {
    ASSERT_TRUE(db->Put(Numbered("k", puts), value).ok());
  }
  EXPECT_EQ(db->num_level0_tables(), 0u);
  EXPECT_EQ(db->stats().flushes, 0u);

  // The parked memtable stays readable while it waits for its flush.
  EXPECT_EQ(db->Get("k0").value(), value);
  EXPECT_EQ(Drain(db.get()).size(), static_cast<size_t>(puts));

  gate.Release();
  ASSERT_TRUE(db->WaitForIdle().ok());
  EXPECT_GT(db->stats().flushes, 0u);
  EXPECT_EQ(db->Get("k0").value(), value);
  EXPECT_EQ(Drain(db.get()).size(), static_cast<size_t>(puts));
}

TEST(DbBackgroundTest, FlushAndCompactAllKeepSynchronousContract) {
  InMemoryEnv env;
  common::ThreadPool pool(2);
  auto db = Db::Open(&env, "/db", BackgroundOptions(&pool)).value();

  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->memtable_entries(), 0u);
  EXPECT_EQ(db->num_level0_tables(), 1u);

  ASSERT_TRUE(db->Put("b", "2").ok());
  ASSERT_TRUE(db->CompactAll().ok());
  EXPECT_EQ(db->memtable_entries(), 0u);
  EXPECT_EQ(db->num_level0_tables(), 0u);
  EXPECT_EQ(db->num_level1_tables(), 1u);
  EXPECT_EQ(db->Get("a").value(), "1");
  EXPECT_EQ(db->Get("b").value(), "2");
}

TEST(DbBackgroundTest, ReopenAfterBackgroundWorkRecoversEverything) {
  InMemoryEnv env;
  std::map<std::string, std::string> model;
  {
    common::ThreadPool pool(2);
    auto db = Db::Open(&env, "/db", BackgroundOptions(&pool)).value();
    for (int i = 0; i < 200; ++i) {
      const std::string key = Numbered("k", i % 40);
      const std::string value = Numbered("v", i);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
    // No flush, no WaitForIdle: the tail of the data is only in the WAL
    // (and possibly a rotated WAL mid-flush) when the Db goes away.
  }
  auto reopened = Db::Open(&env, "/db", BackgroundOptions(nullptr)).value();
  EXPECT_EQ(Drain(reopened.get()), model);
}

/// The admission-control unit test: slowdowns engage at the soft L0
/// threshold, the hard threshold blocks until a demanded compaction brings
/// L0 back under the line, and the gates disengage afterwards.
TEST(DbBackgroundTest, WriterStallEngagesAndReleasesAtThresholds) {
  InMemoryEnv env;
  common::ThreadPool pool(1);
  DbOptions options = BackgroundOptions(&pool);
  options.l0_compaction_trigger = 100;  // Only the stop gate may compact.
  options.l0_slowdown_threshold = 3;
  options.l0_stop_threshold = 5;
  auto db = Db::Open(&env, "/db", options).value();

  // Flush() is synchronous, so each pass parks exactly one more L0 table.
  auto add_l0 = [&](int i) {
    ASSERT_TRUE(db->Put(Numbered("k", i), "v").ok());
    ASSERT_TRUE(db->Flush().ok());
  };

  for (int i = 0; i < 3; ++i) add_l0(i);
  ASSERT_EQ(db->num_level0_tables(), 3u);
  EXPECT_EQ(db->stats().write_slowdowns, 0u);
  EXPECT_EQ(db->stats().write_stalls, 0u);

  // At L0 == 3 the soft gate delays writes but must not block or compact.
  ASSERT_TRUE(db->Put("soft", "v").ok());
  EXPECT_EQ(db->stats().write_slowdowns, 1u);
  EXPECT_EQ(db->stats().write_stalls, 0u);
  EXPECT_EQ(db->stats().compactions, 0u);
  EXPECT_GT(db->stats().stall_micros, 0u);

  // Grow to the stop threshold. (The memtable holds "soft" too; flushing
  // keeps the L0 count moving up one per pass.)
  add_l0(3);
  add_l0(4);
  ASSERT_EQ(db->num_level0_tables(), 5u);

  // This write hits the hard gate: it must block, demand a compaction
  // (despite the sky-high trigger), and only complete once L0 is back
  // under the stop threshold.
  ASSERT_TRUE(db->Put("stopped", "v").ok());
  const DbStats after = db->stats();
  EXPECT_EQ(after.write_stalls, 1u);
  EXPECT_GE(after.compactions, 1u);
  EXPECT_LT(db->num_level0_tables(), 5u);
  EXPECT_EQ(db->Get("stopped").value(), "v");

  // Gates released: the backlog is gone, so writes flow freely again.
  ASSERT_TRUE(db->WaitForIdle().ok());
  ASSERT_TRUE(db->Put("free", "v").ok());
  EXPECT_EQ(db->stats().write_stalls, after.write_stalls);
  EXPECT_EQ(db->stats().write_slowdowns, after.write_slowdowns);
}

TEST(DbBackgroundTest, BackgroundFailureLatchesAndSurfacesToWriters) {
  InMemoryEnv base;
  FaultInjectionEnv fault(&base);
  common::ThreadPool pool(1);
  DbOptions options = BackgroundOptions(&pool);
  options.wal_enabled = false;  // First post-arm mutation is the bg flush.
  auto db = Db::Open(&fault, "/db", options).value();
  ASSERT_TRUE(db->Put("a", "1").ok());

  fault.CrashAtMutation(1);
  // Schedule a flush that is doomed to fail; the error must latch.
  const Status flush = db->Flush();
  EXPECT_FALSE(flush.ok());
  EXPECT_FALSE(db->WaitForIdle().ok());
  // Writers now report the latched error instead of silently buffering
  // into a store that can no longer persist anything.
  EXPECT_FALSE(db->Put("b", "2").ok());
  // Reads still serve what memory has.
  EXPECT_EQ(db->Get("a").value(), "1");
}

}  // namespace
}  // namespace pstorm::storage
