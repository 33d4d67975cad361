#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/block_cache.h"
#include "storage/db.h"
#include "storage/env.h"
#include "sync_latency_env.h"
#include "test_strings.h"

namespace pstorm::storage {
namespace {

/// Concurrency coverage for the snapshot-isolated Db: these tests are the
/// ones the CI TSan job leans on, so they deliberately overlap readers with
/// flushes and compactions.
class DbConcurrencyTest : public ::testing::Test {
 protected:
  std::unique_ptr<Db> OpenDb(DbOptions options = {}) {
    auto db = Db::Open(&env_, "/db", options);
    EXPECT_TRUE(db.ok()) << db.status();
    return std::move(db).value();
  }

  static DbOptions TinyOptions() {
    DbOptions options;
    options.memtable_flush_bytes = 512;
    options.l0_compaction_trigger = 3;
    options.target_file_bytes = 1024;
    options.table_options.block_size_bytes = 256;
    return options;
  }

  size_t NumSstables() {
    auto files = env_.ListDir("/db");
    EXPECT_TRUE(files.ok());
    size_t n = 0;
    for (const std::string& name : files.value()) {
      if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") ++n;
    }
    return n;
  }

  InMemoryEnv env_;
};

TEST_F(DbConcurrencyTest, IteratorIgnoresLaterWrites) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("a", "1").ok());
  ASSERT_TRUE(db->Put("b", "2").ok());

  auto it = db->NewIterator();
  ASSERT_TRUE(db->Put("a", "overwritten").ok());
  ASSERT_TRUE(db->Put("c", "new").ok());
  ASSERT_TRUE(db->Delete("b").ok());

  std::map<std::string, std::string> seen;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    seen[std::string(it->key())] = std::string(it->value());
  }
  EXPECT_TRUE(it->status().ok());
  const std::map<std::string, std::string> expected = {{"a", "1"},
                                                       {"b", "2"}};
  EXPECT_EQ(seen, expected);
}

TEST_F(DbConcurrencyTest, IteratorSurvivesFlushAndCompaction) {
  auto db = OpenDb(TinyOptions());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        db->Put("key" + std::to_string(i), std::string(40, 'x')).ok());
  }
  auto it = db->NewIterator();

  for (int i = 50; i < 100; ++i) {
    ASSERT_TRUE(
        db->Put("key" + std::to_string(i), std::string(40, 'y')).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_TRUE(db->CompactAll().ok());

  size_t rows = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ++rows;
    EXPECT_EQ(it->value(), std::string(40, 'x'));
  }
  EXPECT_TRUE(it->status().ok());
  EXPECT_EQ(rows, 50u);
}

TEST_F(DbConcurrencyTest, ObsoleteTablesLiveUntilLastReaderUnpins) {
  auto db = OpenDb(TinyOptions());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        db->Put("key" + std::to_string(i), std::string(40, 'x')).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
  ASSERT_GE(NumSstables(), 1u);

  auto it = db->NewIterator();
  const size_t before = NumSstables();
  ASSERT_TRUE(db->CompactAll().ok());
  // The compacted-away inputs are obsolete but still pinned by the
  // iterator, so the old files plus the new run coexist.
  const size_t while_pinned = NumSstables();
  EXPECT_GT(while_pinned, before);

  size_t rows = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++rows;
  EXPECT_EQ(rows, 100u);
  it.reset();  // Last pin gone: the obsolete inputs are deleted.
  EXPECT_LT(NumSstables(), while_pinned);

  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(db->Get("key" + std::to_string(i)).value(),
              std::string(40, 'x'));
  }
}

TEST_F(DbConcurrencyTest, ParallelReadersDuringFlushAndCompaction) {
  auto db = OpenDb(TinyOptions());
  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put("stable" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> reader_errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = "stable" + std::to_string(i++ % kKeys);
        auto got = db->Get(key);
        if (!got.ok() || got.value() != "v") {
          reader_errors.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 16 == 0) {
          auto it = db->NewIterator();
          size_t stable_rows = 0;
          for (it->SeekToFirst(); it->Valid(); it->Next()) {
            if (it->key().substr(0, 6) == "stable") ++stable_rows;
          }
          if (!it->status().ok() || stable_rows != kKeys) {
            reader_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Writer: churn a disjoint key range hard enough to force flushes and
  // compactions while the readers run.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(db->Put("churn" + std::to_string(i),
                          std::string(64, static_cast<char>('a' + round)))
                      .ok());
    }
    ASSERT_TRUE(db->CompactAll().ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_errors.load(), 0);
}

TEST_F(DbConcurrencyTest, ConcurrentGetsMatchSerialGets) {
  auto db = OpenDb(TinyOptions());
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db->Put("k" + std::to_string(i),
                        "v" + std::to_string(i * 7)).ok());
  }
  ASSERT_TRUE(db->Flush().ok());

  std::vector<std::string> serial(kKeys);
  for (int i = 0; i < kKeys; ++i) {
    serial[i] = db->Get("k" + std::to_string(i)).value();
  }

  std::vector<std::vector<std::string>> parallel(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      parallel[t].resize(kKeys);
      for (int i = 0; i < kKeys; ++i) {
        auto got = db->Get(Numbered("k", i));
        parallel[t][i] = got.ok() ? got.value() : "<error>";
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& result : parallel) EXPECT_EQ(result, serial);
}

TEST_F(DbConcurrencyTest, ConcurrentWritersSettleToLastValuePerKey) {
  auto db = OpenDb(TinyOptions());
  // Each thread owns a disjoint key range, so the final state is exact.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> writers;
  std::atomic<int> write_errors{0};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key = Numbered("t", t) + "-" + std::to_string(i);
        if (!db->Put(key, std::string(30, 'p')).ok() ||
            !db->Put(key, "final" + std::to_string(i)).ok()) {
          write_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(write_errors.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string key = Numbered("t", t) + "-" + std::to_string(i);
      EXPECT_EQ(db->Get(key).value(), "final" + std::to_string(i));
    }
  }
  EXPECT_EQ(db->stats().wal_appends, 2u * kThreads * kPerThread);
}

TEST_F(DbConcurrencyTest, BackgroundMaintenanceRacesReadersAndWriters) {
  // The TSan workhorse for maintenance: point readers and iterator scans
  // race the flushes and compactions that group-commit leaders run inline
  // under writer_mu_ while the other writers queue behind them.
  auto db = OpenDb(TinyOptions());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 60;
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        // Point gets against whatever is visible; only the two values the
        // writer ever stores may surface, in any maintenance state.
        auto got = db->Get("t0-0");
        if (got.ok() && got.value() != "final0" &&
            got.value() != std::string(30, 'p')) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        // And a full scan pinned across whatever maintenance is running.
        auto it = db->NewIterator();
        size_t rows = 0;
        for (it->SeekToFirst(); it->Valid(); it->Next()) ++rows;
        if (!it->status().ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key = Numbered("t", t) + "-" + std::to_string(i);
        if (!db->Put(key, std::string(30, 'p')).ok() ||
            !db->Put(key, "final" + std::to_string(i)).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  ASSERT_EQ(errors.load(), 0);

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string key = Numbered("t", t) + "-" + std::to_string(i);
      EXPECT_EQ(db->Get(key).value(), "final" + std::to_string(i));
    }
  }
  // The data volume guarantees real flushes happened (and with trigger 3,
  // compactions too).
  EXPECT_GT(db->stats().flushes, 0u);
  EXPECT_GT(db->stats().compactions, 0u);
}

TEST_F(DbConcurrencyTest, GroupCommitCoalescesConcurrentAppendsIntoFewerSyncs) {
  // Eight contending writers: the leader/follower handoff should fold many
  // queued records into single WAL syncs, so the physical sync count lands
  // well below the logical append count.
  SyncLatencyEnv slow(&env_, std::chrono::microseconds(200));
  auto db_or = Db::Open(&slow, "/db", DbOptions());
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  auto db = std::move(db_or).value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  std::atomic<int> write_errors{0};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key = Numbered("w", t) + "-" + std::to_string(i);
        if (!db->Put(key, Numbered("v", i)).ok()) {
          write_errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  ASSERT_EQ(write_errors.load(), 0);

  const DbStats stats = db->stats();
  EXPECT_EQ(stats.wal_appends, uint64_t{kThreads} * kPerThread);
  EXPECT_GT(stats.wal_syncs, 0u);
  EXPECT_LT(stats.wal_syncs, stats.wal_appends)
      << "contended writers never shared a sync";

  // Every acked write is readable, and order within a key is the last one.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string key = Numbered("w", t) + "-" + std::to_string(i);
      EXPECT_EQ(db->Get(key).value(), Numbered("v", i));
    }
  }
}

TEST_F(DbConcurrencyTest, GroupCommitSurvivesReopen) {
  // The coalesced WAL image must replay exactly like per-record appends.
  {
    auto db = OpenDb();
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < 100; ++i) {
          ASSERT_TRUE(db->Put(Numbered("r", t) + "-" + std::to_string(i),
                              Numbered("v", i))
                          .ok());
        }
      });
    }
    for (std::thread& t : writers) t.join();
  }
  auto reopened = OpenDb();
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_EQ(
          reopened->Get(Numbered("r", t) + "-" + std::to_string(i)).value(),
          Numbered("v", i));
    }
  }
}

TEST_F(DbConcurrencyTest, SharedBlockCacheRacesGetsAgainstMaintenance) {
  // Two Dbs share one deliberately tiny block cache, so concurrent Gets
  // constantly insert and evict each other's blocks while flushes and
  // compactions retire the tables those blocks came from. TSan checks the
  // shard locking; the assertions check nothing went stale.
  auto cache = std::make_shared<BlockCache>(16 * 1024);
  DbOptions options = TinyOptions();
  options.block_cache = cache;
  auto db1 = OpenDb(options);
  auto db2_or = Db::Open(&env_, "/db2", options);
  ASSERT_TRUE(db2_or.ok()) << db2_or.status();
  auto db2 = std::move(db2_or).value();

  constexpr int kKeys = 64;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db1->Put("a" + std::to_string(i), "v1-" +
                         std::to_string(i)).ok());
    ASSERT_TRUE(db2->Put("b" + std::to_string(i), "v2-" +
                         std::to_string(i)).ok());
  }
  ASSERT_TRUE(db1->Flush().ok());
  ASSERT_TRUE(db2->Flush().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Db* db = t % 2 == 0 ? db1.get() : db2.get();
      const char prefix = t % 2 == 0 ? 'a' : 'b';
      const std::string want = t % 2 == 0 ? "v1-" : "v2-";
      uint64_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const int k = static_cast<int>(i++ % kKeys);
        auto got = db->Get(prefix + std::to_string(k));
        if (!got.ok() || got.value() != want + std::to_string(k)) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Churn both dbs hard enough to flush and compact: old tables die while
  // their blocks are still cached under the dead tables' file ids.
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 48; ++i) {
      ASSERT_TRUE(db1->Put("churn1-" + std::to_string(i),
                           std::string(64, static_cast<char>('a' + round)))
                      .ok());
      ASSERT_TRUE(db2->Put("churn2-" + std::to_string(i),
                           std::string(64, static_cast<char>('a' + round)))
                      .ok());
    }
    ASSERT_TRUE(db1->CompactAll().ok());
    ASSERT_TRUE(db2->CompactAll().ok());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(errors.load(), 0);

  const BlockCache::Stats stats = cache->GetStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_LE(stats.bytes_used, cache->capacity_bytes());
}

}  // namespace
}  // namespace pstorm::storage
