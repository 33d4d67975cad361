#include "storage/wal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/random.h"
#include "storage/db.h"
#include "test_strings.h"

namespace pstorm::storage {
namespace {

/// Fails one log write on request: the next Append lands all of its bytes
/// but the last, so its final frame is torn however many frames the group
/// holds, and returns IoError (ENOSPC or EIO partway through a write); or
/// the next Sync returns IoError after the bytes reached the file (a
/// failed fdatasync). Safe to arm from any thread.
class FailingLogEnv final : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;

  void TearNextAppend() { fail_append_.store(true); }
  void FailNextSync() { fail_sync_.store(true); }

  Result<std::unique_ptr<AppendableFile>> NewAppendableFile(
      const std::string& path) override {
    PSTORM_ASSIGN_OR_RETURN(std::unique_ptr<AppendableFile> file,
                            target()->NewAppendableFile(path));
    return std::unique_ptr<AppendableFile>(
        new FailingFile(this, std::move(file)));
  }

 private:
  class FailingFile final : public AppendableFile {
   public:
    FailingFile(FailingLogEnv* env, std::unique_ptr<AppendableFile> file)
        : env_(env), file_(std::move(file)) {}
    Status Append(std::string_view data) override {
      if (env_->fail_append_.exchange(false)) {
        EXPECT_TRUE(file_->Append(data.substr(0, data.size() - 1)).ok());
        return Status::IoError("no space left on device");
      }
      return file_->Append(data);
    }
    Status Sync() override {
      if (env_->fail_sync_.exchange(false)) {
        return Status::IoError("fdatasync failed");
      }
      return file_->Sync();
    }

   private:
    FailingLogEnv* env_;
    std::unique_ptr<AppendableFile> file_;
  };

  std::atomic<bool> fail_append_{false};
  std::atomic<bool> fail_sync_{false};
};

// --------------------------------------------------------------- framing

TEST(WalTest, ReplayMissingLogIsEmpty) {
  InMemoryEnv env;
  Memtable memtable;
  auto replay = ReplayWal(env, "/no/such/wal", &memtable);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_applied, 0u);
  EXPECT_FALSE(replay->truncated_tail);
  EXPECT_TRUE(memtable.empty());
}

TEST(WalTest, AppendReplayRoundTrip) {
  InMemoryEnv env;
  WalWriter wal(&env, "/wal");
  ASSERT_TRUE(wal.AppendPut("a", "1").ok());
  ASSERT_TRUE(wal.AppendPut("b", "2").ok());
  ASSERT_TRUE(wal.AppendDelete("a").ok());

  Memtable memtable;
  auto replay = ReplayWal(env, "/wal", &memtable);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_applied, 3u);
  EXPECT_FALSE(replay->truncated_tail);
  ASSERT_TRUE(memtable.Get("a").has_value());
  EXPECT_EQ(memtable.Get("a")->type, EntryType::kTombstone);
  EXPECT_EQ(memtable.Get("b")->value, "2");
}

TEST(WalTest, BinaryKeysAndValuesSurvive) {
  InMemoryEnv env;
  WalWriter wal(&env, "/wal");
  const std::string key("k\0ey\xff", 6);
  const std::string value("v\0al\n", 5);
  ASSERT_TRUE(wal.AppendPut(key, value).ok());
  Memtable memtable;
  auto replay = ReplayWal(env, "/wal", &memtable);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_EQ(memtable.Get(key)->value, value);
}

TEST(WalTest, TornTailIsDroppedCleanly) {
  InMemoryEnv env;
  WalWriter wal(&env, "/wal");
  ASSERT_TRUE(wal.AppendPut("intact", "v").ok());
  ASSERT_TRUE(wal.AppendPut("torn", "this record will be cut").ok());
  auto log = env.ReadFile("/wal");
  ASSERT_TRUE(log.ok());
  // Cut the last record short anywhere inside it: the intact prefix must
  // still replay, for every cut length.
  const std::string full = log.value();
  const std::string first =
      EncodeWalRecord(1, EntryType::kValue, "intact", "v");
  for (size_t cut = first.size() + 1; cut < full.size(); ++cut) {
    ASSERT_TRUE(env.WriteFile("/wal", full.substr(0, cut)).ok());
    Memtable memtable;
    auto replay = ReplayWal(env, "/wal", &memtable);
    ASSERT_TRUE(replay.ok()) << "cut=" << cut;
    EXPECT_EQ(replay->records_applied, 1u) << "cut=" << cut;
    EXPECT_TRUE(replay->truncated_tail) << "cut=" << cut;
    EXPECT_EQ(memtable.Get("intact")->value, "v");
    EXPECT_FALSE(memtable.Get("torn").has_value());
  }
}

TEST(WalTest, ChecksumMismatchStopsReplay) {
  InMemoryEnv env;
  WalWriter wal(&env, "/wal");
  ASSERT_TRUE(wal.AppendPut("good", "v").ok());
  ASSERT_TRUE(wal.AppendPut("rotten", "v").ok());
  auto log = env.ReadFile("/wal");
  ASSERT_TRUE(log.ok());
  std::string bad = log.value();
  bad[bad.size() - 1] ^= 0x01;  // Flip a payload bit of the last record.
  ASSERT_TRUE(env.WriteFile("/wal", bad).ok());

  Memtable memtable;
  auto replay = ReplayWal(env, "/wal", &memtable);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_applied, 1u);
  EXPECT_TRUE(replay->truncated_tail);
  EXPECT_EQ(memtable.Get("good")->value, "v");
}

TEST(WalTest, TruncateEmptiesTheLog) {
  InMemoryEnv env;
  WalWriter wal(&env, "/wal");
  ASSERT_TRUE(wal.AppendPut("k", "v").ok());
  ASSERT_TRUE(wal.Truncate().ok());
  Memtable memtable;
  auto replay = ReplayWal(env, "/wal", &memtable);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->records_applied, 0u);
  EXPECT_FALSE(replay->truncated_tail);
}

// ----------------------------------------------------- Db + WAL recovery

TEST(DbWalTest, UnflushedWritesSurviveReopen) {
  InMemoryEnv env;
  {
    auto db = Db::Open(&env, "/db").value();
    ASSERT_TRUE(db->Put("durable", "yes").ok());
    ASSERT_TRUE(db->Put("overwritten", "old").ok());
    ASSERT_TRUE(db->Put("overwritten", "new").ok());
    ASSERT_TRUE(db->Delete("durable2").ok());
    // No flush: before the WAL this state evaporated on a crash.
  }
  auto db = Db::Open(&env, "/db").value();
  EXPECT_EQ(db->stats().wal_records_replayed, 4u);
  EXPECT_EQ(db->Get("durable").value(), "yes");
  EXPECT_EQ(db->Get("overwritten").value(), "new");
  EXPECT_TRUE(db->Get("durable2").status().IsNotFound());
}

TEST(DbWalTest, FlushTruncatesTheLog) {
  InMemoryEnv env;
  auto db = Db::Open(&env, "/db").value();
  ASSERT_TRUE(db->Put("k", "v").ok());
  EXPECT_GT(env.ReadFile("/db/WAL").value().size(), 0u);
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(env.ReadFile("/db/WAL").value().size(), 0u);
  // The flushed value still reads back after a reopen with an empty log.
  auto reopened = Db::Open(&env, "/db").value();
  EXPECT_EQ(reopened->stats().wal_records_replayed, 0u);
  EXPECT_EQ(reopened->Get("k").value(), "v");
}

TEST(DbWalTest, TornWalTailLosesOnlyTheTornRecord) {
  InMemoryEnv env;
  {
    auto db = Db::Open(&env, "/db").value();
    ASSERT_TRUE(db->Put("acked", "v").ok());
  }
  // Simulate a crash mid-append of a *later* record.
  ASSERT_TRUE(env.NewAppendableFile("/db/WAL")
                  .value()
                  ->Append("\x20\x00\x00\x00garbage")
                  .ok());
  auto db = Db::Open(&env, "/db").value();
  EXPECT_EQ(db->stats().wal_records_replayed, 1u);
  EXPECT_EQ(db->stats().wal_tail_truncated, 1u);
  EXPECT_EQ(db->Get("acked").value(), "v");
}

TEST(DbWalTest, TornAppendRefusesWritesUntilReopen) {
  InMemoryEnv disk;
  FailingLogEnv env(&disk);
  {
    auto db = Db::Open(&env, "/db").value();
    ASSERT_TRUE(db->Put("acked", "1").ok());
    env.TearNextAppend();
    EXPECT_TRUE(db->Put("failed", "x").IsIoError());
    EXPECT_TRUE(db->Get("failed").status().IsNotFound());
    // A record appended behind the torn frame could never be replayed, so
    // nothing more is acked, and no flush truncates the evidence away.
    EXPECT_TRUE(db->Put("behind-the-tear", "y").IsIoError());
    EXPECT_TRUE(db->Delete("acked").IsIoError());
    EXPECT_TRUE(db->Flush().IsIoError());
    EXPECT_TRUE(db->CompactAll().IsIoError());
    EXPECT_TRUE(db->Get("behind-the-tear").status().IsNotFound());
    EXPECT_EQ(db->Get("acked").value(), "1");  // Reads are still served.
  }
  // The reopen cuts the log back to its intact prefix, and the Db takes
  // writes again, which a later reopen replays.
  {
    auto db = Db::Open(&env, "/db").value();
    EXPECT_EQ(db->stats().wal_tail_truncated, 1u);
    EXPECT_EQ(db->Get("acked").value(), "1");
    EXPECT_TRUE(db->Get("failed").status().IsNotFound());
    ASSERT_TRUE(db->Put("after-reopen", "z").ok());
  }
  auto db = Db::Open(&env, "/db").value();
  EXPECT_EQ(db->stats().wal_tail_truncated, 0u);
  EXPECT_EQ(db->Get("acked").value(), "1");
  EXPECT_EQ(db->Get("after-reopen").value(), "z");
}

TEST(DbWalTest, FailedSyncRefusesWritesUntilReopen) {
  InMemoryEnv disk;
  FailingLogEnv env(&disk);
  {
    auto db = Db::Open(&env, "/db").value();
    ASSERT_TRUE(db->Put("acked", "1").ok());
    const uint64_t syncs = db->stats().wal_syncs;
    env.FailNextSync();
    EXPECT_TRUE(db->Put("unsynced", "x").IsIoError());
    // Not applied: its pages may never reach the disk.
    EXPECT_TRUE(db->Get("unsynced").status().IsNotFound());
    EXPECT_EQ(db->last_sequence(), 1u);
    EXPECT_EQ(db->stats().wal_syncs, syncs);
    EXPECT_TRUE(db->Put("after", "y").IsIoError());
    EXPECT_TRUE(db->Flush().IsIoError());
  }
  auto db = Db::Open(&env, "/db").value();
  EXPECT_EQ(db->Get("acked").value(), "1");
  EXPECT_TRUE(db->Get("after").status().IsNotFound());
  ASSERT_TRUE(db->Put("after-reopen", "z").ok());
  EXPECT_EQ(db->Get("after-reopen").value(), "z");
}

TEST(DbWalTest, ConcurrentWritersAckNothingBehindATornAppend) {
  InMemoryEnv disk;
  FailingLogEnv env(&disk);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::vector<int>> acked(kThreads);
  {
    auto db = Db::Open(&env, "/db").value();
    std::vector<std::thread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          // Tear one group's append while the others keep writing.
          if (t == 0 && i == kPerThread / 4) env.TearNextAppend();
          const std::string key = Numbered("t", t) + Numbered("-", i);
          if (db->Put(key, std::to_string(i)).ok()) acked[t].push_back(i);
        }
      });
    }
    for (std::thread& thread : writers) thread.join();
  }
  // Every acked write survives the reopen: none was acked behind the tear.
  auto db = Db::Open(&env, "/db").value();
  size_t total_acked = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_acked += acked[t].size();
    for (int i : acked[t]) {
      const std::string key = Numbered("t", t) + Numbered("-", i);
      auto value = db->Get(key);
      ASSERT_TRUE(value.ok()) << "acked " << key << ": " << value.status();
      EXPECT_EQ(*value, std::to_string(i));
    }
  }
  EXPECT_GE(total_acked, size_t{kPerThread / 4});
  EXPECT_LT(total_acked, size_t{kThreads} * kPerThread);
}

TEST(DbWalTest, FailedReplicatedSyncRefusesBatchesUntilReopen) {
  InMemoryEnv disk;
  FailingLogEnv env(&disk);
  auto primary = Db::Open(&disk, "/primary").value();
  ASSERT_TRUE(primary->Put("a", "1").ok());
  const WalSegment first = primary->FetchWalSince(1).value().segment;
  ASSERT_TRUE(primary->Put("b", "2").ok());
  const WalSegment second = primary->FetchWalSince(2).value().segment;
  DbOptions replica_options;
  replica_options.read_only_replica = true;
  {
    auto replica = Db::Open(&env, "/replica", replica_options).value();
    env.FailNextSync();
    EXPECT_TRUE(replica->ApplyReplicated(primary->epoch(), first).IsIoError());
    EXPECT_EQ(replica->last_sequence(), 0u);
    // A retry of the same batch would append cleanly, but behind a log
    // that may have a hole: refused.
    EXPECT_TRUE(replica->ApplyReplicated(primary->epoch(), first).IsIoError());
  }
  auto replica = Db::Open(&env, "/replica", replica_options).value();
  // The failed sync's bytes did reach this env's file, so the reopen
  // replays them, and the applier resumes after them.
  ASSERT_EQ(replica->last_sequence(), 1u);
  ASSERT_TRUE(replica->ApplyReplicated(primary->epoch(), second).ok());
  EXPECT_EQ(replica->Get("a").value(), "1");
  EXPECT_EQ(replica->Get("b").value(), "2");
}

TEST(DbWalTest, UnsyncedBatchIsDurableOnceFlushed) {
  InMemoryEnv disk;
  FaultInjectionEnv env(&disk);
  WriteBatch bulk;
  bulk.Put("bulk", "2");
  {
    auto db = Db::Open(&env, "/db").value();
    ASSERT_TRUE(db->Put("synced", "1").ok());
    ASSERT_TRUE(db->Write(bulk, /*sync=*/false).ok());
    EXPECT_EQ(db->stats().wal_syncs, 1u);
    EXPECT_EQ(db->Get("bulk").value(), "2");
  }
  // A power loss takes the batch, which only the page cache held.
  env.DropUnsyncedData();
  {
    auto db = Db::Open(&env, "/db").value();
    EXPECT_EQ(db->Get("synced").value(), "1");
    EXPECT_TRUE(db->Get("bulk").status().IsNotFound());
    ASSERT_TRUE(db->Write(bulk, /*sync=*/false).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  env.DropUnsyncedData();
  auto db = Db::Open(&env, "/db").value();
  EXPECT_EQ(db->Get("bulk").value(), "2");
}

TEST(DbWalTest, ReplayIsIdempotentAcrossRepeatedReopens) {
  InMemoryEnv env;
  {
    auto db = Db::Open(&env, "/db").value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db->Put(Numbered("k", i), std::to_string(i)).ok());
    }
  }
  // Reopening without writing must not change the recovered state, no
  // matter how many times the "process" bounces.
  for (int round = 0; round < 3; ++round) {
    auto db = Db::Open(&env, "/db").value();
    EXPECT_EQ(db->stats().wal_records_replayed, 10u) << round;
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(db->Get(Numbered("k", i)).value(), std::to_string(i));
    }
  }
}

TEST(DbWalTest, RecoveryComposesWithFlushedTables) {
  InMemoryEnv env;
  DbOptions options;
  options.memtable_flush_bytes = 256;  // Force flushes mid-stream.
  std::map<std::string, std::string> model;
  {
    auto db = Db::Open(&env, "/db", options).value();
    Rng rng(7);
    for (int i = 0; i < 400; ++i) {
      std::string k = "key" + std::to_string(rng.NextUint64(80));
      if (rng.Bernoulli(0.2)) {
        model.erase(k);
        ASSERT_TRUE(db->Delete(k).ok());
      } else {
        std::string v = "val" + std::to_string(i);
        model[k] = v;
        ASSERT_TRUE(db->Put(k, v).ok());
      }
    }
    // No final flush: recovery must stitch sstables + WAL together.
  }
  auto db = Db::Open(&env, "/db", options).value();
  for (const auto& [k, v] : model) {
    auto got = db->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status();
    EXPECT_EQ(got.value(), v) << k;
  }
  auto it = db->NewIterator();
  size_t live = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) ++live;
  EXPECT_EQ(live, model.size());
}

// An earlier build could flush on a background pool and rotated the log
// to WAL.imm while it did; a store it wrote may still hold one. The two
// tests below pin what the engine still does with such a file.

/// The value of `key`, or its status text, so a wrong answer fails the
/// expectation instead of aborting the binary.
std::string ValueOrStatus(const Db& db, std::string_view key) {
  auto got = db.Get(key);
  return got.ok() ? got.value() : got.status().ToString();
}

/// Open replays a leftover WAL.imm before WAL (its records are older, so
/// WAL's win on a shared key) and folds both into the one WAL.
TEST(DbWalTest, LeftoverRotatedLogReplaysFirstAndFoldsIntoTheLog) {
  InMemoryEnv env;
  ASSERT_TRUE(env.CreateDir("/db").ok());
  ASSERT_TRUE(env.WriteFile("/db/WAL.imm",
                            EncodeWalRecord(1, EntryType::kValue, "shared",
                                            "older") +
                                EncodeWalRecord(2, EntryType::kValue,
                                                "rotated-only", "r"))
                  .ok());
  ASSERT_TRUE(env.WriteFile("/db/WAL",
                            EncodeWalRecord(3, EntryType::kValue, "shared",
                                            "newer") +
                                EncodeWalRecord(4, EntryType::kValue,
                                                "active-only", "a"))
                  .ok());

  for (int open = 0; open < 2; ++open) {
    SCOPED_TRACE(open == 0 ? "first open" : "second open");
    auto db = Db::Open(&env, "/db").value();
    EXPECT_EQ(db->stats().wal_records_replayed, 4u);
    EXPECT_EQ(db->last_sequence(), 4u);
    EXPECT_EQ(ValueOrStatus(*db, "shared"), "newer");
    EXPECT_EQ(ValueOrStatus(*db, "rotated-only"), "r");
    EXPECT_EQ(ValueOrStatus(*db, "active-only"), "a");
    EXPECT_FALSE(env.FileExists("/db/WAL.imm"));
    auto wal = ReadWalSegment(env, "/db/WAL", 0);
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(wal->records.size(), 4u);
    EXPECT_EQ(wal->first_sequence(), 1u);
    EXPECT_EQ(wal->last_sequence(), 4u);
  }
}

/// InstallCheckpoint deletes a stale WAL.imm in the target directory, so
/// the installed Db serves the checkpoint and nothing the old log held.
TEST(DbWalTest, InstallCheckpointDropsAStaleRotatedLog) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  ASSERT_TRUE(primary->Put("shared", "checkpoint").ok());
  ASSERT_TRUE(primary->Flush().ok());
  ASSERT_TRUE(primary->Put("tail", "t").ok());  // Lives only in the WAL.
  auto checkpoint = primary->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();

  ASSERT_TRUE(env.CreateDir("/follower").ok());
  ASSERT_TRUE(env.WriteFile("/follower/WAL.imm",
                            EncodeWalRecord(1, EntryType::kValue, "shared",
                                            "stale") +
                                EncodeWalRecord(2, EntryType::kValue,
                                                "stale-only", "s"))
                  .ok());
  ASSERT_TRUE(
      Db::InstallCheckpoint(&env, "/follower", checkpoint.value()).ok());
  EXPECT_FALSE(env.FileExists("/follower/WAL.imm"));

  auto follower = Db::Open(&env, "/follower").value();
  std::map<std::string, std::string> served;
  auto it = follower->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    served[std::string(it->key())] = std::string(it->value());
  }
  ASSERT_TRUE(it->status().ok());
  const std::map<std::string, std::string> expected = {
      {"shared", "checkpoint"}, {"tail", "t"}};
  EXPECT_EQ(served, expected);
  EXPECT_EQ(follower->last_sequence(), primary->last_sequence());
}

}  // namespace
}  // namespace pstorm::storage
