#include "storage/wal.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>

#include "common/random.h"
#include "storage/db.h"
#include "test_strings.h"

namespace pstorm::storage {
namespace {

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
  ASSERT_TRUE(env.AppendFile("/db/WAL", "\x20\x00\x00\x00garbage").ok());
  auto db = Db::Open(&env, "/db").value();
  EXPECT_EQ(db->stats().wal_records_replayed, 1u);
  EXPECT_EQ(db->stats().wal_tail_truncated, 1u);
  EXPECT_EQ(db->Get("acked").value(), "v");
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
