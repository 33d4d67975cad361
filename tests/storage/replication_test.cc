#include "storage/replication.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "storage/block_cache.h"
#include "storage/db.h"
#include "storage/env.h"
#include "storage/wal.h"
#include "test_strings.h"

namespace pstorm::storage {
namespace {

/// Full logical contents of a Db, in key order — the "bit-identical"
/// comparison unit for primary/follower convergence.
std::vector<std::pair<std::string, std::string>> Dump(Db* db) {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = db->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.emplace_back(std::string(it->key()), std::string(it->value()));
  }
  EXPECT_TRUE(it->status().ok()) << it->status();
  return out;
}

void ExpectConverged(Db* primary, Db* follower, const std::string& context) {
  EXPECT_EQ(Dump(primary), Dump(follower)) << context;
  EXPECT_EQ(primary->last_sequence(), follower->last_sequence()) << context;
}

// ------------------------------------------------ shipper/applier basics

TEST(ReplicationTest, ShipsWalRecordsToFollower) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  DbOptions follower_options;
  follower_options.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", follower_options).value();

  ASSERT_TRUE(primary->Put("a", "1").ok());
  ASSERT_TRUE(primary->Put("b", "2").ok());
  ASSERT_TRUE(primary->Delete("a").ok());

  WalApplier applier(follower.get());
  WalShipper shipper(primary.get(), &applier, ReplicationOptions{});
  auto outcome = shipper.ShipOnce();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->shipped_records, 3u);
  EXPECT_FALSE(outcome->need_checkpoint);
  EXPECT_EQ(outcome->lag, 0u);
  ExpectConverged(primary.get(), follower.get(), "after first ship");
  EXPECT_EQ(follower->stats().replicated_records, 3u);

  // Incremental: only the delta moves on the next round.
  ASSERT_TRUE(primary->Put("c", "3").ok());
  outcome = shipper.ShipOnce();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->shipped_records, 1u);
  ExpectConverged(primary.get(), follower.get(), "after delta ship");

  // Idle round: nothing to move, nothing breaks.
  outcome = shipper.ShipOnce();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->shipped_records, 0u);
}

TEST(ReplicationTest, FollowerLogMatchesPrimaryLogByteForByte) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
  }
  WalApplier applier(follower.get());
  WalShipper shipper(primary.get(), &applier, ReplicationOptions{});
  ASSERT_TRUE(shipper.ShipOnce().ok());
  // Replication appends the shipped frames verbatim, so the two logs are
  // byte-identical — the property that keeps checksums comparable
  // record-for-record for divergence detection.
  EXPECT_EQ(env.ReadFile("/primary/WAL").value(),
            env.ReadFile("/follower/WAL").value());
}

TEST(ReplicationTest, MaxBatchRecordsBoundsEachRound) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
  }
  ReplicationOptions options;
  options.max_batch_records = 3;
  WalApplier applier(follower.get());
  WalShipper shipper(primary.get(), &applier, options);
  auto outcome = shipper.ShipOnce();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->shipped_records, 3u);
  EXPECT_EQ(outcome->lag, 7u);
  // CatchUp drains the rest in bounded rounds.
  outcome = shipper.CatchUp();
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->lag, 0u);
  ExpectConverged(primary.get(), follower.get(), "after CatchUp");
  EXPECT_GE(shipper.shipped_batches(), 4u);
}

TEST(ReplicationTest, FlushedAwayRecordsDemandCheckpoint) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  ASSERT_TRUE(primary->Put("a", "1").ok());
  ASSERT_TRUE(primary->Flush().ok());  // Truncates the primary WAL.

  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  WalApplier applier(follower.get());
  WalShipper shipper(primary.get(), &applier, ReplicationOptions{});
  auto outcome = shipper.ShipOnce();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->need_checkpoint);
  EXPECT_EQ(outcome->shipped_records, 0u);
}

TEST(ReplicationTest, AppliedOverlapIsVerifiedAndSkipped) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  ASSERT_TRUE(primary->Put("a", "1").ok());
  ASSERT_TRUE(primary->Put("b", "2").ok());

  WalApplier applier(follower.get());
  auto batch = primary->FetchWalSince(1);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(applier.Apply(batch->epoch, batch->segment).ok());
  // Re-applying the same segment (an at-least-once re-ship) is harmless:
  // checksums verify, records are skipped, state is unchanged.
  ASSERT_TRUE(applier.Apply(batch->epoch, batch->segment).ok());
  EXPECT_EQ(applier.overlap_records_skipped(), 2u);
  EXPECT_EQ(applier.divergences(), 0u);
  ExpectConverged(primary.get(), follower.get(), "after overlap re-apply");
}

TEST(ReplicationTest, DivergentReShipSurfacesAsCorruption) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  ASSERT_TRUE(primary->Put("a", "1").ok());

  WalApplier applier(follower.get());
  auto batch = primary->FetchWalSince(1);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(applier.Apply(batch->epoch, batch->segment).ok());

  // A "primary" re-ships sequence 1 with different contents — a fork of
  // history (e.g. two primaries wrote the same sequence). This must never
  // be silently skipped as overlap.
  WalSegment fork;
  fork.raw = EncodeWalRecord(1, EntryType::kValue, "a", "FORKED");
  fork.records.push_back(WalRecordRef{
      1, DecodeFixed32(fork.raw.data() + 4), 0, fork.raw.size()});
  const Status s = applier.Apply(batch->epoch, fork);
  EXPECT_TRUE(s.IsCorruption()) << s;
  EXPECT_EQ(applier.divergences(), 1u);
  EXPECT_EQ(follower->Get("a").value(), "1");  // State untouched.
}

TEST(ReplicationTest, SequenceGapIsRejectedNotApplied) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
  }
  WalApplier applier(follower.get());
  auto batch = primary->FetchWalSince(3);  // Skips sequences 1 and 2.
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->need_checkpoint);
  const Status s = applier.Apply(batch->epoch, batch->segment);
  EXPECT_TRUE(s.IsInvalidArgument()) << s;
  EXPECT_EQ(follower->last_sequence(), 0u);
}

/// Delegating Env whose next `fail_reads` ReadFile calls return IoError —
/// the transient NFS/disk blip the shipper's retry schedule exists for.
class FlakyReadEnv final : public EnvWrapper {
 public:
  using EnvWrapper::EnvWrapper;
  void FailNextReads(int n) { fail_reads_ = n; }

  Result<std::string> ReadFile(const std::string& p) const override {
    if (fail_reads_ > 0) {
      --fail_reads_;
      return Status::IoError("injected transient read error: " + p);
    }
    return target()->ReadFile(p);
  }

 private:
  mutable int fail_reads_ = 0;
};

TEST(ReplicationTest, TransientFetchErrorsAreRetriedWithBackoff) {
  InMemoryEnv base;
  FlakyReadEnv flaky(&base);
  auto primary = Db::Open(&flaky, "/primary").value();
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&base, "/follower", replica).value();
  ASSERT_TRUE(primary->Put("a", "1").ok());

  ReplicationOptions options;
  options.max_retries = 5;
  options.retry_backoff_micros = 1;  // Keep the test fast.
  WalApplier applier(follower.get());
  WalShipper shipper(primary.get(), &applier, options);

  flaky.FailNextReads(2);  // First fetch attempt dies; the blip heals.
  auto outcome = shipper.ShipOnce();
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->shipped_records, 1u);
  EXPECT_GE(shipper.retries(), 1u);
  ExpectConverged(primary.get(), follower.get(), "after healed blip");

  // A blip outlasting the retry budget surfaces as the IoError itself.
  ASSERT_TRUE(primary->Put("b", "2").ok());
  flaky.FailNextReads(1000);
  EXPECT_TRUE(shipper.ShipOnce().status().IsIoError());
  flaky.FailNextReads(0);
  ASSERT_TRUE(shipper.ShipOnce().ok());
  ExpectConverged(primary.get(), follower.get(), "after budget exhausted");
}

TEST(ReplicationTest, RequestStopInterruptsRetryBackoffPromptly) {
  InMemoryEnv base;
  FlakyReadEnv flaky(&base);
  auto primary = Db::Open(&flaky, "/primary").value();
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&base, "/follower", replica).value();
  ASSERT_TRUE(primary->Put("a", "1").ok());

  // A backoff window teardown could never afford to ride out: without the
  // interruptible wait this test would take minutes.
  ReplicationOptions options;
  options.max_retries = 1000;
  options.retry_backoff_micros = 60 * 1000 * 1000;
  options.retry_backoff_max_micros = 60 * 1000 * 1000;
  WalApplier applier(follower.get());
  WalShipper shipper(primary.get(), &applier, options);

  flaky.FailNextReads(1 << 30);  // Every fetch fails; only retries remain.
  std::thread ship([&] {
    const auto outcome = shipper.ShipOnce();
    EXPECT_TRUE(outcome.status().IsIoError()) << outcome.status();
  });
  // Wait until the shipper is inside a backoff sleep (first retry counted).
  while (shipper.retries() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stop_start = std::chrono::steady_clock::now();
  shipper.RequestStop();
  ship.join();
  const auto stop_elapsed = std::chrono::steady_clock::now() - stop_start;
  // The contract is "milliseconds, not the backoff window": one cv wakeup
  // plus scheduling. The bound is generous for sanitizer builds while
  // still 4 orders of magnitude under the 60s backoff it interrupts.
  EXPECT_LT(stop_elapsed, std::chrono::seconds(5));
}

TEST(ReplicationTest, StopTailingInterruptsPollSleepPromptly) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  ASSERT_TRUE(primary->Put("a", "1").ok());
  auto session =
      ReplicaSession::Open(primary.get(), &env, "/follower").value();

  // A poll interval no test could wait out: StopTailing must interrupt the
  // sleep between ticks, not wait for the next wakeup.
  session->StartTailing(60 * 1000 * 1000);
  // Give the tail thread a moment to finish its first tick and enter the
  // poll sleep (the interesting state to interrupt).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto stop_start = std::chrono::steady_clock::now();
  session->StopTailing();
  const auto stop_elapsed = std::chrono::steady_clock::now() - stop_start;
  EXPECT_LT(stop_elapsed, std::chrono::seconds(5));

  // The session stays usable after a stop: tailing can restart (the stop
  // latch re-arms) and still converges.
  ASSERT_TRUE(primary->Put("b", "2").ok());
  session->StartTailing(100);
  ASSERT_TRUE(session->CatchUp().ok());
  session->StopTailing();
  ExpectConverged(primary.get(), session->replica(), "after restart");
}

// ------------------------------------------------------- epoch fencing

TEST(ReplicationTest, ReplicaRejectsDirectWrites) {
  InMemoryEnv env;
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  const Status s = follower->Put("k", "v");
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  EXPECT_TRUE(follower->Delete("k").code() ==
              StatusCode::kFailedPrecondition);
  EXPECT_GE(follower->stats().fence_rejections, 2u);
}

TEST(ReplicationTest, PromotionBumpsEpochDurablyAndUnfences) {
  InMemoryEnv env;
  DbOptions replica;
  replica.read_only_replica = true;
  {
    auto follower = Db::Open(&env, "/follower", replica).value();
    EXPECT_EQ(follower->epoch(), 1u);
    EXPECT_TRUE(follower->is_replica());
    ASSERT_TRUE(follower->PromoteToPrimary().ok());
    EXPECT_EQ(follower->epoch(), 2u);
    EXPECT_FALSE(follower->is_replica());
    ASSERT_TRUE(follower->Put("post-promote", "ok").ok());
  }
  // The bumped epoch is in the manifest: a plain reopen sees it.
  auto reopened = Db::Open(&env, "/follower").value();
  EXPECT_EQ(reopened->epoch(), 2u);
  EXPECT_EQ(reopened->Get("post-promote").value(), "ok");
}

TEST(ReplicationTest, DeposedPrimaryIsFencedByPromotedFollower) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  ASSERT_TRUE(primary->Put("a", "1").ok());
  WalApplier applier(follower.get());
  WalShipper shipper(primary.get(), &applier, ReplicationOptions{});
  ASSERT_TRUE(shipper.ShipOnce().ok());

  ASSERT_TRUE(follower->PromoteToPrimary().ok());
  // The deposed primary keeps writing and its shipper keeps shipping —
  // the promoted follower must reject every batch with an explicit status.
  ASSERT_TRUE(primary->Put("b", "2").ok());
  auto stale = primary->FetchWalSince(2);
  ASSERT_TRUE(stale.ok());
  const Status s = follower->ApplyReplicated(stale->epoch, stale->segment);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  EXPECT_GE(follower->stats().fence_rejections, 1u);
  EXPECT_TRUE(follower->Get("b").status().IsNotFound());
}

TEST(ReplicationTest, HigherEpochIsAdoptedBeforeItsRecordsApply) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  // Promote twice to push the primary's epoch to 3.
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  ASSERT_TRUE(primary->Put("a", "1").ok());
  auto batch = primary->FetchWalSince(1);
  ASSERT_TRUE(batch.ok());
  ASSERT_TRUE(follower->ApplyReplicated(5, batch->segment).ok());
  EXPECT_EQ(follower->epoch(), 5u);
  // The adopted epoch fences everything older, durably.
  EXPECT_EQ(follower->ApplyReplicated(4, WalSegment{}).code(),
            StatusCode::kFailedPrecondition);
  auto reopened_options = replica;
  follower.reset();
  auto reopened = Db::Open(&env, "/follower", reopened_options).value();
  EXPECT_EQ(reopened->epoch(), 5u);
}

// ---------------------------------------------------- checkpoint bootstrap

TEST(ReplicationTest, CheckpointCapturesTablesAndWalTail) {
  InMemoryEnv env;
  DbOptions options;
  options.memtable_flush_bytes = 1u << 20;
  auto primary = Db::Open(&env, "/primary", options).value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(primary->Put("flushed" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(primary->Flush().ok());
  ASSERT_TRUE(primary->Put("tail", "t").ok());  // Lives only in the WAL.

  auto checkpoint = primary->Checkpoint();
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status();
  EXPECT_FALSE(checkpoint->l0.empty());
  EXPECT_FALSE(checkpoint->wal_tail.empty());
  EXPECT_EQ(checkpoint->last_sequence, primary->last_sequence());
  EXPECT_EQ(primary->stats().checkpoints_created, 1u);

  ASSERT_TRUE(
      Db::InstallCheckpoint(&env, "/follower", checkpoint.value()).ok());
  DbOptions replica;
  replica.read_only_replica = true;
  auto follower = Db::Open(&env, "/follower", replica).value();
  ExpectConverged(primary.get(), follower.get(), "after install");
  EXPECT_EQ(follower->epoch(), primary->epoch());
}

TEST(ReplicationTest, SessionBootstrapsWhenJoiningAfterFlush) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
  }
  ASSERT_TRUE(primary->Flush().ok());
  ASSERT_TRUE(primary->Put("after-flush", "v").ok());

  auto session = ReplicaSession::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_TRUE((*session)->CatchUp().ok());
  EXPECT_GE((*session)->stats().checkpoint_ships, 1u);
  ExpectConverged(primary.get(), (*session)->replica(), "post-bootstrap");
}

TEST(ReplicationTest, SessionResumesFromRecoveredFollowerState) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
  }
  {
    auto session = ReplicaSession::Open(primary.get(), &env, "/follower");
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->CatchUp().ok());
  }
  // More primary writes while the session is down.
  for (int i = 10; i < 15; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
  }
  // A new session over the same follower directory resumes incrementally —
  // the records are still in the primary's WAL, so no checkpoint needed.
  auto session = ReplicaSession::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->CatchUp().ok());
  EXPECT_EQ((*session)->stats().checkpoint_ships, 0u);
  ExpectConverged(primary.get(), (*session)->replica(), "resumed session");
}

// ---------------------------------------------------------- session modes

TEST(ReplicationTest, AsyncTailingFollowsOngoingWrites) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  auto session = ReplicaSession::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(session.ok());
  (*session)->StartTailing(100);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
  }
  (*session)->StopTailing();
  ASSERT_TRUE((*session)->CatchUp().ok());
  EXPECT_EQ((*session)->lag(), 0u);
  ExpectConverged(primary.get(), (*session)->replica(), "after tailing");
  EXPECT_TRUE((*session)->last_tail_error().ok());
}

TEST(ReplicationTest, SyncCommitShipsBeforeAck) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  ReplicaSession::Options options;
  options.replication.mode = ReplicationMode::kSync;
  auto session =
      ReplicaSession::Open(primary.get(), &env, "/follower", options);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->EnableSyncCommit().ok());
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
    // Ack-before-commit: the moment the writer is acked, the follower
    // already holds the record.
    EXPECT_EQ((*session)->replica()->Get(Numbered("k", i)).value(), "v") << i;
  }
  ExpectConverged(primary.get(), (*session)->replica(), "sync mode");
  ASSERT_TRUE((*session)->DisableSyncCommit().ok());
  // After disabling, writes flow only via explicit ticks again.
  ASSERT_TRUE(primary->Put("late", "v").ok());
  EXPECT_TRUE((*session)->replica()->Get("late").status().IsNotFound());
  ASSERT_TRUE((*session)->CatchUp().ok());
  EXPECT_EQ((*session)->replica()->Get("late").value(), "v");
}

TEST(ReplicationTest, PromoteReleasesWritableFollower) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  ASSERT_TRUE(primary->Put("before", "v").ok());
  auto session = ReplicaSession::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->CatchUp().ok());
  auto promoted = (*session)->Promote();
  ASSERT_TRUE(promoted.ok()) << promoted.status();
  EXPECT_GT((*promoted)->epoch(), primary->epoch());
  EXPECT_FALSE((*promoted)->is_replica());
  EXPECT_EQ((*promoted)->Get("before").value(), "v");
  ASSERT_TRUE((*promoted)->Put("after", "v").ok());
  // The session is inert: a second promote is an explicit error.
  EXPECT_EQ((*session)->Promote().status().code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------- block cache / checkpoint install aliasing

/// Regression pin for the sstable cache-key contract: BlockCache keys are
/// (per-open file id, block offset) with Table::Open drawing a fresh
/// process-unique id from BlockCache::NewFileId(). A checkpoint install
/// rewrites the follower's directory with *different* contents under
/// recycled-looking names; if cache keys were path- or number-derived, the
/// reopened follower would serve the old checkpoint's blocks from cache.
TEST(ReplicationTest, CheckpointReinstallNeverAliasesCachedBlocks) {
  InMemoryEnv env;
  auto cache = std::make_shared<BlockCache>(1u << 20);

  DbOptions primary_options;
  primary_options.block_cache = cache;
  auto primary = Db::Open(&env, "/primary", primary_options).value();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "gen1").ok());
  }
  ASSERT_TRUE(primary->Flush().ok());

  DbOptions replica;
  replica.read_only_replica = true;
  replica.block_cache = cache;  // Same cache as the primary — worst case.

  auto checkpoint = primary->Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(
      Db::InstallCheckpoint(&env, "/follower", checkpoint.value()).ok());
  {
    auto follower = Db::Open(&env, "/follower", replica).value();
    // Warm the cache with gen1 blocks.
    for (int i = 0; i < 40; ++i) {
      ASSERT_EQ(follower->Get(Numbered("k", i)).value(), "gen1");
    }
  }

  // New generation on the primary, then a fresh install over the same
  // follower directory (same file names, same offsets, new bytes).
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(primary->Put(Numbered("k", i), "gen2").ok());
  }
  ASSERT_TRUE(primary->Flush().ok());
  ASSERT_TRUE(primary->CompactAll().ok());
  checkpoint = primary->Checkpoint();
  ASSERT_TRUE(checkpoint.ok());
  ASSERT_TRUE(
      Db::InstallCheckpoint(&env, "/follower", checkpoint.value()).ok());
  auto follower = Db::Open(&env, "/follower", replica).value();
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(follower->Get(Numbered("k", i)).value(), "gen2") << i;
  }
}

TEST(ReplicationTest, NewFileIdIsProcessUnique) {
  const uint64_t a = BlockCache::NewFileId();
  const uint64_t b = BlockCache::NewFileId();
  const uint64_t c = BlockCache::NewFileId();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  EXPECT_NE(a, c);
}

// ----------------------------------------------------- replica snapshots

TEST(ReplicationTest, ReplicaReadsAreSnapshotIsolatedFromApplies) {
  InMemoryEnv env;
  auto primary = Db::Open(&env, "/primary").value();
  auto session = ReplicaSession::Open(primary.get(), &env, "/follower");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(primary->Put("k", "v1").ok());
  ASSERT_TRUE((*session)->CatchUp().ok());

  // Pin an iterator on the replica, then apply more records under it.
  auto it = (*session)->replica()->NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  ASSERT_TRUE(primary->Put("k", "v2").ok());
  ASSERT_TRUE(primary->Put("k2", "x").ok());
  ASSERT_TRUE((*session)->CatchUp().ok());
  // The pinned snapshot still sees the old world...
  EXPECT_EQ(std::string(it->value()), "v1");
  it->Next();
  EXPECT_FALSE(it->Valid());
  // ...while a fresh read sees the new one.
  EXPECT_EQ((*session)->replica()->Get("k").value(), "v2");
  EXPECT_EQ((*session)->replica()->Get("k2").value(), "x");
}

}  // namespace
}  // namespace pstorm::storage
