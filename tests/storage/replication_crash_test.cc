#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/db.h"
#include "storage/env.h"
#include "storage/replication.h"
#include "test_strings.h"

namespace pstorm::storage {
namespace {

std::vector<std::pair<std::string, std::string>> Dump(Db* db) {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = db->NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.emplace_back(std::string(it->key()), std::string(it->value()));
  }
  EXPECT_TRUE(it->status().ok()) << it->status();
  return out;
}

DbOptions SmallMemtableOptions() {
  DbOptions options;
  // Small memtable: the workload crosses flushes, WAL rotations, and
  // checkpoint-demanding truncations, so crashes land on every step of
  // the shipping protocol, not just mid-append.
  options.memtable_flush_bytes = 512;
  options.l0_compaction_trigger = 3;
  return options;
}

/// Primary-side workload interleaved with ship rounds. Stops at the first
/// failed operation (the process died). Ignores tick errors — the tailing
/// loop retries those; what matters is what converges afterwards.
void RunPrimaryWorkload(Db* primary, ReplicaSession* session) {
  Rng rng(77);
  for (int i = 0; i < 30; ++i) {
    const std::string key = Numbered("k", rng.NextUint64(10));
    if (!primary->Put(key, Numbered("v", i)).ok()) return;
    if (i % 4 == 3) (void)session->TickOnce();
    if (i % 9 == 8 && !primary->Flush().ok()) return;
  }
}

/// Tentpole acceptance, primary side: crash the primary at every mutation
/// boundary its workload crosses while a follower tails it. After reboot,
/// a resumed session must converge the follower bit-identical to the
/// recovered primary's committed prefix — no matter whether the crash hit
/// a WAL append, a rotation, a flush, a truncate, or a manifest write.
TEST(ReplicationCrashTest, PrimaryCrashAtEveryMutationConverges) {
  uint64_t total_mutations = 0;
  {
    InMemoryEnv primary_disk;
    FaultInjectionEnv fault(&primary_disk);
    InMemoryEnv follower_disk;
    auto primary = Db::Open(&fault, "/p", SmallMemtableOptions()).value();
    fault.ClearFaults();  // Count workload mutations only.
    auto session = ReplicaSession::Open(primary.get(), &follower_disk, "/f");
    ASSERT_TRUE(session.ok());
    RunPrimaryWorkload(primary.get(), session->get());
    total_mutations = fault.mutation_count();
    ASSERT_GT(total_mutations, 30u);
  }

  for (uint64_t crash_at = 1; crash_at <= total_mutations; ++crash_at) {
    const std::string context = "crash_at=" + std::to_string(crash_at);
    InMemoryEnv primary_disk;
    FaultInjectionEnv fault(&primary_disk);
    InMemoryEnv follower_disk;
    {
      auto primary = Db::Open(&fault, "/p", SmallMemtableOptions()).value();
      fault.CrashAtMutation(crash_at);
      auto session =
          ReplicaSession::Open(primary.get(), &follower_disk, "/f");
      ASSERT_TRUE(session.ok()) << context;
      RunPrimaryWorkload(primary.get(), session->get());
    }
    // Reboot the primary; the follower directory is whatever the last
    // successful ship left. A fresh session must converge it.
    fault.ClearFaults();
    auto primary = Db::Open(&fault, "/p", SmallMemtableOptions());
    ASSERT_TRUE(primary.ok()) << context << ": " << primary.status();
    auto session =
        ReplicaSession::Open(primary->get(), &follower_disk, "/f");
    ASSERT_TRUE(session.ok()) << context << ": " << session.status();
    ASSERT_TRUE((*session)->CatchUp().ok()) << context;
    EXPECT_EQ(Dump(primary->get()), Dump((*session)->replica())) << context;
    EXPECT_EQ((*primary)->last_sequence(),
              (*session)->replica()->last_sequence())
        << context;
  }
}

/// Tentpole acceptance, follower side: crash the *follower's* disk at
/// every mutation its apply/bootstrap path performs. A fresh session over
/// the damaged directory must self-heal (recovering the WAL prefix, or
/// re-bootstrapping over a half-installed checkpoint) and converge.
TEST(ReplicationCrashTest, FollowerCrashAtEveryMutationConverges) {
  // The primary flushes mid-workload, so joining sessions bootstrap via
  // checkpoint — putting install mutations on the crash schedule too.
  auto build_primary = [](Env* env) {
    auto primary = Db::Open(env, "/p", SmallMemtableOptions()).value();
    Rng rng(99);
    for (int i = 0; i < 25; ++i) {
      EXPECT_TRUE(
          primary->Put(Numbered("k", rng.NextUint64(8)), Numbered("v", i))
              .ok());
      if (i % 10 == 9) {
        EXPECT_TRUE(primary->Flush().ok());
      }
    }
    return primary;
  };

  uint64_t total_mutations = 0;
  {
    InMemoryEnv primary_disk;
    InMemoryEnv follower_base;
    FaultInjectionEnv fault(&follower_base);
    auto primary = build_primary(&primary_disk);
    fault.ClearFaults();
    auto session = ReplicaSession::Open(primary.get(), &fault, "/f");
    ASSERT_TRUE(session.ok()) << session.status();
    ASSERT_TRUE((*session)->CatchUp().ok());
    total_mutations = fault.mutation_count();
    ASSERT_GT(total_mutations, 5u);
  }

  for (uint64_t crash_at = 1; crash_at <= total_mutations; ++crash_at) {
    const std::string context = "follower crash_at=" + std::to_string(crash_at);
    InMemoryEnv primary_disk;
    InMemoryEnv follower_base;
    FaultInjectionEnv fault(&follower_base);
    auto primary = build_primary(&primary_disk);
    fault.CrashAtMutation(crash_at);
    {
      // The session may fail to open or to catch up — the follower's disk
      // is dying under it. Both are fine; recovery is the next session's
      // job.
      auto session = ReplicaSession::Open(primary.get(), &fault, "/f");
      if (session.ok()) (void)(*session)->CatchUp();
    }
    fault.ClearFaults();
    auto session = ReplicaSession::Open(primary.get(), &fault, "/f");
    ASSERT_TRUE(session.ok()) << context << ": " << session.status();
    ASSERT_TRUE((*session)->CatchUp().ok()) << context;
    EXPECT_EQ(Dump(primary.get()), Dump((*session)->replica())) << context;
  }
}

/// Sync-commit failover guarantee: with ack-before-commit shipping, every
/// write the client saw acked is on the follower — so after the primary
/// dies at ANY mutation boundary, promoting the follower loses nothing
/// that was acked. (Async mode only bounds the loss by max_lag_records;
/// this is the mode for zero-loss failover.)
TEST(ReplicationCrashTest, SyncFailoverKeepsEveryAckedWriteAtEveryCrashPoint) {
  auto run_workload = [](Db* primary,
                         std::map<std::string, std::string>* acked) {
    Rng rng(123);
    for (int i = 0; i < 25; ++i) {
      const std::string key = Numbered("k", rng.NextUint64(8));
      const std::string value = Numbered("v", i);
      if (!primary->Put(key, value).ok()) {
        // Ambiguous outcome; the key was never acked.
        acked->erase(key);
        return;
      }
      (*acked)[key] = value;
      if (i % 9 == 8 && !primary->Flush().ok()) return;
    }
  };

  uint64_t total_mutations = 0;
  {
    InMemoryEnv primary_disk;
    FaultInjectionEnv fault(&primary_disk);
    InMemoryEnv follower_disk;
    auto primary = Db::Open(&fault, "/p", SmallMemtableOptions()).value();
    fault.ClearFaults();
    ReplicaSession::Options options;
    options.replication.mode = ReplicationMode::kSync;
    auto session =
        ReplicaSession::Open(primary.get(), &follower_disk, "/f", options);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE((*session)->EnableSyncCommit().ok());
    std::map<std::string, std::string> acked;
    run_workload(primary.get(), &acked);
    total_mutations = fault.mutation_count();
    ASSERT_GT(total_mutations, 25u);
  }

  for (uint64_t crash_at = 1; crash_at <= total_mutations; ++crash_at) {
    const std::string context = "sync crash_at=" + std::to_string(crash_at);
    InMemoryEnv primary_disk;
    FaultInjectionEnv fault(&primary_disk);
    InMemoryEnv follower_disk;
    std::map<std::string, std::string> acked;
    auto primary = Db::Open(&fault, "/p", SmallMemtableOptions()).value();
    ReplicaSession::Options options;
    options.replication.mode = ReplicationMode::kSync;
    auto session =
        ReplicaSession::Open(primary.get(), &follower_disk, "/f", options);
    ASSERT_TRUE(session.ok()) << context;
    ASSERT_TRUE((*session)->EnableSyncCommit().ok()) << context;
    fault.CrashAtMutation(crash_at);
    run_workload(primary.get(), &acked);

    // The primary is gone. Fail over — Promote never touches it.
    auto promoted = (*session)->Promote();
    ASSERT_TRUE(promoted.ok()) << context << ": " << promoted.status();
    EXPECT_FALSE((*promoted)->is_replica()) << context;
    EXPECT_GE((*promoted)->epoch(), 2u) << context;
    for (const auto& [key, value] : acked) {
      auto got = (*promoted)->Get(key);
      ASSERT_TRUE(got.ok())
          << context << ": acked key " << key << ": " << got.status();
      EXPECT_EQ(got.value(), value) << context << ": acked key " << key;
    }
    // The new primary takes writes immediately.
    ASSERT_TRUE((*promoted)->Put("post-failover", "ok").ok()) << context;
  }
}

/// Crash at every mutation of the promotion itself. The failover runbook
/// for a torn promote is: reopen the follower directory as a replica and
/// promote again — which must always land on a bumped, durable epoch with
/// the data intact.
TEST(ReplicationCrashTest, PromoteCrashAtEveryMutationIsRetryable) {
  // A promote writes one manifest (tmp + rename): few mutations, so probe
  // a generous fixed range and tolerate schedules that never fire.
  for (uint64_t crash_at = 1; crash_at <= 6; ++crash_at) {
    const std::string context = "promote crash_at=" + std::to_string(crash_at);
    InMemoryEnv primary_disk;
    InMemoryEnv follower_base;
    FaultInjectionEnv fault(&follower_base);
    auto primary = Db::Open(&primary_disk, "/p").value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(primary->Put(Numbered("k", i), "v").ok());
    }
    {
      auto session = ReplicaSession::Open(primary.get(), &fault, "/f");
      ASSERT_TRUE(session.ok()) << context;
      ASSERT_TRUE((*session)->CatchUp().ok()) << context;
      fault.CrashAtMutation(crash_at);
      auto promoted = (*session)->Promote();
      if (promoted.ok()) {
        // Schedule landed past the promote; nothing to recover.
        fault.ClearFaults();
        EXPECT_GE((*promoted)->epoch(), 2u) << context;
        continue;
      }
    }
    fault.ClearFaults();
    // Retry per runbook: reopen as replica, promote again.
    DbOptions replica;
    replica.read_only_replica = true;
    auto reopened = Db::Open(&fault, "/f", replica);
    ASSERT_TRUE(reopened.ok()) << context << ": " << reopened.status();
    ASSERT_TRUE((*reopened)->PromoteToPrimary().ok()) << context;
    EXPECT_GE((*reopened)->epoch(), 2u) << context;
    EXPECT_GT((*reopened)->epoch(), primary->epoch()) << context;
    EXPECT_EQ(Dump(primary.get()), Dump(reopened->get())) << context;
    ASSERT_TRUE((*reopened)->Put("after", "ok").ok()) << context;
  }
}

/// After failover, the deposed primary's entire replication machinery is
/// fenced: its ship batches carry a stale epoch and are rejected with an
/// explicit FailedPrecondition, surfaced in the fence counters.
TEST(ReplicationCrashTest, DeposedPrimaryShipperIsFencedAfterFailover) {
  InMemoryEnv env;
  auto old_primary = Db::Open(&env, "/p").value();
  ASSERT_TRUE(old_primary->Put("a", "1").ok());
  auto session = ReplicaSession::Open(old_primary.get(), &env, "/f");
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE((*session)->CatchUp().ok());
  auto promoted = (*session)->Promote();
  ASSERT_TRUE(promoted.ok());

  // The deposed primary doesn't know it lost and keeps writing/shipping.
  ASSERT_TRUE(old_primary->Put("b", "2").ok());
  WalApplier stale_applier(promoted->get());
  WalShipper stale_shipper(old_primary.get(), &stale_applier,
                           ReplicationOptions{});
  const auto outcome = stale_shipper.ShipOnce();
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition)
      << outcome.status();
  EXPECT_GE(stale_applier.fence_rejections(), 1u);
  EXPECT_GE((*promoted)->stats().fence_rejections, 1u);
  EXPECT_TRUE((*promoted)->Get("b").status().IsNotFound());
}

}  // namespace
}  // namespace pstorm::storage
