#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/pstorm.h"
#include "hstore/table_replica.h"
#include "jobs/datasets.h"
#include "storage/env.h"

namespace pstorm::core {
namespace {

/// End-to-end failover: load profiles through a primary PStorM, kill the
/// primary's filesystem mid-load, promote the warm standby, and check that
/// a PStorM instance over the promoted store gives the same SubmitJob
/// match results as the recovered primary would — the replica lost
/// nothing the primary itself would have kept.
class ReplicationE2eTest : public ::testing::Test {
 protected:
  ReplicationE2eTest() : fault_(&primary_disk_), sim_(mrsim::ThesisCluster()) {
    options_.cbo.global_samples = 150;  // Keep tests quick.
    options_.cbo.local_samples = 50;
  }

  mrsim::DataSetSpec DataSet(const char* name) {
    auto d = jobs::FindDataSet(name);
    EXPECT_TRUE(d.ok());
    return d.value();
  }

  storage::InMemoryEnv primary_disk_;
  storage::FaultInjectionEnv fault_;
  storage::InMemoryEnv follower_disk_;
  mrsim::Simulator sim_;
  PStormOptions options_;
};

TEST_F(ReplicationE2eTest, PromotedStandbyMatchesLikeTheRecoveredPrimary) {
  const auto data = DataSet(jobs::kRandomText1Gb);
  {
    auto system = PStorM::Create(&sim_, &fault_, "/pstorm", options_);
    ASSERT_TRUE(system.ok()) << system.status();
    // Seed the store with two profiles.
    ASSERT_TRUE(
        (*system)->SubmitJob(jobs::WordCount(), data, {}, 1).ok());
    ASSERT_TRUE((*system)
                    ->SubmitJob(jobs::WordCooccurrencePairs(2), data, {}, 2)
                    .ok());

    // Warm standby tailing the store's table.
    auto replica = hstore::HTableReplica::Open(
        (*system)->store().table(), &follower_disk_, "/standby");
    ASSERT_TRUE(replica.ok()) << replica.status();

    // Kill the primary's disk mid-load: a cold submission (sort on
    // teragen cannot match the text-job profiles) dies inside its
    // store-back, exactly like a region server crashing under a client.
    // The crash lands mid-way through the profile's multi-row put, so
    // recovery has a torn logical write to clean up on both sides.
    fault_.CrashAtMutation(3);
    auto dying = (*system)->SubmitJob(jobs::Sort(),
                                      DataSet(jobs::kTeraGen1Gb), {}, 3);
    ASSERT_FALSE(dying.ok()) << "crash schedule never fired";
    ASSERT_TRUE(fault_.crashed());
  }

  // Reboot the primary and converge the standby to the recovered state —
  // the committed prefix both sides agree on — then fail over.
  fault_.ClearFaults();
  auto recovered = PStorM::Create(&sim_, &fault_, "/pstorm", options_);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  auto replica = hstore::HTableReplica::Open(
      (*recovered)->store().table(), &follower_disk_, "/standby");
  ASSERT_TRUE(replica.ok()) << replica.status();
  ASSERT_TRUE((*replica)->Sync().ok());
  EXPECT_EQ((*replica)->lag(), 0u);
  ASSERT_TRUE((*replica)->Promote().ok());

  auto promoted =
      PStorM::Create(&sim_, &follower_disk_, "/standby", options_);
  ASSERT_TRUE(promoted.ok()) << promoted.status();

  // Identical stored state...
  EXPECT_EQ((*promoted)->store().num_profiles(),
            (*recovered)->store().num_profiles());
  EXPECT_EQ((*promoted)->store().ListJobKeys().value(),
            (*recovered)->store().ListJobKeys().value());

  // ...and identical match results for the same submission.
  auto on_primary =
      (*recovered)->SubmitJob(jobs::WordCooccurrencePairs(2), data, {}, 9);
  auto on_standby =
      (*promoted)->SubmitJob(jobs::WordCooccurrencePairs(2), data, {}, 9);
  ASSERT_TRUE(on_primary.ok()) << on_primary.status();
  ASSERT_TRUE(on_standby.ok()) << on_standby.status();
  EXPECT_TRUE(on_primary->matched);
  EXPECT_EQ(on_primary->matched, on_standby->matched);
  EXPECT_EQ(on_primary->composite, on_standby->composite);
  EXPECT_EQ(on_primary->profile_source, on_standby->profile_source);
  EXPECT_EQ(on_primary->runtime_s, on_standby->runtime_s);
}

TEST_F(ReplicationE2eTest, ReadOnlyStandbyStoreServesMatchesWithoutWrites) {
  const auto data = DataSet(jobs::kWikipedia35Gb);
  {
    auto system = PStorM::Create(&sim_, &primary_disk_, "/pstorm", options_);
    ASSERT_TRUE(system.ok());
    ASSERT_TRUE((*system)
                    ->SubmitJob(jobs::BigramRelativeFrequency(), data, {}, 4)
                    .ok());
    auto replica = hstore::HTableReplica::Open(
        (*system)->store().table(), &follower_disk_, "/standby");
    ASSERT_TRUE(replica.ok()) << replica.status();
    // Session closes here; the standby directory is complete and quiet.
  }

  // A PStorM over the standby in read-only mode: matching works off the
  // replicated profiles; the store-back of a cold submission is skipped,
  // never an error (the write belongs on the primary).
  PStormOptions read_only = options_;
  read_only.store.table.read_only = true;
  auto standby =
      PStorM::Create(&sim_, &follower_disk_, "/standby", read_only);
  ASSERT_TRUE(standby.ok()) << standby.status();

  auto matched =
      (*standby)->SubmitJob(jobs::WordCooccurrencePairs(2), data, {}, 5);
  ASSERT_TRUE(matched.ok()) << matched.status();
  EXPECT_TRUE(matched->matched);
  EXPECT_NE(matched->profile_source.find("bigram-relative-frequency"),
            std::string::npos);

  // A cold job runs untuned; its profile is dropped, not an error.
  auto cold = (*standby)->SubmitJob(
      jobs::WordCount(), DataSet(jobs::kRandomText1Gb), {}, 6);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->matched);
  EXPECT_FALSE(cold->stored_new_profile);
  EXPECT_EQ((*standby)->store().num_profiles(), 1u);
}

}  // namespace
}  // namespace pstorm::core
