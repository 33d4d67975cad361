#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pstorm.h"
#include "hstore/table_replica.h"
#include "jobs/datasets.h"
#include "storage/db.h"
#include "storage/env.h"
#include "storage/replication.h"
#include "test_strings.h"

namespace pstorm::core {
namespace {

/// Storage-level race: the async tail thread ships and applies while
/// writer threads push group-commit batches and force WAL truncations under
/// it. TSan runs this to prove the shipper/applier locking against the
/// primary's writer and maintenance paths.
TEST(ReplicationConcurrencyTest, AsyncTailThreadRacesConcurrentWriters) {
  storage::InMemoryEnv primary_env;
  storage::InMemoryEnv follower_env;
  auto primary = storage::Db::Open(&primary_env, "/p").value();
  auto session =
      storage::ReplicaSession::Open(primary.get(), &follower_env, "/f");
  ASSERT_TRUE(session.ok()) << session.status();
  (*session)->StartTailing(50);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> errors{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int j = 0; j < kPerThread; ++j) {
        const std::string key = Numbered("t", t) + "-" + std::to_string(j);
        if (!primary->Put(key, Numbered("v", j)).ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
        // One thread forces rotations so the tail races flush/truncate
        // (and has to re-bootstrap when the log moves out from under it).
        if (t == 0 && j % 20 == 19 && !primary->Flush().ok()) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  (*session)->StopTailing();
  ASSERT_EQ(errors.load(), 0);

  ASSERT_TRUE((*session)->CatchUp().ok());
  EXPECT_EQ((*session)->lag(), 0u);
  EXPECT_EQ((*session)->replica()->last_sequence(), primary->last_sequence());
  for (int t = 0; t < kThreads; ++t) {
    for (int j = 0; j < kPerThread; ++j) {
      const std::string key = Numbered("t", t) + "-" + std::to_string(j);
      auto got = (*session)->replica()->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status();
      EXPECT_EQ(got.value(), Numbered("v", j)) << key;
    }
  }
}

/// End-to-end race from the ISSUE's TSan checklist: cold SubmitJobs write
/// profiles through the store from several threads while a standby keeps
/// syncing. The standby must end bit-equal in catalog terms — same
/// profile keys — once the dust settles.
TEST(ReplicationConcurrencyTest, StandbySyncsWhileSubmissionsRace) {
  mrsim::Simulator sim(mrsim::ThesisCluster());
  storage::InMemoryEnv primary_env;
  storage::InMemoryEnv follower_env;
  PStormOptions options;
  options.cbo.global_samples = 60;  // Keep the soak quick.
  options.cbo.local_samples = 20;
  options.cbo.refinement_rounds = 1;
  auto system = PStorM::Create(&sim, &primary_env, "/pstorm", options);
  ASSERT_TRUE(system.ok()) << system.status();
  auto replica = hstore::HTableReplica::Open(
      (*system)->store().table(), &follower_env, "/standby");
  ASSERT_TRUE(replica.ok()) << replica.status();

  struct Submission {
    jobs::BenchmarkJob job;
    const char* dataset;
  };
  const std::vector<Submission> submissions = {
      {jobs::WordCount(), jobs::kRandomText1Gb},
      {jobs::WordCooccurrencePairs(2), jobs::kRandomText1Gb},
      {jobs::BigramRelativeFrequency(), jobs::kWikipedia35Gb},
      {jobs::Grep(), jobs::kWebdocs},
  };

  std::atomic<bool> done{false};
  std::atomic<int> sync_errors{0};
  std::thread tailer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (!(*replica)->Sync().ok()) {
        sync_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  std::atomic<int> submit_errors{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < submissions.size(); ++i) {
    threads.emplace_back([&, i] {
      auto outcome = system->get()->SubmitJob(
          submissions[i].job,
          jobs::FindDataSet(submissions[i].dataset).value(),
          mrsim::Configuration{}, 42 + i);
      if (!outcome.ok()) submit_errors.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& t : threads) t.join();
  done.store(true);
  tailer.join();
  EXPECT_EQ(submit_errors.load(), 0);
  EXPECT_EQ(sync_errors.load(), 0);

  // A final quiesced sync converges the standby; a read-only PStorM over
  // it must see exactly the primary's profile catalog.
  ASSERT_TRUE((*replica)->Sync().ok());
  EXPECT_EQ((*replica)->lag(), 0u);
  PStormOptions read_only = options;
  read_only.store.table.read_only = true;
  auto standby = PStorM::Create(&sim, &follower_env, "/standby", read_only);
  ASSERT_TRUE(standby.ok()) << standby.status();
  EXPECT_EQ((*standby)->store().num_profiles(),
            (*system)->store().num_profiles());
  EXPECT_EQ((*standby)->store().ListJobKeys().value(),
            (*system)->store().ListJobKeys().value());
}

}  // namespace
}  // namespace pstorm::core
