// Crash coverage of the secondary match index (DESIGN.md §13): at every
// mutation boundary a profile-store workload crosses, and after sstable
// bit-rot quarantine, the index rebuilt on reopen must (a) be identical
// to one maintained incrementally from that state on, and (b) keep
// EuclideanCandidates exactly equal to the region scans over whatever rows
// survived.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/profile_store.h"
#include "obs/metrics.h"
#include "storage/env.h"
#include "tools/synthetic_corpus.h"

namespace pstorm::core {
namespace {

ProfileStoreOptions BulkOptions() {
  ProfileStoreOptions options;
  options.eager_flush = false;
  // Small memtables so the workload crosses flushes and compactions, not
  // just WAL appends.
  options.table.db_options.memtable_flush_bytes = 4096;
  options.table.db_options.l0_compaction_trigger = 3;
  return options;
}

/// Open's rebuilds that degraded to an empty index under corruption.
uint64_t RebuildFailures() {
  return obs::MetricsRegistry::Global()
      .GetCounter("pstorm_match_index_rebuild_failures_total")
      .Value();
}

/// The mutation workload whose every boundary we crash at: puts, a
/// replacement, deletes, and an explicit flush. Stops at the first
/// failure (the process "died").
void RunWorkload(ProfileStore* store, const tools::SyntheticCorpus& corpus) {
  for (size_t i = 0; i < 12; ++i) {
    const auto p = corpus.Make(i);
    if (!store->PutProfile(p.job_key, p.profile, p.statics).ok()) return;
  }
  const auto replacement = corpus.MakeProbe(3, /*salt=*/5);
  if (!store
           ->PutProfile(corpus.Make(3).job_key, replacement.profile,
                        replacement.statics)
           .ok()) {
    return;
  }
  for (size_t i = 0; i < 12; i += 4) {
    if (!store->DeleteProfile(corpus.Make(i).job_key).ok()) return;
  }
  (void)store->Flush();
}

/// After any recovery: the reopened store's index must equal a fresh
/// rebuild even after more incremental mutations, and EuclideanCandidates
/// must equal the region scans.
void ExpectIndexIntegrity(ProfileStore* store,
                          const tools::SyntheticCorpus& corpus) {
  // Continue mutating incrementally on top of the recovered state.
  for (size_t i = 20; i < 26; ++i) {
    const auto p = corpus.Make(i);
    ASSERT_TRUE(store->PutProfile(p.job_key, p.profile, p.statics).ok());
  }
  ASSERT_TRUE(store->DeleteProfile(corpus.Make(21).job_key).ok());

  const auto incremental_map = store->MatchIndexDynamicSnapshot(Side::kMap);
  const auto incremental_reduce =
      store->MatchIndexDynamicSnapshot(Side::kReduce);
  const auto incremental_map_cost = store->MatchIndexCostSnapshot(Side::kMap);
  const auto incremental_reduce_cost =
      store->MatchIndexCostSnapshot(Side::kReduce);
  ASSERT_TRUE(store->RebuildMatchIndex().ok());
  EXPECT_EQ(store->MatchIndexDynamicSnapshot(Side::kMap), incremental_map);
  EXPECT_EQ(store->MatchIndexDynamicSnapshot(Side::kReduce),
            incremental_reduce);
  EXPECT_EQ(store->MatchIndexCostSnapshot(Side::kMap), incremental_map_cost);
  EXPECT_EQ(store->MatchIndexCostSnapshot(Side::kReduce),
            incremental_reduce_cost);

  for (size_t i = 0; i < 8; ++i) {
    const auto probe = corpus.MakeProbe(i);
    for (Side side : {Side::kMap, Side::kReduce}) {
      const auto& dynamic = side == Side::kMap
                                ? probe.profile.map_side.DynamicVector()
                                : probe.profile.reduce_side.DynamicVector();
      const double theta =
          0.5 * std::sqrt(static_cast<double>(dynamic.size()));
      auto exhaustive = store->DynamicEuclideanScan(side, dynamic, theta);
      ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
      EXPECT_EQ(store->EuclideanCandidates(side, Space::kDynamic, dynamic,
                                           theta),
                *exhaustive);
    }
  }
}

/// Tentpole crash coverage: schedule a crash at the Nth env mutation for
/// every N the workload reaches. Reopening over the surviving bytes must
/// always rebuild the whole index, with full integrity.
TEST(MatchIndexCrashTest, CrashAtEveryMutationRebuildsEquivalentIndex) {
  tools::SyntheticCorpusOptions corpus_options;
  corpus_options.num_profiles = 30;
  const tools::SyntheticCorpus corpus(corpus_options);

  // Dry run to learn the mutation count.
  uint64_t total_mutations = 0;
  {
    storage::InMemoryEnv disk;
    storage::FaultInjectionEnv fault(&disk);
    auto store = ProfileStore::Open(&fault, "/s", BulkOptions());
    ASSERT_TRUE(store.ok()) << store.status();
    RunWorkload(store->get(), corpus);
    total_mutations = fault.mutation_count();
  }
  ASSERT_GT(total_mutations, 20u);

  // Crash at every boundary. Stride 1 would make sanitizer runs crawl on
  // the hundreds of mutations the workload makes; a small prime stride
  // still lands on every phase (put/replace/delete/flush/compaction).
  for (uint64_t crash_at = 1; crash_at <= total_mutations; crash_at += 3) {
    SCOPED_TRACE("crash at mutation " + std::to_string(crash_at));
    storage::InMemoryEnv disk;
    storage::FaultInjectionEnv fault(&disk);
    {
      auto store = ProfileStore::Open(&fault, "/s", BulkOptions());
      ASSERT_TRUE(store.ok()) << store.status();
      fault.CrashAtMutation(crash_at);
      RunWorkload(store->get(), corpus);
    }
    fault.ClearFaults();  // Reboot.
    const uint64_t failures = RebuildFailures();
    auto reopened = ProfileStore::Open(&fault, "/s", BulkOptions());
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(RebuildFailures(), failures);
    ExpectIndexIntegrity(reopened->get(), corpus);
  }
}

/// Quarantine coverage: rot an sstable, reopen (the store quarantines it
/// and serves the survivors), and demand the same integrity — the rebuilt
/// index must reflect exactly the rows that survived, so indexed and
/// exhaustive scans agree over the degraded store too.
TEST(MatchIndexCrashTest, IndexSurvivesSstableQuarantine) {
  tools::SyntheticCorpusOptions corpus_options;
  corpus_options.num_profiles = 30;
  const tools::SyntheticCorpus corpus(corpus_options);

  storage::InMemoryEnv env;
  {
    auto store = ProfileStore::Open(&env, "/s", BulkOptions());
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE(corpus.LoadInto(store->get(), 18).ok());
  }

  // Rot the first sstable found under the store's regions.
  size_t corrupted = 0;
  for (int r = 0; r < 16 && corrupted == 0; ++r) {
    const std::string dir = "/s/region_" + std::to_string(r);
    auto files = env.ListDir(dir);
    if (!files.ok()) continue;
    for (const std::string& name : files.value()) {
      if (name.size() < 4 || name.compare(name.size() - 4, 4, ".sst") != 0) {
        continue;
      }
      const std::string path = dir + "/" + name;
      std::string contents = env.ReadFile(path).value();
      ASSERT_FALSE(contents.empty());
      contents[0] = static_cast<char>(contents[0] ^ 0xff);
      ASSERT_TRUE(env.WriteFile(path, contents).ok());
      ++corrupted;
      break;
    }
  }
  ASSERT_EQ(corrupted, 1u);

  const uint64_t failures = RebuildFailures();
  auto reopened = ProfileStore::Open(&env, "/s", BulkOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GE((*reopened)->StorageStats().quarantined_files, 1u);
  EXPECT_EQ(RebuildFailures(), failures);
  ExpectIndexIntegrity(reopened->get(), corpus);
}

}  // namespace
}  // namespace pstorm::core
