// Durability of ProfileStore::PutProfile under default options (DESIGN.md
// §7): each row of a put is one synced WAL batch and no put flushes, so
// every acked put must survive a process crash at every mutation and a
// power loss at every point of the run, byte-identical on reopen, and the
// reopened match index must lie inside the persisted normalization bounds.
// A bulk load's puts (eager_flush off) become durable at its Flush().

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/profile_store.h"
#include "staticanalysis/cfg.h"
#include "storage/env.h"
#include "tools/synthetic_corpus.h"

namespace pstorm::core {
namespace {

/// Everything PutProfile stores of one job, as bytes.
std::string EntryBytes(const profiler::ExecutionProfile& profile,
                       const staticanalysis::StaticFeatures& statics) {
  std::string out = profile.Serialize();
  for (const std::string& v : statics.MapCategorical()) out += "|" + v;
  for (const std::string& v : statics.ReduceCategorical()) out += "|" + v;
  out += "|" + staticanalysis::SerializeCfg(statics.map_cfg);
  out += "|" + staticanalysis::SerializeCfg(statics.reduce_cfg);
  out += "|" + statics.user_params;
  out += "|" + StrJoin(statics.map_calls, ",");
  out += "|" + StrJoin(statics.reduce_calls, ",");
  return out;
}

tools::SyntheticCorpus Corpus() {
  tools::SyntheticCorpusOptions options;
  options.num_profiles = 30;
  return tools::SyntheticCorpus(options);
}

/// Eight puts, the last a replacement of profile 2 with new values.
/// `acked` maps each acked job key to the bytes the put stored. Stops at
/// the first failure, as a dying process would, and forgets that key: its
/// put may or may not have landed.
void RunPuts(ProfileStore* store, const tools::SyntheticCorpus& corpus,
             std::map<std::string, std::string>* acked) {
  for (size_t i = 0; i < 8; ++i) {
    const tools::SyntheticProfile p =
        i < 7 ? corpus.Make(i)
              : tools::SyntheticProfile{corpus.Make(2).job_key,
                                        corpus.MakeProbe(2, 9).profile,
                                        corpus.MakeProbe(2, 9).statics};
    if (!store->PutProfile(p.job_key, p.profile, p.statics).ok()) {
      acked->erase(p.job_key);
      return;
    }
    (*acked)[p.job_key] = EntryBytes(p.profile, p.statics);
  }
}

/// Each acked put reads back byte for byte from its Payload and Static
/// rows, and its Dynamic row still makes it discoverable: it holds the
/// stored input size, and the rebuilt index holds the profile's vectors.
void ExpectAckedPutsReadBack(const ProfileStore& store,
                             const std::map<std::string, std::string>& acked) {
  std::map<std::string, std::vector<double>> indexed;
  for (const auto& [key, vector] :
       store.MatchIndexDynamicSnapshot(Side::kMap)) {
    indexed[key] = vector;
  }
  for (const auto& [key, bytes] : acked) {
    auto entry = store.GetEntry(key);
    ASSERT_TRUE(entry.ok()) << "acked " << key << ": " << entry.status();
    EXPECT_EQ(EntryBytes(entry->profile, entry->statics), bytes)
        << "acked " << key;
    auto input_bytes = store.InputDataBytes(key);
    ASSERT_TRUE(input_bytes.ok()) << "acked " << key << ": "
                                  << input_bytes.status();
    EXPECT_EQ(*input_bytes, entry->profile.input_data_bytes) << key;
    EXPECT_EQ(indexed[key], entry->profile.map_side.DynamicVector()) << key;
  }
}

/// Every vector in the index lies inside the bounds the store normalizes
/// it with.
void ExpectIndexInsideBounds(const ProfileStore& store) {
  const auto check = [](const FeatureBounds& bounds,
                        const std::vector<std::pair<std::string,
                                                    std::vector<double>>>&
                            members) {
    for (const auto& [key, vector] : members) {
      ASSERT_EQ(vector.size(), bounds.mins.size()) << key;
      for (size_t d = 0; d < vector.size(); ++d) {
        EXPECT_GE(vector[d], bounds.mins[d]) << key << " dimension " << d;
        EXPECT_LE(vector[d], bounds.maxs[d]) << key << " dimension " << d;
      }
    }
  };
  for (Side side : {Side::kMap, Side::kReduce}) {
    check(store.DynamicBounds(side), store.MatchIndexDynamicSnapshot(side));
    check(store.CostBounds(side), store.MatchIndexCostSnapshot(side));
  }
}

enum class Fault { kProcessCrash, kPowerLoss };

/// Runs RunPuts once per mutation it makes, killing it at that mutation
/// (a sync counts as one): a process crash, or with kPowerLoss the same
/// crash followed by the loss of every unsynced byte. After each, reopens
/// the store and hands it to `check` with the acked puts.
void ForEachCrashPoint(
    const ProfileStoreOptions& options, Fault fault_kind,
    const std::function<void(const ProfileStore&,
                             const std::map<std::string, std::string>&)>&
        check) {
  const tools::SyntheticCorpus corpus = Corpus();
  uint64_t total_mutations = 0;
  {
    storage::InMemoryEnv disk;
    storage::FaultInjectionEnv fault(&disk);
    auto store = ProfileStore::Open(&fault, "/s", options).value();
    fault.ClearFaults();  // Count the puts' mutations only.
    std::map<std::string, std::string> acked;
    RunPuts(store.get(), corpus, &acked);
    ASSERT_EQ(acked.size(), 7u);
    total_mutations = fault.mutation_count();
  }
  ASSERT_GE(total_mutations, 8u * 4);  // At least four row writes per put.

  for (uint64_t crash_at = 1; crash_at <= total_mutations; ++crash_at) {
    SCOPED_TRACE((fault_kind == Fault::kPowerLoss ? "power loss"
                                                  : "process crash") +
                 std::string(" at mutation ") + std::to_string(crash_at));
    storage::InMemoryEnv disk;
    storage::FaultInjectionEnv fault(&disk);
    std::map<std::string, std::string> acked;
    {
      auto store = ProfileStore::Open(&fault, "/s", options).value();
      fault.CrashAtMutation(crash_at);
      RunPuts(store.get(), corpus, &acked);
      EXPECT_TRUE(fault.crashed());
    }
    if (fault_kind == Fault::kPowerLoss) fault.DropUnsyncedData();
    fault.ClearFaults();
    auto reopened = ProfileStore::Open(&fault, "/s", options);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    check(**reopened, acked);
  }
}

TEST(ProfileStoreCrashTest, AckedPutsSurviveCrashAtEveryMutation) {
  ForEachCrashPoint(ProfileStoreOptions(), Fault::kProcessCrash,
                    ExpectAckedPutsReadBack);
}

/// Without the WAL sync an acked put lives only in the page cache, and
/// this is the test that loses it.
TEST(ProfileStoreCrashTest, AckedPutsSurvivePowerLossAfterEverySync) {
  ForEachCrashPoint(ProfileStoreOptions(), Fault::kPowerLoss,
                    ExpectAckedPutsReadBack);
}

/// The bounds row is synced before the Dynamic row publishes a profile,
/// so no crash leaves an indexed vector outside the persisted bounds.
/// Small memtables put flushes and compactions inside the run too.
TEST(ProfileStoreCrashTest, IndexedVectorsLieInsideBoundsAfterAnyCrash) {
  ProfileStoreOptions options;
  options.table.db_options.memtable_flush_bytes = 4096;
  options.table.db_options.l0_compaction_trigger = 3;
  for (Fault fault_kind : {Fault::kProcessCrash, Fault::kPowerLoss}) {
    ForEachCrashPoint(
        options, fault_kind,
        [](const ProfileStore& store,
           const std::map<std::string, std::string>& acked) {
          ExpectAckedPutsReadBack(store, acked);
          ExpectIndexInsideBounds(store);
        });
  }
}

/// A bulk load (eager_flush off) syncs nothing per put; its closing
/// Flush() makes every put survive a power loss.
TEST(ProfileStoreCrashTest, BulkLoadPutsBecomeDurableAtFlush) {
  storage::InMemoryEnv disk;
  storage::FaultInjectionEnv fault(&disk);
  ProfileStoreOptions bulk;
  bulk.eager_flush = false;
  const tools::SyntheticCorpus corpus = Corpus();
  std::map<std::string, std::string> loaded;
  {
    auto store = ProfileStore::Open(&fault, "/s", bulk).value();
    const uint64_t syncs_at_open = store->StorageStats().wal_syncs;
    for (size_t i = 0; i < 5; ++i) {
      const tools::SyntheticProfile p = corpus.Make(i);
      ASSERT_TRUE(store->PutProfile(p.job_key, p.profile, p.statics).ok());
      loaded[p.job_key] = EntryBytes(p.profile, p.statics);
    }
    EXPECT_EQ(store->StorageStats().wal_syncs, syncs_at_open);
    ASSERT_TRUE(store->Flush().ok());
  }
  fault.DropUnsyncedData();
  auto store = ProfileStore::Open(&fault, "/s", bulk).value();
  EXPECT_EQ(store->num_profiles(), loaded.size());
  ExpectAckedPutsReadBack(*store, loaded);
  ExpectIndexInsideBounds(*store);
}

TEST(ProfileStoreCrashTest, DefaultPutBelowMemtableLimitRunsNoFlush) {
  storage::InMemoryEnv env;
  auto store = ProfileStore::Open(&env, "/s").value();
  const tools::SyntheticCorpus corpus = Corpus();
  for (size_t i = 0; i < 3; ++i) {
    const tools::SyntheticProfile p = corpus.Make(i);
    ASSERT_TRUE(store->PutProfile(p.job_key, p.profile, p.statics).ok());
  }
  const storage::DbStats stats = store->StorageStats();
  EXPECT_EQ(stats.flushes, 0u);
  EXPECT_EQ(stats.compactions, 0u);
  // Four rows per put (Static, Payload, Meta/bounds, Dynamic), each one
  // batch with one sync.
  EXPECT_EQ(stats.wal_syncs, 3u * 4);
}

}  // namespace
}  // namespace pstorm::core
