#include "core/profile_store.h"

#include <gtest/gtest.h>

#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "obs/metrics.h"
#include "profiler/profiler.h"
#include "staticanalysis/cfg_matcher.h"

namespace pstorm::core {
namespace {

class ProfileStoreTest : public ::testing::Test {
 protected:
  ProfileStoreTest() : sim_(mrsim::ThesisCluster()), profiler_(&sim_) {}

  std::unique_ptr<ProfileStore> OpenStore(const std::string& path = "/ps") {
    auto store = ProfileStore::Open(&env_, path);
    EXPECT_TRUE(store.ok()) << store.status();
    return std::move(store).value();
  }

  /// A complete profile + statics for one benchmark job.
  StoredEntry MakeEntry(const jobs::BenchmarkJob& job, const char* data_name,
                        uint64_t seed = 1) {
    auto data = jobs::FindDataSet(data_name);
    EXPECT_TRUE(data.ok());
    auto profiled =
        profiler_.ProfileFullRun(job.spec, *data, mrsim::Configuration{},
                                 seed);
    EXPECT_TRUE(profiled.ok()) << profiled.status();
    StoredEntry entry;
    entry.job_key = job.spec.name + "@" + data_name;
    entry.profile = profiled->profile;
    entry.statics = staticanalysis::ExtractStaticFeatures(job.program);
    return entry;
  }

  storage::InMemoryEnv env_;
  mrsim::Simulator sim_;
  profiler::Profiler profiler_;
};

TEST_F(ProfileStoreTest, PutGetRoundTrip) {
  auto store = OpenStore();
  const StoredEntry original =
      MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  ASSERT_TRUE(store
                  ->PutProfile(original.job_key, original.profile,
                               original.statics)
                  .ok());
  EXPECT_EQ(store->num_profiles(), 1u);

  auto loaded = store->GetEntry(original.job_key);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->profile.job_name, "word-count");
  EXPECT_EQ(loaded->profile.DynamicVector(),
            original.profile.DynamicVector());
  EXPECT_EQ(loaded->statics.MapCategorical(),
            original.statics.MapCategorical());
  EXPECT_TRUE(staticanalysis::MatchCfgs(loaded->statics.map_cfg,
                                        original.statics.map_cfg));
}

TEST_F(ProfileStoreTest, GetMissingIsNotFound) {
  auto store = OpenStore();
  EXPECT_TRUE(store->GetEntry("nope").status().IsNotFound());
}

TEST_F(ProfileStoreTest, RejectsBadJobKeys) {
  auto store = OpenStore();
  const StoredEntry e = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  EXPECT_TRUE(store->PutProfile("", e.profile, e.statics)
                  .IsInvalidArgument());
  EXPECT_TRUE(store->PutProfile("has/slash", e.profile, e.statics)
                  .IsInvalidArgument());
}

TEST_F(ProfileStoreTest, DeleteRemovesProfile) {
  auto store = OpenStore();
  const StoredEntry e = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  ASSERT_TRUE(store->PutProfile(e.job_key, e.profile, e.statics).ok());
  ASSERT_TRUE(store->DeleteProfile(e.job_key).ok());
  EXPECT_EQ(store->num_profiles(), 0u);
  EXPECT_TRUE(store->GetEntry(e.job_key).status().IsNotFound());
  // Idempotent.
  EXPECT_TRUE(store->DeleteProfile(e.job_key).ok());
}

TEST_F(ProfileStoreTest, ListJobKeysSorted) {
  auto store = OpenStore();
  const StoredEntry wc = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  const StoredEntry sort = MakeEntry(jobs::Sort(), jobs::kTeraGen1Gb);
  ASSERT_TRUE(store->PutProfile(wc.job_key, wc.profile, wc.statics).ok());
  ASSERT_TRUE(
      store->PutProfile(sort.job_key, sort.profile, sort.statics).ok());
  auto keys = store->ListJobKeys();
  ASSERT_TRUE(keys.ok());
  EXPECT_EQ(*keys, (std::vector<std::string>{sort.job_key, wc.job_key}));
}

TEST_F(ProfileStoreTest, BoundsWidenWithProfilesAndSurviveReopen) {
  const StoredEntry wc = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  const StoredEntry cooc =
      MakeEntry(jobs::WordCooccurrencePairs(2), jobs::kRandomText1Gb);
  {
    auto store = OpenStore("/ps-bounds");
    ASSERT_TRUE(store->PutProfile(wc.job_key, wc.profile, wc.statics).ok());
    const FeatureBounds before = store->DynamicBounds(Side::kMap);
    ASSERT_TRUE(
        store->PutProfile(cooc.job_key, cooc.profile, cooc.statics).ok());
    const FeatureBounds after = store->DynamicBounds(Side::kMap);
    // Co-occurrence has a much larger MAP_SIZE_SEL: the max must widen.
    EXPECT_GT(after.maxs[0], before.maxs[0]);
  }
  auto reopened = ProfileStore::Open(&env_, "/ps-bounds");
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_profiles(), 2u);
  const FeatureBounds bounds = (*reopened)->DynamicBounds(Side::kMap);
  EXPECT_GT(bounds.maxs[0], 2.0);
}

TEST_F(ProfileStoreTest, CorruptMetadataRecoveryIsCounted) {
  const StoredEntry wc = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  {
    auto store = OpenStore("/ps-corrupt");
    ASSERT_TRUE(store->PutProfile(wc.job_key, wc.profile, wc.statics).ok());
    EXPECT_EQ(store->recovery_stats().bounds_resets, 0u);
    EXPECT_EQ(store->recovery_stats().count_resets, 0u);
  }
  // Corrupt the normalization-bounds row with a column LoadBounds cannot
  // parse.
  {
    hstore::TableSchema schema;
    schema.name = "Jobs";
    schema.families = {"F"};
    auto table = hstore::HTable::Open(&env_, "/ps-corrupt", schema);
    ASSERT_TRUE(table.ok()) << table.status();
    hstore::PutOp put("Meta/bounds");
    put.Add("F", "neither-min-nor-max", "1.0");
    ASSERT_TRUE((*table)->Put(put).ok());
    ASSERT_TRUE((*table)->Flush().ok());
  }
  // And plant a raw bad cell key inside the Payload/ range so the profile
  // recount's scan dies.
  {
    auto db = storage::Db::Open(&env_, "/ps-corrupt/region_0",
                                storage::DbOptions{});
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Put("Payload/zzz-raw-bad-cell-key", "x").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  // The reopen degrades (empty bounds, zero count) instead of failing, and
  // each reset is counted rather than being visible only in the log.
  auto store = OpenStore("/ps-corrupt");
  EXPECT_EQ(store->recovery_stats().bounds_resets, 1u);
  EXPECT_EQ(store->recovery_stats().count_resets, 1u);
  EXPECT_EQ(store->num_profiles(), 0u);
}

/// A match index that cannot be rebuilt under corruption degrades like the
/// metadata above: the open succeeds, the failure is counted, and stage 1
/// serves from an empty index that profiles stored after the reopen fill.
TEST_F(ProfileStoreTest, CorruptDynamicRangeServesFromEmptyIndex) {
  const StoredEntry wc = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  const StoredEntry sort = MakeEntry(jobs::Sort(), jobs::kTeraGen1Gb);
  {
    auto store = OpenStore("/ps-corrupt-dynamic");
    ASSERT_TRUE(store->PutProfile(wc.job_key, wc.profile, wc.statics).ok());
  }
  // A raw bad cell key inside the Dynamic/ range kills the rebuild's scan.
  {
    auto db = storage::Db::Open(&env_, "/ps-corrupt-dynamic/region_0",
                                storage::DbOptions{});
    ASSERT_TRUE(db.ok()) << db.status();
    ASSERT_TRUE((*db)->Put("Dynamic/zzz-raw-bad-cell-key", "x").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  obs::Counter& failures = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_match_index_rebuild_failures_total");
  const uint64_t failures_before = failures.Value();
  auto store = OpenStore("/ps-corrupt-dynamic");
  EXPECT_EQ(failures.Value(), failures_before + 1);
  EXPECT_EQ(store->match_index_size(Side::kMap), 0u);

  ASSERT_TRUE(
      store->PutProfile(sort.job_key, sort.profile, sort.statics).ok());
  EXPECT_EQ(store->EuclideanCandidates(Side::kMap, Space::kDynamic,
                                       sort.profile.map_side.DynamicVector(),
                                       10.0),
            std::vector<std::string>{sort.job_key});
}

TEST_F(ProfileStoreTest, DynamicEuclideanScanFiltersByDistance) {
  auto store = OpenStore();
  const StoredEntry wc = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  const StoredEntry sort = MakeEntry(jobs::Sort(), jobs::kTeraGen1Gb);
  const StoredEntry cooc =
      MakeEntry(jobs::WordCooccurrencePairs(2), jobs::kRandomText1Gb);
  for (const StoredEntry* e : {&wc, &sort, &cooc}) {
    ASSERT_TRUE(store->PutProfile(e->job_key, e->profile, e->statics).ok());
  }
  // Probe with word count's own dynamic vector and a tight threshold.
  auto hits = store->DynamicEuclideanScan(
      Side::kMap, wc.profile.map_side.DynamicVector(), 0.05);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0], wc.job_key);

  // A generous threshold admits everything.
  auto all = store->DynamicEuclideanScan(
      Side::kMap, wc.profile.map_side.DynamicVector(), 10.0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 3u);
}

TEST_F(ProfileStoreTest, PushdownReducesTransferredRows) {
  auto store = OpenStore();
  const StoredEntry wc = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  const StoredEntry sort = MakeEntry(jobs::Sort(), jobs::kTeraGen1Gb);
  const StoredEntry cooc =
      MakeEntry(jobs::WordCooccurrencePairs(2), jobs::kRandomText1Gb);
  for (const StoredEntry* e : {&wc, &sort, &cooc}) {
    ASSERT_TRUE(store->PutProfile(e->job_key, e->profile, e->statics).ok());
  }
  hstore::ScanStats pushed, shipped;
  auto a = store->DynamicEuclideanScan(
      Side::kMap, wc.profile.map_side.DynamicVector(), 0.05, true, &pushed);
  auto b = store->DynamicEuclideanScan(
      Side::kMap, wc.profile.map_side.DynamicVector(), 0.05, false,
      &shipped);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b) << "same answer either way";
  EXPECT_LT(pushed.rows_transferred, shipped.rows_transferred)
      << "filter pushdown must cut region->client transfer (§5.3)";
}

TEST_F(ProfileStoreTest, CfgAndJaccardScansFilterCandidates) {
  auto store = OpenStore();
  const StoredEntry wc = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  const StoredEntry cooc =
      MakeEntry(jobs::WordCooccurrencePairs(2), jobs::kRandomText1Gb);
  ASSERT_TRUE(store->PutProfile(wc.job_key, wc.profile, wc.statics).ok());
  ASSERT_TRUE(
      store->PutProfile(cooc.job_key, cooc.profile, cooc.statics).ok());

  const std::vector<std::string> all = {wc.job_key, cooc.job_key};
  // WordCount's map CFG only matches the word-count entry (Figure 4.2).
  auto cfg_hits = store->CfgMatchScan(Side::kMap, wc.statics.map_cfg, all);
  ASSERT_TRUE(cfg_hits.ok());
  EXPECT_EQ(*cfg_hits, std::vector<std::string>{wc.job_key});

  // Jaccard with word count's own categorical features at theta=1 picks
  // only the exact match.
  auto jacc_hits =
      store->JaccardScan(Side::kMap, wc.statics.MapCategorical(), 1.0, all);
  ASSERT_TRUE(jacc_hits.ok());
  EXPECT_EQ(*jacc_hits, std::vector<std::string>{wc.job_key});

  // Their reduce side shares IntSumReducer: reduce-side Jaccard is 1.
  auto reduce_hits = store->JaccardScan(
      Side::kReduce, wc.statics.ReduceCategorical(), 1.0, all);
  ASSERT_TRUE(reduce_hits.ok());
  EXPECT_EQ(reduce_hits->size(), 2u);
}

TEST_F(ProfileStoreTest, InputDataBytesStored) {
  auto store = OpenStore();
  const StoredEntry wc = MakeEntry(jobs::WordCount(), jobs::kWikipedia35Gb);
  ASSERT_TRUE(store->PutProfile(wc.job_key, wc.profile, wc.statics).ok());
  auto bytes = store->InputDataBytes(wc.job_key);
  ASSERT_TRUE(bytes.ok());
  EXPECT_DOUBLE_EQ(*bytes, 571.0 * 64 * (1 << 20));
}

TEST_F(ProfileStoreTest, MetaEntriesExposeRegionCatalog) {
  auto store = OpenStore();
  auto entries = store->MetaEntries();
  ASSERT_FALSE(entries.empty());
  EXPECT_EQ(entries[0].rfind("Jobs,", 0), 0u);
}

TEST_F(ProfileStoreTest, OverwriteKeepsSingleProfile) {
  auto store = OpenStore();
  const StoredEntry e = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  ASSERT_TRUE(store->PutProfile(e.job_key, e.profile, e.statics).ok());
  ASSERT_TRUE(store->PutProfile(e.job_key, e.profile, e.statics).ok());
  EXPECT_EQ(store->num_profiles(), 1u);
}

TEST_F(ProfileStoreTest, GetEntryRefCachesDecodedEntries) {
  auto store = OpenStore();
  const StoredEntry e = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  ASSERT_TRUE(store->PutProfile(e.job_key, e.profile, e.statics).ok());
  EXPECT_EQ(store->entry_cache_size(), 0u);

  auto first = store->GetEntryRef(e.job_key);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(store->entry_cache_size(), 1u);
  auto second = store->GetEntryRef(e.job_key);
  ASSERT_TRUE(second.ok());
  // Same decoded object, not a re-deserialization.
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((*first)->profile.job_name, "word-count");
}

TEST_F(ProfileStoreTest, PutInvalidatesCachedEntry) {
  auto store = OpenStore();
  const StoredEntry e = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  ASSERT_TRUE(store->PutProfile(e.job_key, e.profile, e.statics).ok());
  auto stale = store->GetEntryRef(e.job_key);
  ASSERT_TRUE(stale.ok());

  // Overwrite with a different profile under the same key.
  StoredEntry updated = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  updated.profile.input_data_bytes += 1234.0;
  ASSERT_TRUE(
      store->PutProfile(e.job_key, updated.profile, updated.statics).ok());

  auto fresh = store->GetEntryRef(e.job_key);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(stale->get(), fresh->get());
  EXPECT_DOUBLE_EQ((*fresh)->profile.input_data_bytes,
                   updated.profile.input_data_bytes);
  // The pre-invalidation snapshot stays readable (immutable value).
  EXPECT_DOUBLE_EQ((*stale)->profile.input_data_bytes,
                   e.profile.input_data_bytes);
}

TEST_F(ProfileStoreTest, DeleteInvalidatesCachedEntry) {
  auto store = OpenStore();
  const StoredEntry e = MakeEntry(jobs::WordCount(), jobs::kRandomText1Gb);
  ASSERT_TRUE(store->PutProfile(e.job_key, e.profile, e.statics).ok());
  ASSERT_TRUE(store->GetEntryRef(e.job_key).ok());
  ASSERT_TRUE(store->DeleteProfile(e.job_key).ok());
  EXPECT_EQ(store->entry_cache_size(), 0u);
  EXPECT_TRUE(store->GetEntryRef(e.job_key).status().IsNotFound());
}

}  // namespace
}  // namespace pstorm::core
