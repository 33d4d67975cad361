// The matcher's entry funnel against its row-scan oracle.
//
// MultiStageMatcher runs stages 2, 2.5 and 3 of Figure 4.4 as predicates
// over decoded entries. ProfileStore::CfgMatchScan / CallSetScan /
// JaccardScan answer the same stages with pushed-down row filters. Pruning
// must never change answers, so on the Table 6.1 store and on a synthetic
// store of 1,000 profiles, for every probe, both sides and each option set,
// every stage must keep the same keys in the same order, and MatchSide must
// return the row-scan funnel's SideMatch. Both stores hold one profile
// whose Static row predates the §7.2 extension columns. Two tests pin the
// rule for a stage-1 survivor whose rows fail to decode, one holds the
// cost-factor fallback to the row scans' refined set, and the last races
// matches against writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/strings.h"
#include "core/evaluator.h"
#include "core/matcher.h"
#include "core/profile_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "staticanalysis/cfg_matcher.h"
#include "storage/env.h"
#include "tools/synthetic_corpus.h"

namespace pstorm::core {
namespace {

using EntryRef = std::shared_ptr<const StoredEntry>;

/// The elements of `a`, in order, that also appear in `b`.
std::vector<std::string> Intersect(const std::vector<std::string>& a,
                                   const std::vector<std::string>& b) {
  const std::unordered_set<std::string> in_b(b.begin(), b.end());
  std::vector<std::string> out;
  for (const std::string& key : a) {
    if (in_b.count(key) > 0) out.push_back(key);
  }
  return out;
}

/// One side of the funnel answered by the row-filter scans, stage by stage.
struct RowScanRun {
  std::vector<std::string> stage1, cfg, call_set, jaccard;
  SideMatch side;
};

/// The Figure 4.4 funnel as the store's row-filter scans answer it: stage
/// 1 by the exhaustive region scan, stages 2-3 by CfgMatchScan /
/// CallSetScan / JaccardScan, then the matcher's own tie-break.
RowScanRun RowScanFunnel(const ProfileStore& store, const MatchOptions& o,
                         Side side, const JobFeatureVector& probe) {
  const MultiStageMatcher matcher(&store, o);
  const bool map = side == Side::kMap;
  const std::vector<double>& dynamic =
      map ? probe.map_dynamic : probe.reduce_dynamic;
  const std::vector<double>& costs = map ? probe.map_costs : probe.reduce_costs;
  std::vector<std::string> categorical =
      map ? probe.map_categorical : probe.reduce_categorical;
  const bool with_params = o.include_user_parameters || o.static_only;
  if (with_params) categorical.push_back(probe.user_params);
  const double theta = 0.5 * std::sqrt(static_cast<double>(dynamic.size()));

  RowScanRun run;
  run.stage1 = (o.static_only || o.static_filters_first)
                   ? store.ListJobKeys().value()
                   : store.DynamicEuclideanScan(side, dynamic, theta).value();
  run.side.after_dynamic = run.stage1.size();
  if (run.stage1.empty()) return run;
  run.cfg = store
                .CfgMatchScan(side, map ? probe.map_cfg : probe.reduce_cfg,
                              run.stage1)
                .value();
  run.side.after_cfg = run.cfg.size();
  run.call_set =
      o.use_call_graph
          ? store
                .CallSetScan(side, map ? probe.map_calls : probe.reduce_calls,
                             run.cfg)
                .value()
          : run.cfg;
  run.jaccard = store
                    .JaccardScan(side, categorical, o.theta_jaccard,
                                 run.call_set, with_params)
                    .value();
  run.side.after_jaccard = run.jaccard.size();

  auto finish = [&](const std::vector<std::string>& keys,
                    const std::vector<std::string>& tie_categorical,
                    const std::vector<double>& tie_dynamic, MatchPath path) {
    if (keys.empty()) return;
    run.side.job_key = matcher
                           .TieBreak(side, keys, tie_categorical, tie_dynamic,
                                     probe.input_data_bytes)
                           .value();
    if (!run.side.job_key.empty()) run.side.path = path;
  };
  if (o.static_only) {
    finish(run.jaccard, categorical, {}, MatchPath::kFullPath);
  } else if (o.static_filters_first) {
    finish(Intersect(run.jaccard,
                     store.DynamicEuclideanScan(side, dynamic, theta).value()),
           categorical, dynamic, MatchPath::kFullPath);
  } else if (!run.jaccard.empty()) {
    finish(run.jaccard, categorical, dynamic, MatchPath::kFullPath);
  } else if (o.use_cost_factor_fallback) {
    const double cost_theta =
        0.5 * std::sqrt(static_cast<double>(costs.size()));
    finish(Intersect(store.CostEuclideanScan(side, costs, cost_theta).value(),
                     run.stage1),
           {}, dynamic, MatchPath::kCostFactorFallback);
  }
  return run;
}

std::vector<EntryRef> Keep(const std::vector<EntryRef>& in,
                           const std::function<bool(const StoredEntry&)>& f) {
  std::vector<EntryRef> out;
  for (const EntryRef& e : in) {
    if (f(*e)) out.push_back(e);
  }
  return out;
}

std::vector<std::string> KeysOf(const std::vector<EntryRef>& entries) {
  std::vector<std::string> keys;
  for (const EntryRef& e : entries) keys.push_back(e->job_key);
  return keys;
}

/// Checks the entry predicates against the row filters at every stage of
/// one side's funnel, and MatchSide against the row-scan SideMatch.
void ExpectFunnelMatchesOracle(const ProfileStore& store,
                               const MatchOptions& o, Side side,
                               const JobFeatureVector& probe,
                               const std::string& label) {
  SCOPED_TRACE(label + (side == Side::kMap ? " map" : " reduce"));
  const RowScanRun run = RowScanFunnel(store, o, side, probe);
  const bool map = side == Side::kMap;
  std::vector<std::string> categorical =
      map ? probe.map_categorical : probe.reduce_categorical;
  const bool with_params = o.include_user_parameters || o.static_only;
  if (with_params) categorical.push_back(probe.user_params);
  const std::string calls =
      StrJoin(map ? probe.map_calls : probe.reduce_calls, ",");

  std::vector<EntryRef> entries;
  for (const std::string& key : run.stage1) {
    entries.push_back(store.GetEntryRef(key).value());
  }
  const std::string cfg_key =
      staticanalysis::CfgMatchKey(map ? probe.map_cfg : probe.reduce_cfg);
  const std::vector<EntryRef> cfg = Keep(entries, [&](const StoredEntry& e) {
    return CfgStagePasses(side, cfg_key, e);
  });
  ASSERT_EQ(KeysOf(cfg), run.cfg);
  const std::vector<EntryRef> call_set =
      o.use_call_graph ? Keep(cfg,
                              [&](const StoredEntry& e) {
                                return CallSetStagePasses(side, calls, e);
                              })
                       : cfg;
  ASSERT_EQ(KeysOf(call_set), run.call_set);
  const std::vector<EntryRef> jaccard =
      Keep(call_set, [&](const StoredEntry& e) {
        return JaccardStagePasses(side, categorical, o.theta_jaccard,
                                  with_params, e);
      });
  ASSERT_EQ(KeysOf(jaccard), run.jaccard);

  const auto got = MultiStageMatcher(&store, o).MatchSide(side, probe);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, run.side) << "got " << got->job_key << ", row scans chose "
                            << run.side.job_key;
}

/// The option sets of the differential: the defaults, then each knob that
/// changes which stages run or what they compare.
std::vector<std::pair<std::string, MatchOptions>> OptionSets() {
  std::vector<std::pair<std::string, MatchOptions>> sets;
  sets.emplace_back("default", MatchOptions{});
  MatchOptions o;
  o.static_only = true;
  sets.emplace_back("static_only", o);
  o = MatchOptions{};
  o.static_filters_first = true;
  sets.emplace_back("static_filters_first", o);
  o = MatchOptions{};
  o.include_user_parameters = true;
  sets.emplace_back("include_user_parameters", o);
  o = MatchOptions{};
  o.use_call_graph = true;
  sets.emplace_back("use_call_graph", o);
  return sets;
}

/// Rewrites `key`'s Static row without the §7.2 extension columns, as a
/// store written before that support holds it.
void StripExtensionColumns(ProfileStore* store, const std::string& key) {
  const std::string row_key = "Static/" + key;
  auto row = store->table()->Get(row_key);
  ASSERT_TRUE(row.ok()) << row.status();
  hstore::PutOp put(row_key);
  for (const auto& [qualifier, value] : row->FamilyMap("F")) {
    if (qualifier != "USER_PARAMS" && qualifier != "MAP_CALLS" &&
        qualifier != "RED_CALLS") {
      put.Add("F", qualifier, value);
    }
  }
  ASSERT_TRUE(store->table()->DeleteRow(row_key).ok());
  ASSERT_TRUE(store->table()->Put(put).ok());
}

/// A profile that reads as empty where its extension columns are missing:
/// no user parameters and no helper calls on either side. On such a row
/// an entry that ignored column presence would pass the call-set and
/// user-parameter stages that the row filters fail.
bool LooksEmptyWithoutExtensions(const staticanalysis::StaticFeatures& s) {
  return s.user_params.empty() && s.map_calls.empty() &&
         s.reduce_calls.empty();
}

uint64_t CorruptCandidates() {
  return obs::MetricsRegistry::Global()
      .GetCounter("pstorm_matcher_corrupt_candidates_total")
      .Value();
}

class MatcherFunnelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const mrsim::Simulator sim(mrsim::ThesisCluster());
    corpus_ = new Corpus(
        BuildEvaluationCorpus(sim, mrsim::Configuration{}, 17).value());
    env_ = new storage::InMemoryEnv();
  }
  static void TearDownTestSuite() {
    delete corpus_;
    delete env_;
  }

  /// Every Table 6.1 profile in a fresh store at `path`.
  static std::unique_ptr<ProfileStore> Table61Store(const std::string& path) {
    auto store = ProfileStore::Open(env_, path).value();
    for (const CorpusItem& item : corpus_->items) {
      PSTORM_CHECK_OK(
          store->PutProfile(item.job_key, item.complete, item.statics));
    }
    return store;
  }

  static JobFeatureVector ProbeOf(const CorpusItem& item) {
    return BuildFeatureVector(item.sample, item.statics);
  }

  static Corpus* corpus_;
  static storage::InMemoryEnv* env_;
};

Corpus* MatcherFunnelTest::corpus_ = nullptr;
storage::InMemoryEnv* MatcherFunnelTest::env_ = nullptr;

TEST_F(MatcherFunnelTest, EntryFunnelMatchesRowScansOnTable61Store) {
  auto store = Table61Store("/funnel-table61");
  const CorpusItem* legacy = nullptr;
  for (const CorpusItem& item : corpus_->items) {
    if (LooksEmptyWithoutExtensions(item.statics)) legacy = &item;
  }
  ASSERT_NE(legacy, nullptr);
  StripExtensionColumns(store.get(), legacy->job_key);
  EXPECT_FALSE(store->GetEntryRef(legacy->job_key).value()->has_user_params);

  for (const auto& [name, options] : OptionSets()) {
    for (const CorpusItem& item : corpus_->items) {
      for (Side side : {Side::kMap, Side::kReduce}) {
        ExpectFunnelMatchesOracle(*store, options, side, ProbeOf(item),
                                  name + " " + item.job_key);
      }
    }
  }
}

TEST_F(MatcherFunnelTest, EntryFunnelMatchesRowScansOnSyntheticStore) {
  tools::SyntheticCorpusOptions corpus_options;
  corpus_options.num_profiles = 1000;
  corpus_options.num_archetypes = 12;
  const tools::SyntheticCorpus corpus(corpus_options);
  ProfileStoreOptions store_options;
  store_options.eager_flush = false;
  auto store = ProfileStore::Open(env_, "/funnel-synthetic", store_options)
                   .value();
  ASSERT_TRUE(corpus.LoadInto(store.get()).ok());
  // Every synthetic archetype has parameters or helper calls, so this
  // legacy row is rejected by those stages either way.
  const size_t legacy = 0;
  StripExtensionColumns(store.get(), corpus.Make(legacy).job_key);

  // The legacy profile's own probe, then one probe per archetype (profile
  // i is archetype i % 12), each on a different data set.
  std::vector<size_t> probes = {legacy};
  for (size_t q = 0; q < 12; ++q) probes.push_back(q * 83 + 1);
  for (const auto& [name, options] : OptionSets()) {
    for (size_t index : probes) {
      const tools::SyntheticProfile p = corpus.MakeProbe(index);
      for (Side side : {Side::kMap, Side::kReduce}) {
        ExpectFunnelMatchesOracle(*store, options, side,
                                  BuildFeatureVector(p.profile, p.statics),
                                  name + " probe " + std::to_string(index));
      }
    }
  }
}

// A MAP_CFG cell that does not parse: the row filter drops the row at the
// CFG stage, and the entry funnel drops the candidate, which fails to
// decode, before it. Same answer; the drop is counted.
TEST_F(MatcherFunnelTest, UnparseableCfgGivesTheRowScanAnswer) {
  auto store = Table61Store("/funnel-bad-cfg");
  const CorpusItem& item = corpus_->items.front();
  hstore::PutOp put("Static/" + item.job_key);
  put.Add("F", "MAP_CFG", "not a cfg");
  ASSERT_TRUE(store->table()->Put(put).ok());

  const JobFeatureVector probe = ProbeOf(item);
  const RowScanRun run =
      RowScanFunnel(*store, MatchOptions{}, Side::kMap, probe);
  ASSERT_EQ(Intersect(run.stage1, {item.job_key}).size(), 1u);
  ASSERT_TRUE(Intersect(run.cfg, {item.job_key}).empty());

  const uint64_t before = CorruptCandidates();
  const auto got = MultiStageMatcher(store.get()).MatchSide(Side::kMap, probe);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, run.side);
  EXPECT_EQ(CorruptCandidates() - before, 1u);
}

// A PROFILE blob that does not parse. The row filters of stages 2-3 never
// read the Payload row, so the candidate used to reach the tie-break and
// fail the whole match there. It now drops out of the funnel: the match
// answers as if the profile were not stored.
TEST_F(MatcherFunnelTest, CorruptPayloadDropsTheCandidate) {
  auto store = Table61Store("/funnel-bad-payload");
  const CorpusItem* item = nullptr;
  for (size_t i = 0; i < corpus_->items.size() && item == nullptr; ++i) {
    if (corpus_->TwinOf(i) >= 0) item = &corpus_->items[i];
  }
  ASSERT_NE(item, nullptr);
  hstore::PutOp put("Payload/" + item->job_key);
  put.Add("F", "PROFILE", "not a profile");
  ASSERT_TRUE(store->table()->Put(put).ok());

  const JobFeatureVector probe = ProbeOf(*item);
  const MultiStageMatcher matcher(store.get());
  EXPECT_TRUE(matcher
                  .TieBreak(Side::kMap, {item->job_key}, probe.map_categorical,
                            probe.map_dynamic, probe.input_data_bytes)
                  .status()
                  .IsCorruption());

  const uint64_t before = CorruptCandidates();
  const auto got = matcher.Match(probe);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(CorruptCandidates() - before, 2u) << "one drop per side";

  // Deleting the profile leaves the bounds as they are, so the stage-1
  // distances of every other profile stay put.
  ASSERT_TRUE(store->DeleteProfile(item->job_key).ok());
  const auto without = matcher.Match(probe);
  ASSERT_TRUE(without.ok()) << without.status();
  ASSERT_TRUE(without->found);
  EXPECT_EQ(got->found, without->found);
  EXPECT_EQ(got->map_source, without->map_source);
  EXPECT_EQ(got->reduce_source, without->reduce_source);
  EXPECT_EQ(got->map_side.path, without->map_side.path);
  EXPECT_EQ(got->reduce_side.path, without->reduce_side.path);
}

// The cost-factor fallback, probed with the Table 6.1 jobs against the
// synthetic store: its archetypes share none of their CFGs, so stages 2-3
// empty most sides and the alternative filter decides. The funnel must
// refine exactly the row scans' C' ∩ cost-filter set and pick the
// TieBreak(keys) winner from it.
TEST_F(MatcherFunnelTest, FallbackRefinesExactlyTheRowScanSet) {
  tools::SyntheticCorpusOptions corpus_options;
  corpus_options.num_profiles = 1000;
  const tools::SyntheticCorpus corpus(corpus_options);
  ProfileStoreOptions store_options;
  store_options.eager_flush = false;
  auto store =
      ProfileStore::Open(env_, "/funnel-fallback", store_options).value();
  ASSERT_TRUE(corpus.LoadInto(store.get()).ok());
  const MultiStageMatcher matcher(store.get());

  size_t fallbacks = 0;
  for (const CorpusItem& item : corpus_->items) {
    const JobFeatureVector probe = ProbeOf(item);
    for (Side side : {Side::kMap, Side::kReduce}) {
      SCOPED_TRACE(item.job_key + (side == Side::kMap ? " map" : " reduce"));
      obs::SideTrace trace;
      const SideMatch got = matcher.MatchSide(side, probe, &trace).value();
      if (got.path != MatchPath::kCostFactorFallback) continue;
      ++fallbacks;
      const bool map = side == Side::kMap;
      const std::vector<double>& dynamic =
          map ? probe.map_dynamic : probe.reduce_dynamic;
      const std::vector<double>& costs =
          map ? probe.map_costs : probe.reduce_costs;
      const std::vector<std::string> refined = Intersect(
          store
              ->CostEuclideanScan(
                  side, costs,
                  0.5 * std::sqrt(static_cast<double>(costs.size())))
              .value(),
          store
              ->DynamicEuclideanScan(
                  side, dynamic,
                  0.5 * std::sqrt(static_cast<double>(dynamic.size())))
              .value());
      ASSERT_FALSE(trace.stages.empty());
      EXPECT_EQ(trace.stages.back().name, "cost_factor_fallback");
      EXPECT_EQ(trace.stages.back().candidates_out, refined.size());
      EXPECT_EQ(trace.tie_break_candidates, refined.size());
      EXPECT_EQ(got.job_key, matcher
                                 .TieBreak(side, refined, {}, dynamic,
                                           probe.input_data_bytes)
                                 .value());
    }
  }
  EXPECT_GT(fallbacks, 20u);
}

// Four threads match against a 1,000-profile store while a writer deletes
// and re-puts profiles that every probe's stage 1 passes, so the visit
// reads the entry cache under its shard locks while puts and deletes
// invalidate it. Under TSan this is the funnel's race check. In any build,
// every side a match finds must name a key that was stored at some point.
TEST_F(MatcherFunnelTest, MatchesRaceRePutsAndDeletesOfSurvivors) {
  tools::SyntheticCorpusOptions corpus_options;
  corpus_options.num_profiles = 1000;
  const tools::SyntheticCorpus corpus(corpus_options);
  ProfileStoreOptions store_options;
  store_options.eager_flush = false;
  auto store =
      ProfileStore::Open(env_, "/funnel-race", store_options).value();
  ASSERT_TRUE(corpus.LoadInto(store.get()).ok());
  std::unordered_set<std::string> ever_stored;
  for (size_t i = 0; i < corpus.size(); ++i) {
    ever_stored.insert(corpus.Make(i).job_key);
  }

  // One probe per archetype (profile i is archetype i % 12). The victims
  // are the profiles each probe was made from and three more of its
  // archetype: its likeliest winners.
  std::vector<JobFeatureVector> probes;
  std::vector<tools::SyntheticProfile> victims;
  for (size_t q = 0; q < 12; ++q) {
    const tools::SyntheticProfile p = corpus.MakeProbe(q * 83 + 1);
    probes.push_back(BuildFeatureVector(p.profile, p.statics));
    for (size_t k = 0; k < 4; ++k) {
      victims.push_back(corpus.Make(q * 83 + 1 + 12 * k));
    }
  }
  // The victims are stage-1 survivors of their probes before the race.
  for (size_t v = 0; v < victims.size(); ++v) {
    const JobFeatureVector& probe = probes[v / 4];
    const double theta =
        0.5 * std::sqrt(static_cast<double>(probe.map_dynamic.size()));
    const std::vector<std::string> stage1 = store->EuclideanCandidates(
        Side::kMap, Space::kDynamic, probe.map_dynamic, theta);
    ASSERT_TRUE(std::binary_search(stage1.begin(), stage1.end(),
                                   victims[v].job_key))
        << victims[v].job_key;
  }

  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> found{0}, failures{0}, strangers{0};
  const MultiStageMatcher matcher(store.get());
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (size_t i = t; !writer_done.load() || i < t + 24; ++i) {
        const auto match = matcher.Match(probes[i % probes.size()]);
        if (!match.ok()) {
          failures.fetch_add(1);
          continue;
        }
        for (const SideMatch* side : {&match->map_side, &match->reduce_side}) {
          if (side->path != MatchPath::kNoMatch &&
              ever_stored.count(side->job_key) == 0) {
            strangers.fetch_add(1);
          }
        }
        if (match->found) found.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    for (const tools::SyntheticProfile& v : victims) {
      const Status status =
          round % 2 == 0 ? store->DeleteProfile(v.job_key)
                         : store->PutProfile(v.job_key, v.profile, v.statics);
      EXPECT_TRUE(status.ok()) << status;
    }
  }
  writer_done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(strangers.load(), 0u);
  EXPECT_GT(found.load(), 0u);
  EXPECT_EQ(store->num_profiles(), corpus.size());
}

}  // namespace
}  // namespace pstorm::core
