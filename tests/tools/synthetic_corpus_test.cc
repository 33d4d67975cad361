#include "tools/synthetic_corpus.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "core/profile_store.h"
#include "storage/env.h"

namespace pstorm::tools {
namespace {

TEST(SyntheticCorpusTest, DeterministicAcrossInstancesAndAccessOrder) {
  SyntheticCorpusOptions options;
  options.num_profiles = 200;
  const SyntheticCorpus a(options);
  const SyntheticCorpus b(options);
  // Random access out of order must agree with in-order generation.
  for (size_t i : {137, 0, 42, 199, 7, 42}) {
    const auto pa = a.Make(i);
    const auto pb = b.Make(i);
    EXPECT_EQ(pa.job_key, pb.job_key);
    EXPECT_EQ(pa.profile.Serialize(), pb.profile.Serialize());
    EXPECT_EQ(pa.statics.MapCategorical(), pb.statics.MapCategorical());
  }
}

TEST(SyntheticCorpusTest, DifferentSeedsDiffer) {
  SyntheticCorpusOptions a_options;
  a_options.num_profiles = 10;
  SyntheticCorpusOptions b_options = a_options;
  b_options.seed = 43;
  EXPECT_NE(SyntheticCorpus(a_options).Make(0).profile.Serialize(),
            SyntheticCorpus(b_options).Make(0).profile.Serialize());
}

TEST(SyntheticCorpusTest, KeysAreUniqueAndValuesFinite) {
  SyntheticCorpusOptions options;
  options.num_profiles = 500;
  const SyntheticCorpus corpus(options);
  std::set<std::string> keys;
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto p = corpus.Make(i);
    EXPECT_TRUE(keys.insert(p.job_key).second) << "duplicate " << p.job_key;
    EXPECT_EQ(p.job_key.find('/'), std::string::npos);
    for (double v : p.profile.DynamicVector()) EXPECT_TRUE(std::isfinite(v));
    for (double v : p.profile.CostVector()) EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(p.profile.input_data_bytes, 0.0);
  }
}

TEST(SyntheticCorpusTest, EveryProfileAndProbeRoundTripsThroughParse) {
  // The wide store the benchmarks serve holds the first 1,000 profiles,
  // and its probe puts are MakeProbe outputs; Parse decodes both from the
  // store, so both must pass its range checks.
  const SyntheticCorpus corpus;
  for (size_t i = 0; i < 1000; ++i) {
    for (const SyntheticProfile& p : {corpus.Make(i), corpus.MakeProbe(i)}) {
      const std::string text = p.profile.Serialize();
      const auto parsed = profiler::ExecutionProfile::Parse(text);
      ASSERT_TRUE(parsed.ok()) << p.job_key << ": " << parsed.status();
      EXPECT_EQ(parsed->Serialize(), text) << p.job_key;
    }
  }
}

TEST(SyntheticCorpusTest, ProbeSharesArchetypeButNotValues) {
  const SyntheticCorpus corpus;
  const auto member = corpus.Make(17);
  const auto probe = corpus.MakeProbe(17);
  EXPECT_NE(probe.job_key, member.job_key);
  // Same archetype: identical static features (the funnel's CFG/Jaccard
  // stages must see an exact static match).
  EXPECT_EQ(probe.statics.MapCategorical(), member.statics.MapCategorical());
  EXPECT_EQ(probe.statics.ReduceCategorical(),
            member.statics.ReduceCategorical());
  // Fresh jitter: the dynamic features are near but not equal.
  EXPECT_NE(probe.profile.map_side.DynamicVector(),
            member.profile.map_side.DynamicVector());
}

TEST(SyntheticCorpusTest, ControlledDiversityAcrossArchetypes) {
  SyntheticCorpusOptions options;
  options.num_archetypes = 6;
  const SyntheticCorpus corpus(options);
  std::set<std::string> mappers;
  for (size_t i = 0; i < 6; ++i) {
    mappers.insert(corpus.Make(i).statics.mapper);
  }
  EXPECT_EQ(mappers.size(), 6u);  // Each archetype has its own code shape.
  // Archetype repeats share statics exactly.
  EXPECT_EQ(corpus.Make(0).statics.MapCategorical(),
            corpus.Make(6).statics.MapCategorical());
}

TEST(SyntheticCorpusTest, LoadIntoPopulatesStoreAndIndex) {
  storage::InMemoryEnv env;
  core::ProfileStoreOptions options;
  options.eager_flush = false;
  auto store = core::ProfileStore::Open(&env, "/corpus", options);
  ASSERT_TRUE(store.ok()) << store.status();
  SyntheticCorpusOptions corpus_options;
  corpus_options.num_profiles = 100;
  const SyntheticCorpus corpus(corpus_options);
  ASSERT_TRUE(corpus.LoadInto(store->get(), 0).ok());
  EXPECT_EQ((*store)->num_profiles(), 100u);
  EXPECT_EQ((*store)->match_index_size(core::Side::kMap), 100u);

  // The limit argument loads a prefix.
  storage::InMemoryEnv env2;
  auto small = core::ProfileStore::Open(&env2, "/corpus", options);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(corpus.LoadInto(small->get(), 25).ok());
  EXPECT_EQ((*small)->num_profiles(), 25u);
}

}  // namespace
}  // namespace pstorm::tools
