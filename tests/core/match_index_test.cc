#include "core/match_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/profile_store.h"
#include "storage/env.h"
#include "tools/synthetic_corpus.h"
#include "test_strings.h"

namespace pstorm::core {
namespace {

/// Reference implementation of the lookup the index must agree with: the
/// exhaustive filter's arithmetic, member by member.
std::vector<std::string> BruteForce(
    const std::vector<std::pair<std::string, std::vector<double>>>& members,
    const std::vector<double>& probe, double theta,
    const std::vector<double>& mins, const std::vector<double>& ranges) {
  std::vector<double> normalized_probe(probe.size());
  for (size_t d = 0; d < probe.size(); ++d) {
    normalized_probe[d] = (probe[d] - mins[d]) / ranges[d];
  }
  std::vector<std::string> out;
  for (const auto& [key, values] : members) {
    double sum = 0;
    for (size_t d = 0; d < values.size(); ++d) {
      const double diff = (values[d] - mins[d]) / ranges[d] -
                          normalized_probe[d];
      sum += diff * diff;
    }
    if (std::sqrt(sum) <= theta) out.push_back(key);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(VectorSpaceIndexTest, PutDeleteReplaceAndSize) {
  VectorSpaceIndex index(3, /*bucketed=*/true);
  EXPECT_EQ(index.size(), 0u);
  index.Put("a", {1, 2, 3});
  index.Put("b", {4, 5, 6});
  EXPECT_EQ(index.size(), 2u);
  index.Put("a", {7, 8, 9});  // Replace, not insert.
  EXPECT_EQ(index.size(), 2u);
  EXPECT_TRUE(index.Delete("a"));
  EXPECT_FALSE(index.Delete("a"));  // Idempotent.
  EXPECT_EQ(index.size(), 1u);

  auto snapshot = index.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "b");
  EXPECT_EQ(snapshot[0].second, (std::vector<double>{4, 5, 6}));
}

TEST(VectorSpaceIndexTest, SnapshotIsSortedAndReflectsReplacement) {
  VectorSpaceIndex index(2, true);
  index.Put("z", {1, 1});
  index.Put("a", {2, 2});
  index.Put("m", {3, 3});
  index.Put("z", {4, 4});
  auto snapshot = index.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, "a");
  EXPECT_EQ(snapshot[1].first, "m");
  EXPECT_EQ(snapshot[2].first, "z");
  EXPECT_EQ(snapshot[2].second, (std::vector<double>{4, 4}));
}

/// The core exactness property, fuzzed: for random members (spanning
/// magnitudes, signs, zeros) and random probes/thetas, the bucketed
/// lookup returns exactly the brute-force set, in sorted order.
TEST(VectorSpaceIndexTest, LookupMatchesBruteForce) {
  Rng rng(20240807);
  const size_t dims = 4;
  VectorSpaceIndex index(dims, true);
  std::vector<std::pair<std::string, std::vector<double>>> members;
  for (int i = 0; i < 300; ++i) {
    std::vector<double> v(dims);
    for (auto& x : v) {
      const double magnitude = std::pow(10.0, rng.Uniform(-3, 9));
      x = (rng.Bernoulli(0.2) ? -1 : 1) * magnitude;
      if (rng.Bernoulli(0.05)) x = 0;
    }
    const std::string key = Numbered("m", i);
    index.Put(key, v);
    members.emplace_back(key, v);
  }
  // Normalization bounds as the store would compute them.
  std::vector<double> mins(dims, std::numeric_limits<double>::infinity());
  std::vector<double> maxs(dims, -std::numeric_limits<double>::infinity());
  for (const auto& [key, v] : members) {
    for (size_t d = 0; d < dims; ++d) {
      mins[d] = std::min(mins[d], v[d]);
      maxs[d] = std::max(maxs[d], v[d]);
    }
  }
  const std::vector<double> ranges = EffectiveRanges(mins, maxs);
  for (int q = 0; q < 200; ++q) {
    const auto& probe = members[rng.NextUint64(members.size())].second;
    const double theta = rng.Uniform(0.0, 1.2);
    VectorSpaceIndex::QueryStats stats;
    const auto got = index.Lookup(probe, theta, mins, ranges, &stats);
    const auto want = BruteForce(members, probe, theta, mins, ranges);
    ASSERT_EQ(got, want) << "theta=" << theta;
    EXPECT_EQ(stats.candidates_returned, got.size());
  }
}

TEST(VectorSpaceIndexTest, ScanOnlySpaceMatchesBruteForce) {
  Rng rng(7);
  const size_t dims = 5;
  VectorSpaceIndex index(dims, /*bucketed=*/false);
  std::vector<std::pair<std::string, std::vector<double>>> members;
  std::vector<double> mins(dims, 0.0), maxs(dims, 0.0);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> v(dims);
    for (size_t d = 0; d < dims; ++d) {
      v[d] = rng.Uniform(-50, 50);
      mins[d] = std::min(mins[d], v[d]);
      maxs[d] = std::max(maxs[d], v[d]);
    }
    const std::string key = Numbered("k", i);
    index.Put(key, v);
    members.emplace_back(key, v);
  }
  const std::vector<double> ranges = EffectiveRanges(mins, maxs);
  for (int q = 0; q < 20; ++q) {
    const auto& probe = members[rng.NextUint64(members.size())].second;
    const double theta = rng.Uniform(0.0, 1.0);
    EXPECT_EQ(index.Lookup(probe, theta, mins, ranges),
              BruteForce(members, probe, theta, mins, ranges));
  }
}

TEST(VectorSpaceIndexTest, NanMembersNeverMatch) {
  VectorSpaceIndex index(2, true);
  index.Put("good", {1.0, 2.0});
  index.Put("nan", {std::numeric_limits<double>::quiet_NaN(), 2.0});
  const std::vector<double> mins{0.0, 0.0};
  const std::vector<double> ranges{1.0, 1.0};
  // NaN distances fail every <= comparison, exactly as in the exhaustive
  // filter; a huge theta still cannot admit the NaN member.
  const auto got = index.Lookup({1.0, 2.0}, 100.0, mins, ranges);
  EXPECT_EQ(got, std::vector<std::string>{"good"});
}

TEST(MatchIndexTest, WrongLengthVectorDropsOnlyThatSpace) {
  MatchIndex index;
  index.Put("j", {1, 2, 3, 4}, {1, 2, 3, 4, 5}, {1, 2}, {1, 2, 3, 4});
  EXPECT_EQ(index.size(MatchIndex::kMap), 1u);
  EXPECT_EQ(index.size(MatchIndex::kReduce), 1u);
  // Malformed reduce-dynamic vector: the key leaves that space only.
  index.Put("j", {1, 2, 3, 4}, {1, 2, 3, 4, 5}, {1, 2, 3}, {1, 2, 3, 4});
  EXPECT_EQ(index.size(MatchIndex::kMap), 1u);
  EXPECT_EQ(index.size(MatchIndex::kReduce), 0u);
  EXPECT_EQ(index.cost_space(MatchIndex::kReduce).size(), 1u);
}

/// Store-level equivalence: EuclideanCandidates must return the region
/// scans' exact key lists on a synthetic corpus, across sides, spaces,
/// and thetas — including after deletes.
class MatchIndexStoreTest : public ::testing::Test {
 protected:
  void LoadCorpus(size_t n) {
    ProfileStoreOptions options;
    options.eager_flush = false;
    auto store = ProfileStore::Open(&env_, "/index-store", options);
    PSTORM_CHECK_OK(store.status());
    store_ = std::move(store).value();
    tools::SyntheticCorpusOptions corpus_options;
    corpus_options.num_profiles = n;
    corpus_ = std::make_unique<tools::SyntheticCorpus>(corpus_options);
    PSTORM_CHECK_OK(corpus_->LoadInto(store_.get(), 0));
  }

  void ExpectScanEquivalence(size_t probes) {
    for (size_t i = 0; i < probes; ++i) {
      const auto probe = corpus_->MakeProbe(i * 37 % corpus_->size());
      for (Side side : {Side::kMap, Side::kReduce}) {
        const auto& side_profile = side == Side::kMap
                                       ? probe.profile.map_side.DynamicVector()
                                       : probe.profile.reduce_side
                                             .DynamicVector();
        const double theta =
            0.5 * std::sqrt(static_cast<double>(side_profile.size())) *
            (0.2 + 0.3 * (i % 5));
        auto exhaustive =
            store_->DynamicEuclideanScan(side, side_profile, theta);
        ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
        EXPECT_EQ(store_->EuclideanCandidates(side, Space::kDynamic,
                                              side_profile, theta),
                  *exhaustive)
            << "side " << static_cast<int>(side);

        const auto& costs = side == Side::kMap
                                ? probe.profile.map_side.CostVector()
                                : probe.profile.reduce_side.CostVector();
        auto cost_exhaustive = store_->CostEuclideanScan(side, costs, theta);
        ASSERT_TRUE(cost_exhaustive.ok()) << cost_exhaustive.status();
        EXPECT_EQ(store_->EuclideanCandidates(side, Space::kCost, costs, theta),
                  *cost_exhaustive);
      }
    }
  }

  storage::InMemoryEnv env_;
  std::unique_ptr<tools::SyntheticCorpus> corpus_;
  std::unique_ptr<ProfileStore> store_;
};

TEST_F(MatchIndexStoreTest, IndexedScansEqualExhaustiveScans) {
  LoadCorpus(400);
  EXPECT_EQ(store_->match_index_size(Side::kMap), 400u);
  ExpectScanEquivalence(25);
}

TEST_F(MatchIndexStoreTest, EquivalenceSurvivesDeletesAndReplacements) {
  LoadCorpus(200);
  for (size_t i = 0; i < 200; i += 3) {
    PSTORM_CHECK_OK(store_->DeleteProfile(corpus_->Make(i).job_key));
  }
  for (size_t i = 0; i < 200; i += 5) {
    const auto p = corpus_->MakeProbe(i, /*salt=*/9);
    PSTORM_CHECK_OK(
        store_->PutProfile(corpus_->Make(i).job_key, p.profile, p.statics));
  }
  ExpectScanEquivalence(25);
}

/// Incremental maintenance must leave the index exactly as a fresh
/// rebuild would (the contract the crash tests stress under faults).
TEST_F(MatchIndexStoreTest, IncrementalIndexEqualsRebuiltIndex) {
  LoadCorpus(150);
  for (size_t i = 0; i < 150; i += 4) {
    PSTORM_CHECK_OK(store_->DeleteProfile(corpus_->Make(i).job_key));
  }
  const auto incremental_map = store_->MatchIndexDynamicSnapshot(Side::kMap);
  const auto incremental_reduce =
      store_->MatchIndexDynamicSnapshot(Side::kReduce);
  const auto incremental_cost = store_->MatchIndexCostSnapshot(Side::kMap);
  PSTORM_CHECK_OK(store_->RebuildMatchIndex());
  EXPECT_EQ(store_->MatchIndexDynamicSnapshot(Side::kMap), incremental_map);
  EXPECT_EQ(store_->MatchIndexDynamicSnapshot(Side::kReduce),
            incremental_reduce);
  EXPECT_EQ(store_->MatchIndexCostSnapshot(Side::kMap), incremental_cost);
}

}  // namespace
}  // namespace pstorm::core
