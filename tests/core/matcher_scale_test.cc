// Scale-tier tests (ctest label "scale"): index-vs-region-scan equivalence
// and candidate-enumeration pruning on a large synthetic corpus.
//
// The corpus size comes from PSTORM_SCALE_PROFILES (default small so the
// tier-1 run stays fast; the scale CI job sets 100000). When
// PSTORM_CORPUS_FILE names a pre-generated on-disk store (the cached
// output of pstorm_corpus_gen, same seed), it is opened instead of
// loading a fresh in-memory store.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "core/profile_store.h"
#include "storage/env.h"
#include "tools/synthetic_corpus.h"

namespace pstorm::core {
namespace {

size_t ScaleProfiles() {
  const char* env = std::getenv("PSTORM_SCALE_PROFILES");
  if (env == nullptr) return 2000;
  const size_t n = std::strtoull(env, nullptr, 10);
  return n == 0 ? 2000 : n;
}

class MatcherScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tools::SyntheticCorpusOptions corpus_options;
    corpus_options.num_profiles = ScaleProfiles();
    corpus_ = std::make_unique<tools::SyntheticCorpus>(corpus_options);

    ProfileStoreOptions options;
    options.eager_flush = false;
    const char* corpus_file = std::getenv("PSTORM_CORPUS_FILE");
    if (corpus_file != nullptr && corpus_file[0] != '\0') {
      posix_env_ = std::make_unique<storage::PosixEnv>();
      auto store = ProfileStore::Open(posix_env_.get(), corpus_file, options);
      ASSERT_TRUE(store.ok()) << store.status();
      store_ = std::move(store).value();
      ASSERT_GE(store_->num_profiles(), corpus_->size())
          << "PSTORM_CORPUS_FILE store is smaller than "
             "PSTORM_SCALE_PROFILES; regenerate with pstorm_corpus_gen";
    } else {
      mem_env_ = std::make_unique<storage::InMemoryEnv>();
      auto store = ProfileStore::Open(mem_env_.get(), "/scale", options);
      ASSERT_TRUE(store.ok()) << store.status();
      store_ = std::move(store).value();
      ASSERT_TRUE(corpus_->LoadInto(store_.get(), 0).ok());
    }
  }

  std::unique_ptr<tools::SyntheticCorpus> corpus_;
  std::unique_ptr<storage::InMemoryEnv> mem_env_;
  std::unique_ptr<storage::PosixEnv> posix_env_;
  std::unique_ptr<ProfileStore> store_;
};

/// The acceptance property at scale: for a spread of probes and thetas,
/// the indexed stage-1 filter returns the region scan's exact key list
/// (which implies the funnel's best match is identical — every later
/// stage is a deterministic function of the candidate list).
TEST_F(MatcherScaleTest, IndexedScanEqualsExhaustiveScanAtScale) {
  const size_t n = corpus_->size();
  for (size_t q = 0; q < 20; ++q) {
    const auto probe = corpus_->MakeProbe((q * 211) % n);
    for (Side side : {Side::kMap, Side::kReduce}) {
      const auto& dynamic = side == Side::kMap
                                ? probe.profile.map_side.DynamicVector()
                                : probe.profile.reduce_side.DynamicVector();
      const double theta =
          0.5 * std::sqrt(static_cast<double>(dynamic.size())) *
          (0.1 + 0.25 * (q % 4));
      auto exhaustive = store_->DynamicEuclideanScan(side, dynamic, theta);
      ASSERT_TRUE(exhaustive.ok()) << exhaustive.status();
      ASSERT_EQ(store_->EuclideanCandidates(side, Space::kDynamic, dynamic,
                                            theta),
                *exhaustive)
          << "probe " << q << " side " << static_cast<int>(side);
    }
  }
}

/// Both Euclidean filters the funnel runs, at the thesis-default θ and on
/// the probes the matcher would send: stage 1 over the dynamic features
/// and the alternative filter over the cost factors, on both sides, must
/// return the region scans' exact key lists. At this radius the answer is
/// most of the store, the regime the selective sweep above leaves out.
TEST_F(MatcherScaleTest, EuclideanCandidatesEqualRegionScansAtDefaultTheta) {
  const size_t n = corpus_->size();
  const size_t probes = std::min<size_t>(8, n);
  for (size_t q = 0; q < probes; ++q) {
    const auto probe_profile = corpus_->MakeProbe((q * 997) % n);
    const JobFeatureVector probe =
        BuildFeatureVector(probe_profile.profile, probe_profile.statics);
    for (Side side : {Side::kMap, Side::kReduce}) {
      const bool map = side == Side::kMap;
      const auto& dynamic = map ? probe.map_dynamic : probe.reduce_dynamic;
      const auto& costs = map ? probe.map_costs : probe.reduce_costs;
      const double dynamic_theta =
          0.5 * std::sqrt(static_cast<double>(dynamic.size()));
      const double cost_theta =
          0.5 * std::sqrt(static_cast<double>(costs.size()));
      auto dynamic_scan =
          store_->DynamicEuclideanScan(side, dynamic, dynamic_theta);
      auto cost_scan = store_->CostEuclideanScan(side, costs, cost_theta);
      ASSERT_TRUE(dynamic_scan.ok()) << dynamic_scan.status();
      ASSERT_TRUE(cost_scan.ok()) << cost_scan.status();
      EXPECT_EQ(store_->EuclideanCandidates(side, Space::kDynamic, dynamic,
                                            dynamic_theta),
                *dynamic_scan)
          << "probe " << q << " side " << static_cast<int>(side);
      EXPECT_EQ(store_->EuclideanCandidates(side, Space::kCost, costs,
                                            cost_theta),
                *cost_scan)
          << "probe " << q << " side " << static_cast<int>(side);
    }
  }
}

/// The sublinearity claim, asserted structurally: the cell grid must
/// prune the candidate enumeration to a small fraction of the store for
/// a typical stage-1 probe (the wall-clock claim lives in
/// BM_MatcherFunnelAtScale; this guards the mechanism in CI).
TEST_F(MatcherScaleTest, IndexPrunesCandidateEnumeration) {
  const size_t n = corpus_->size();
  // A selective probe: 10% of the thesis-default radius, the tight end of
  // the equivalence sweep above. (At the full default radius the true
  // answer on this clustered corpus is most of the store — nothing can
  // prune a scan whose result set IS the store; the equivalence test
  // covers that regime.)
  const double theta = 0.5 * std::sqrt(4.0) * 0.1;
  uint64_t enumerated = 0, returned = 0;
  const size_t probes = 10;
  for (size_t q = 0; q < probes; ++q) {
    const auto probe = corpus_->MakeProbe((q * 131) % n);
    VectorSpaceIndex::QueryStats stats;
    store_->EuclideanCandidates(Side::kMap, Space::kDynamic,
                                probe.profile.map_side.DynamicVector(), theta,
                                &stats);
    enumerated += stats.candidates_enumerated;
    returned += stats.candidates_returned;
  }
  const double avg_enumerated =
      static_cast<double>(enumerated) / static_cast<double>(probes);
  // The exhaustive scan enumerates n rows per probe; demand a 10x cut on
  // average. The clustered corpus concentrates candidates in few cells,
  // so this holds with wide margin at every scale the tier runs.
  EXPECT_LE(avg_enumerated, static_cast<double>(n) / 10.0)
      << "avg enumerated " << avg_enumerated << " of " << n << " profiles ("
      << returned << " returned)";
}

}  // namespace
}  // namespace pstorm::core
