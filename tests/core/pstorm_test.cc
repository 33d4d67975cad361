#include "core/pstorm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/evaluator.h"
#include "jobs/datasets.h"
#include "rpc/wire.h"

namespace pstorm::core {
namespace {

class PStormFacadeTest : public ::testing::Test {
 protected:
  PStormFacadeTest() : sim_(mrsim::ThesisCluster()) {
    PStormOptions options;
    options.cbo.global_samples = 150;  // Keep tests quick.
    options.cbo.local_samples = 50;
    auto system = PStorM::Create(&sim_, &env_, "/pstorm", options);
    PSTORM_CHECK_OK(system.status());
    system_ = std::move(system).value();
  }

  mrsim::DataSetSpec DataSet(const char* name) {
    auto d = jobs::FindDataSet(name);
    EXPECT_TRUE(d.ok());
    return d.value();
  }

  storage::InMemoryEnv env_;
  mrsim::Simulator sim_;
  std::unique_ptr<PStorM> system_;
};

TEST_F(PStormFacadeTest, FirstSubmissionProfilesAndStores) {
  auto outcome = system_->SubmitJob(jobs::WordCount(),
                                    DataSet(jobs::kRandomText1Gb),
                                    mrsim::Configuration{}, 1);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->matched);
  EXPECT_TRUE(outcome->stored_new_profile);
  EXPECT_EQ(system_->store().num_profiles(), 1u);
  EXPECT_GT(outcome->runtime_s, 0);
  EXPECT_GT(outcome->sample_runtime_s, 0);
  EXPECT_LT(outcome->sample_runtime_s, outcome->runtime_s);
}

TEST_F(PStormFacadeTest, SecondSubmissionMatchesAndTunes) {
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto first = system_->SubmitJob(jobs::WordCooccurrencePairs(2), data,
                                  mrsim::Configuration{}, 2);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->matched);

  auto second = system_->SubmitJob(jobs::WordCooccurrencePairs(2), data,
                                   mrsim::Configuration{}, 3);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->matched);
  EXPECT_FALSE(second->stored_new_profile);
  EXPECT_EQ(second->profile_source,
            "word-cooccurrence-pairs-w2@random-text-1gb");
  // Tuning pays off: the second (tuned) run beats the first (default,
  // profiled) run decisively for this shuffle-heavy job.
  EXPECT_LT(second->runtime_s, first->runtime_s * 0.6);
}

TEST_F(PStormFacadeTest, UnseenJobReusesSimilarProfile) {
  const auto data = DataSet(jobs::kWikipedia35Gb);
  // Seed the store with the bigram job only.
  auto seeding = system_->SubmitJob(jobs::BigramRelativeFrequency(), data,
                                    mrsim::Configuration{}, 4);
  ASSERT_TRUE(seeding.ok());
  ASSERT_TRUE(seeding->stored_new_profile);

  // The co-occurrence pairs job has never run, yet gets tuned via the
  // bigram profile (the Figure 1.3 story).
  auto outcome = system_->SubmitJob(jobs::WordCooccurrencePairs(2), data,
                                    mrsim::Configuration{}, 5);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_TRUE(outcome->matched);
  EXPECT_NE(outcome->profile_source.find("bigram-relative-frequency"),
            std::string::npos);

  // And the tuned run is much faster than the default would have been.
  auto default_run = sim_.RunJob(jobs::WordCooccurrencePairs(2).spec, data,
                                 mrsim::Configuration{});
  ASSERT_TRUE(default_run.ok());
  EXPECT_GT(default_run->runtime_s / outcome->runtime_s, 3.0);
}

TEST_F(PStormFacadeTest, RecurringSubmissionSkipsTheSearch) {
  const auto data = DataSet(jobs::kRandomText1Gb);
  ASSERT_TRUE(system_->SubmitJob(jobs::WordCount(), data,
                                 mrsim::Configuration{}, 21)
                  .ok());
  obs::SubmissionTrace searched, reused;
  auto first = system_->SubmitJob(jobs::WordCount(), data,
                                  mrsim::Configuration{}, 22, &searched);
  auto second = system_->SubmitJob(jobs::WordCount(), data,
                                   mrsim::Configuration{}, 23, &reused);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE(first->matched && second->matched);
  EXPECT_FALSE(searched.cbo.memo_hit);
  EXPECT_GT(searched.cbo.candidates_evaluated, 0u);
  EXPECT_TRUE(reused.cbo.memo_hit);
  EXPECT_EQ(reused.cbo.candidates_evaluated, 0u);
  EXPECT_NE(reused.ToString().find("cbo: memo_hit"), std::string::npos);
  EXPECT_TRUE(second->config_used == first->config_used);
  EXPECT_EQ(second->predicted_runtime_s, first->predicted_runtime_s);
  EXPECT_EQ(system_->recommendation_memo_size(), 1u);
}

TEST(CorpusTest, BuildsAllWorkloadEntriesAndFindsTwins) {
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  auto corpus = BuildEvaluationCorpus(sim, mrsim::Configuration{}, 7);
  ASSERT_TRUE(corpus.ok()) << corpus.status();
  EXPECT_EQ(corpus->items.size(), 54u);

  int without_twin = 0;
  for (size_t i = 0; i < corpus->items.size(); ++i) {
    const int twin = corpus->TwinOf(i);
    if (twin < 0) {
      ++without_twin;
    } else {
      EXPECT_EQ(corpus->items[twin].entry.job.spec.name,
                corpus->items[i].entry.job.spec.name);
      EXPECT_NE(corpus->items[twin].entry.data_set,
                corpus->items[i].entry.data_set);
    }
  }
  // Stripes + the 3 FIM chain jobs ran on a single data set: exactly the
  // "four profiles whose twins are not stored" of §6.1.1.
  EXPECT_EQ(without_twin, 4);
}

TEST(EvaluatorTest, PStormAccuracyIsHighInBothStates) {
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  auto corpus = BuildEvaluationCorpus(sim, mrsim::Configuration{}, 8);
  ASSERT_TRUE(corpus.ok());
  storage::InMemoryEnv env;
  MatcherEvaluator evaluator(&env, std::move(corpus).value());

  auto sd = evaluator.EvaluatePStorM(StoreState::kSameData);
  ASSERT_TRUE(sd.ok()) << sd.status();
  EXPECT_GE(sd->map_accuracy(), 0.95)
      << sd->map_correct << "/" << sd->total;
  EXPECT_GE(sd->reduce_accuracy(), 0.90)
      << sd->reduce_correct << "/" << sd->total;

  auto dd = evaluator.EvaluatePStorM(StoreState::kDifferentData);
  ASSERT_TRUE(dd.ok());
  // Four submissions have no twin, so perfection is impossible; the
  // thesis reports 5 map-side and 7 reduce-side errors out of ~54.
  EXPECT_GE(dd->map_accuracy(), 0.80);
  EXPECT_GE(dd->reduce_accuracy(), 0.75);
  EXPECT_LT(dd->map_accuracy(), 1.0);
}

TEST(EvaluatorTest, BaselinesUnderperformPStorM) {
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  auto corpus = BuildEvaluationCorpus(sim, mrsim::Configuration{}, 9);
  ASSERT_TRUE(corpus.ok());
  storage::InMemoryEnv env;
  MatcherEvaluator evaluator(&env, std::move(corpus).value());

  auto pstorm = evaluator.EvaluatePStorM(StoreState::kSameData);
  auto p_features =
      evaluator.EvaluateBaseline(StoreState::kSameData,
                                 BaselineFeatures::kProfileOnly);
  ASSERT_TRUE(pstorm.ok());
  ASSERT_TRUE(p_features.ok());
  // Figure 6.1: the naive information-gain selection misses for over a
  // third of submissions even in the SD state.
  EXPECT_GT(pstorm->map_accuracy(), p_features->map_accuracy());
  EXPECT_LT(p_features->map_accuracy(), 0.8)
      << p_features->map_correct << "/" << p_features->total;
}

TEST_F(PStormFacadeTest, StoreCorruptionDegradesToNoMatchFound) {
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto first = system_->SubmitJob(jobs::WordCount(), data,
                                  mrsim::Configuration{}, 11);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->stored_new_profile);
  // Move the stored profile from the WAL into sstables, then rot every
  // sstable under the store.
  ASSERT_TRUE(system_->store().Flush().ok());
  size_t corrupted = 0;
  for (int r = 0; r < 8; ++r) {
    const std::string dir = "/pstorm/region_" + std::to_string(r);
    auto files = env_.ListDir(dir);
    if (!files.ok()) continue;
    for (const std::string& name : files.value()) {
      if (name.size() < 4 || name.compare(name.size() - 4, 4, ".sst") != 0) {
        continue;
      }
      const std::string path = dir + "/" + name;
      std::string contents = env_.ReadFile(path).value();
      ASSERT_FALSE(contents.empty());
      contents[0] = static_cast<char>(contents[0] ^ 0xff);
      ASSERT_TRUE(env_.WriteFile(path, contents).ok());
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0u);

  // A fresh PStorM over the damaged files: the open quarantines the bad
  // tables and the submission degrades to the paper's cold path (run
  // untuned, re-profile, re-store) instead of erroring.
  PStormOptions options;
  options.cbo.global_samples = 150;
  options.cbo.local_samples = 50;
  auto reopened = PStorM::Create(&sim_, &env_, "/pstorm", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GE((*reopened)->store().StorageStats().quarantined_files, 1u);
  EXPECT_EQ((*reopened)->store().num_profiles(), 0u);

  auto outcome = (*reopened)->SubmitJob(jobs::WordCount(), data,
                                        mrsim::Configuration{}, 12);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->matched);
  EXPECT_TRUE(outcome->stored_new_profile);
  EXPECT_EQ((*reopened)->store().num_profiles(), 1u);
}

// ---- Recommendation memo

/// An outcome in wire form, the bytes pstorm_server would send: every
/// runtime to the bit, the configuration, the profile source and flags.
std::string Wire(const PStorM::SubmissionOutcome& outcome) {
  rpc::SubmitJobResponse response;
  response.matched = outcome.matched;
  response.composite = outcome.composite;
  response.stored_new_profile = outcome.stored_new_profile;
  response.profile_source = outcome.profile_source;
  response.config_used = outcome.config_used;
  response.runtime_s = outcome.runtime_s;
  response.sample_runtime_s = outcome.sample_runtime_s;
  response.predicted_runtime_s = outcome.predicted_runtime_s;
  return rpc::EncodeSubmitJobResponse(response);
}

/// The keys a matched outcome's profile came from, map side first; the
/// same key twice when the profile is not composite.
std::pair<std::string, std::string> Sources(
    const PStorM::SubmissionOutcome& outcome) {
  const size_t plus = outcome.profile_source.find('+');
  if (plus == std::string::npos) {
    return {outcome.profile_source, outcome.profile_source};
  }
  return {outcome.profile_source.substr(0, plus),
          outcome.profile_source.substr(plus + 1)};
}

/// Recurring submissions against a store built as perfbench builds its
/// own: every Table 6.1 pair submitted cold, serially, into an empty
/// store, where a pair that matches an earlier one stores nothing.
class RecommendationMemoTest : public ::testing::Test {
 protected:
  RecommendationMemoTest()
      : sim_(mrsim::ThesisCluster()), workload_(jobs::Table61Workload()) {
    for (const jobs::WorkloadEntry& entry : workload_) {
      data_.push_back(jobs::FindDataSet(entry.data_set).value());
    }
    system_ = NewSystem(&env_);
    for (size_t i = 0; i < workload_.size(); ++i) {
      PSTORM_CHECK_OK(Submit(*system_, i, data_[i], 1 + i).status());
    }
  }

  static PStormOptions Options() {
    PStormOptions options;
    options.cbo.global_samples = 150;  // Keep tests quick.
    options.cbo.local_samples = 50;
    // Fresh instances load copies with AddProfile; one flush per put
    // would only slow them down.
    options.store.eager_flush = false;
    return options;
  }

  std::unique_ptr<PStorM> NewSystem(storage::Env* env) {
    auto system = PStorM::Create(&sim_, env, "/memo", Options());
    PSTORM_CHECK_OK(system.status());
    return std::move(system).value();
  }

  Result<PStorM::SubmissionOutcome> Submit(
      const PStorM& system, size_t pair, const mrsim::DataSetSpec& data,
      uint64_t seed, obs::SubmissionTrace* trace = nullptr) const {
    return system.SubmitJob(workload_[pair].job, data, mrsim::Configuration{},
                            seed, trace);
  }

  /// Submits through the memo and reports whether it hit.
  std::string SubmitWire(size_t pair, const mrsim::DataSetSpec& data,
                         uint64_t seed, bool* memo_hit) const {
    obs::SubmissionTrace trace;
    auto outcome = Submit(*system_, pair, data, seed, &trace);
    PSTORM_CHECK_OK(outcome.status());
    EXPECT_TRUE(outcome->matched) << Name(pair) << " seed " << seed;
    *memo_hit = trace.cbo.memo_hit;
    return Wire(*outcome);
  }

  /// A fresh instance, its memo empty, over a copy of the store in `env`.
  std::unique_ptr<PStorM> FreshCopy(storage::Env* env) {
    auto fresh = NewSystem(env);
    const std::vector<std::string> keys =
        system_->store().ListJobKeys().value();
    for (const std::string& key : keys) {
      const StoredEntry entry = system_->store().GetEntry(key).value();
      PSTORM_CHECK_OK(fresh->AddProfile(key, entry.profile, entry.statics));
    }
    return fresh;
  }

  /// What a fresh instance answers: the search the memo must reproduce.
  std::string FreshWire(size_t pair, const mrsim::DataSetSpec& data,
                        uint64_t seed) {
    storage::InMemoryEnv env;
    auto fresh = FreshCopy(&env);
    obs::SubmissionTrace trace;
    auto outcome = Submit(*fresh, pair, data, seed, &trace);
    PSTORM_CHECK_OK(outcome.status());
    EXPECT_FALSE(trace.cbo.memo_hit);
    return Wire(*outcome);
  }

  std::string Name(size_t pair) const {
    return workload_[pair].job.spec.name + "@" + workload_[pair].data_set;
  }

  /// Re-puts `key` with its cost factors scaled by `factor`: the match
  /// is unchanged, the search's answer is not.
  void RePutScaled(const std::string& key, double factor) {
    StoredEntry entry = system_->store().GetEntry(key).value();
    entry.profile.map_side.map_cpu_cost *= factor;
    entry.profile.reduce_side.reduce_cpu_cost *= factor;
    ASSERT_TRUE(system_->AddProfile(key, entry.profile, entry.statics).ok());
  }

  storage::InMemoryEnv env_;
  mrsim::Simulator sim_;
  std::vector<jobs::WorkloadEntry> workload_;
  std::vector<mrsim::DataSetSpec> data_;
  std::unique_ptr<PStorM> system_;
};

TEST_F(RecommendationMemoTest, HitEqualsAFreshSearchForEveryTable61Pair) {
  const size_t profiles = system_->store().num_profiles();
  for (const uint64_t seed : {101, 102, 103}) {
    for (size_t i = 0; i < workload_.size(); ++i) {
      // The second submission of one (pair, seed) matches the same two
      // entries with the same data set, so it must hit.
      bool first_hit = false, second_hit = false;
      const std::string first = SubmitWire(i, data_[i], seed, &first_hit);
      const std::string second = SubmitWire(i, data_[i], seed, &second_hit);
      EXPECT_TRUE(second_hit) << Name(i) << " seed " << seed;
      EXPECT_EQ(second, first) << Name(i) << " seed " << seed;
      EXPECT_EQ(second, FreshWire(i, data_[i], seed))
          << Name(i) << " seed " << seed;
    }
  }
  // Matched submissions store nothing, so the store never changed.
  EXPECT_EQ(system_->store().num_profiles(), profiles);
}

TEST_F(RecommendationMemoTest, RePutOrDeleteOfAMatchedKeyMisses) {
  // A composite match, so that the map and the reduce key differ.
  size_t pair = workload_.size();
  PStorM::SubmissionOutcome matched;
  for (size_t i = 0; i < workload_.size() && pair == workload_.size(); ++i) {
    matched = Submit(*system_, i, data_[i], 200).value();
    if (matched.composite) pair = i;
  }
  ASSERT_LT(pair, workload_.size()) << "no composite match in Table 6.1";
  const auto [map_key, reduce_key] = Sources(matched);
  const mrsim::DataSetSpec& data = data_[pair];

  bool hit = false;
  std::string before = SubmitWire(pair, data, 200, &hit);
  ASSERT_TRUE(hit);
  struct Change {
    const char* what;
    bool changes_profile;
    std::function<void()> apply;
  };
  const std::vector<Change> changes = {
      {"re-put of the map key, changed", true,
       [&] { RePutScaled(map_key, 1.5); }},
      {"re-put of the reduce key, changed", true,
       [&] { RePutScaled(reduce_key, 1.5); }},
      {"re-put of the map key, identical", false,
       [&] { RePutScaled(map_key, 1.0); }},
      {"delete and re-put of the reduce key", false, [&] {
         const StoredEntry entry =
             system_->store().GetEntry(reduce_key).value();
         ASSERT_TRUE(system_->store().DeleteProfile(reduce_key).ok());
         ASSERT_TRUE(
             system_->AddProfile(reduce_key, entry.profile, entry.statics)
                 .ok());
       }}};
  for (const Change& change : changes) {
    change.apply();
    const std::string after = SubmitWire(pair, data, 200, &hit);
    EXPECT_FALSE(hit) << change.what;
    EXPECT_EQ(after, FreshWire(pair, data, 200)) << change.what;
    // The match itself is unchanged; only the search's answer may move.
    EXPECT_EQ(Submit(*system_, pair, data, 200)->profile_source,
              matched.profile_source)
        << change.what;
    EXPECT_EQ(after != before, change.changes_profile) << change.what;
    EXPECT_EQ(SubmitWire(pair, data, 200, &hit), after) << change.what;
    EXPECT_TRUE(hit) << change.what;
    before = after;
  }
}

TEST_F(RecommendationMemoTest, EachEntryPairAndDataSetFieldIsItsOwnKey) {
  // One round over every pair on a fresh instance: the memo then holds
  // one record per distinct (map entry, reduce entry, data set), so a
  // composite match and a plain match sharing an entry must not share a
  // record.
  storage::InMemoryEnv env;
  const auto fresh = FreshCopy(&env);
  std::set<std::tuple<std::string, std::string, std::string>> triples;
  std::set<std::string> composite_entries, plain_entries;
  for (size_t i = 0; i < workload_.size(); ++i) {
    const auto outcome = Submit(*fresh, i, data_[i], 300).value();
    ASSERT_TRUE(outcome.matched) << Name(i);
    const auto [map_key, reduce_key] = Sources(outcome);
    triples.emplace(map_key, reduce_key, data_[i].name);
    auto& entries = outcome.composite ? composite_entries : plain_entries;
    entries.insert(map_key + "@" + data_[i].name);
    entries.insert(reduce_key + "@" + data_[i].name);
  }
  EXPECT_EQ(fresh->recommendation_memo_size(), triples.size());
  bool shared = false;
  for (const std::string& entry : composite_entries) {
    shared = shared || plain_entries.count(entry) > 0;
  }
  EXPECT_TRUE(shared) << "no composite match shares an entry and a data set "
                         "with a plain one";

  // Any one DataSetSpec field changed, doubles by a single bit, is a new
  // key: its first submission misses and answers as a fresh search.
  const size_t pair = 0;
  const mrsim::DataSetSpec base = data_[pair];
  std::vector<std::pair<std::string, mrsim::DataSetSpec>> variants;
  auto variant = [&](const char* what) -> mrsim::DataSetSpec& {
    return variants.emplace_back(what, base).second;
  };
  auto up = [](double x) { return std::nextafter(x, 2 * x + 1); };
  variant("name").name += "'";
  ++variant("size_bytes").size_bytes;
  variant("avg_record_bytes").avg_record_bytes = up(base.avg_record_bytes);
  ++variant("split_bytes").split_bytes;
  variant("compress_ratio").compress_ratio =
      std::nextafter(base.compress_ratio, 0.0);
  variant("vocabulary_mb").vocabulary_mb = up(base.vocabulary_mb);
  variant("vocabulary_mb +0.0").vocabulary_mb = 0.0;
  variant("vocabulary_mb -0.0").vocabulary_mb = -0.0;
  bool hit = false;
  SubmitWire(pair, base, 400, &hit);
  for (const auto& [what, data] : variants) {
    const std::string miss = SubmitWire(pair, data, 400, &hit);
    EXPECT_FALSE(hit) << what;
    EXPECT_EQ(miss, FreshWire(pair, data, 400)) << what;
    EXPECT_EQ(SubmitWire(pair, data, 400, &hit), miss) << what;
    EXPECT_TRUE(hit) << what;
  }
}

TEST_F(RecommendationMemoTest, FullMemoDropsExpiredRecordsElseClears) {
  storage::InMemoryEnv env;
  const auto fresh = FreshCopy(&env);
  const size_t capacity = PStorM::kRecommendationMemoCapacity;
  // Pair 0 with split_bytes one byte larger each time: a new key per
  // submission, with the same split count and the same match.
  const size_t pair = 0;
  mrsim::DataSetSpec data = data_[pair];
  auto submit_new_key = [&] {
    ++data.split_bytes;
    obs::SubmissionTrace trace;
    const auto outcome = Submit(*fresh, pair, data, 500, &trace).value();
    EXPECT_FALSE(trace.cbo.memo_hit);
    EXPECT_LE(fresh->recommendation_memo_size(), capacity);
    return outcome;
  };
  const auto [map_key, reduce_key] = Sources(submit_new_key());
  // Another pair matched from other entries, whose record stays live.
  auto disjoint = [&](const std::pair<std::string, std::string>& sources) {
    for (const std::string& key : {sources.first, sources.second}) {
      if (key == map_key || key == reduce_key) return false;
    }
    return true;
  };
  size_t other = 1;
  while (other < workload_.size() &&
         !disjoint(Sources(Submit(*fresh, other, data_[other], 500).value()))) {
    ++other;
  }
  ASSERT_LT(other, workload_.size());
  size_t size = fresh->recommendation_memo_size();
  ASSERT_GE(size, 2u);

  // Full of live records: the next insert clears the memo.
  while (size < capacity) {
    submit_new_key();
    ASSERT_EQ(fresh->recommendation_memo_size(), ++size);
  }
  submit_new_key();
  EXPECT_EQ(fresh->recommendation_memo_size(), 1u);

  // Full again, with every record but the other pair's on pair 0's
  // entries. Replacing those entries expires their records, so the next
  // insert drops them and keeps the other pair's record.
  ASSERT_TRUE(Submit(*fresh, other, data_[other], 500).ok());
  size = fresh->recommendation_memo_size();
  ASSERT_EQ(size, 2u);
  while (size < capacity) {
    submit_new_key();
    ASSERT_EQ(fresh->recommendation_memo_size(), ++size);
  }
  for (const std::string& key : std::set<std::string>{map_key, reduce_key}) {
    const StoredEntry entry = fresh->store().GetEntry(key).value();
    ASSERT_TRUE(fresh->AddProfile(key, entry.profile, entry.statics).ok());
  }
  submit_new_key();
  EXPECT_EQ(fresh->recommendation_memo_size(), 2u);
  obs::SubmissionTrace trace;
  ASSERT_TRUE(Submit(*fresh, other, data_[other], 500, &trace).ok());
  EXPECT_TRUE(trace.cbo.memo_hit);
}

}  // namespace
}  // namespace pstorm::core
