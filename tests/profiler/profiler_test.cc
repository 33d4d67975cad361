#include "profiler/profiler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"

namespace pstorm::profiler {
namespace {

class ProfilerTest : public ::testing::Test {
 protected:
  ProfilerTest() : sim_(mrsim::ThesisCluster()), profiler_(&sim_) {}

  static mrsim::Configuration TunedConfig() {
    mrsim::Configuration c;
    c.num_reduce_tasks = 8;
    c.use_combiner = true;
    return c;
  }

  mrsim::DataSetSpec DataSet(const char* name) {
    auto d = jobs::FindDataSet(name);
    EXPECT_TRUE(d.ok());
    return d.value();
  }

  mrsim::Simulator sim_;
  Profiler profiler_;
};

TEST_F(ProfilerTest, FullProfileMatchesJobTruth) {
  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled = profiler_.ProfileFullRun(wc.spec, data, TunedConfig(), 1);
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  const ExecutionProfile& p = profiled->profile;

  EXPECT_EQ(p.job_name, "word-count");
  EXPECT_EQ(p.data_set, jobs::kRandomText1Gb);
  EXPECT_FALSE(p.is_sample);
  EXPECT_EQ(p.map_side.num_tasks, 16);
  // Measured selectivities reproduce the hidden truth up to the ~1%
  // split-content jitter.
  EXPECT_NEAR(p.map_side.size_selectivity, wc.spec.map.size_selectivity,
              wc.spec.map.size_selectivity * 0.02);
  EXPECT_NEAR(p.map_side.pairs_selectivity, wc.spec.map.pairs_selectivity,
              wc.spec.map.pairs_selectivity * 0.02);
  EXPECT_NEAR(p.reduce_side.size_selectivity,
              wc.spec.reduce.size_selectivity,
              wc.spec.reduce.size_selectivity * 0.02);
  // Combine ran: selectivity below 1.
  EXPECT_LT(p.map_side.combine_pairs_selectivity, 1.0);
  EXPECT_GT(p.map_side.combine_pairs_selectivity, 0.0);
  // Cost factors land near the cluster baselines (noise is bounded).
  EXPECT_NEAR(p.map_side.read_hdfs_io_cost, 15.0, 4.0);
  EXPECT_NEAR(p.map_side.map_cpu_cost, wc.spec.map.cpu_ns_per_record,
              wc.spec.map.cpu_ns_per_record * 0.25);
}

TEST_F(ProfilerTest, NoCombinerMeansSelectivityOne) {
  const jobs::BenchmarkJob sort = jobs::Sort();
  const auto data = DataSet(jobs::kTeraGen1Gb);
  auto profiled = profiler_.ProfileFullRun(sort.spec, data, TunedConfig(), 1);
  ASSERT_TRUE(profiled.ok());
  EXPECT_DOUBLE_EQ(profiled->profile.map_side.combine_size_selectivity, 1.0);
  EXPECT_DOUBLE_EQ(profiled->profile.map_side.combine_pairs_selectivity, 1.0);
  EXPECT_EQ(profiled->profile.map_side.combine_cpu_cost, 0.0);
}

TEST_F(ProfilerTest, OneTaskSampleProfilesOneMapTask) {
  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kWikipedia35Gb);
  auto sampled = profiler_.ProfileOneTask(wc.spec, data, TunedConfig(), 2);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(sampled->run.map_tasks.size(), 1u);
  EXPECT_TRUE(sampled->profile.is_sample);
  EXPECT_NEAR(sampled->profile.sampling_fraction, 1.0 / 571.0, 1e-6);
}

TEST_F(ProfilerTest, TenPercentSampleUses57Slots) {
  // Figure 4.1(b): 10% of 571 splits = 57 map tasks.
  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kWikipedia35Gb);
  auto sampled =
      profiler_.ProfileSample(wc.spec, data, TunedConfig(), 0.10, 3);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(sampled->run.map_tasks.size(), 57u);
}

TEST_F(ProfilerTest, SampleDynamicFeaturesAreStableAcrossSamples) {
  // §4.1.1: data-flow statistics must have low variance across 1-task
  // samples of the same job...
  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kWikipedia35Gb);
  std::vector<double> size_sels, map_cpu_costs;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    auto sampled =
        profiler_.ProfileOneTask(wc.spec, data, TunedConfig(), seed);
    ASSERT_TRUE(sampled.ok());
    size_sels.push_back(sampled->profile.map_side.size_selectivity);
    map_cpu_costs.push_back(sampled->profile.map_side.map_cpu_cost);
  }
  auto cv = [](const std::vector<double>& v) {
    double mean = 0, sq = 0;
    for (double x : v) mean += x;
    mean /= static_cast<double>(v.size());
    for (double x : v) sq += (x - mean) * (x - mean);
    return std::sqrt(sq / static_cast<double>(v.size() - 1)) / mean;
  };
  EXPECT_LT(cv(size_sels), 0.03) << "selectivities are stable";
  // ...while cost factors vary (node heterogeneity + split noise).
  EXPECT_GT(cv(map_cpu_costs), 0.06) << "cost factors are noisy";
  EXPECT_GT(cv(map_cpu_costs), 3.0 * cv(size_sels))
      << "cost noise dominates dataflow noise";
}

TEST_F(ProfilerTest, SamplingRejectsBadFraction) {
  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kRandomText1Gb);
  EXPECT_TRUE(profiler_.ProfileSample(wc.spec, data, TunedConfig(), 0.0, 1)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(profiler_.ProfileSample(wc.spec, data, TunedConfig(), 1.5, 1)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ProfilerTest, PhaseTimingsArePositiveAndOrdered) {
  const jobs::BenchmarkJob cooc = jobs::WordCooccurrencePairs(2);
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled =
      profiler_.ProfileFullRun(cooc.spec, data, TunedConfig(), 4);
  ASSERT_TRUE(profiled.ok());
  const MapSideProfile& m = profiled->profile.map_side;
  EXPECT_GT(m.read_s, 0);
  EXPECT_GT(m.map_s, 0);
  EXPECT_GT(m.collect_s, 0);
  EXPECT_GT(m.spill_s, 0);
  const ReduceSideProfile& r = profiled->profile.reduce_side;
  EXPECT_GT(r.shuffle_s, 0);
  EXPECT_GT(r.reduce_s, 0);
  EXPECT_GT(r.write_s, 0);
}

TEST_F(ProfilerTest, SerializeParseRoundTrip) {
  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled = profiler_.ProfileFullRun(wc.spec, data, TunedConfig(), 5);
  ASSERT_TRUE(profiled.ok());
  const ExecutionProfile& original = profiled->profile;
  auto parsed = ExecutionProfile::Parse(original.Serialize());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->job_name, original.job_name);
  EXPECT_EQ(parsed->data_set, original.data_set);
  EXPECT_EQ(parsed->DynamicVector(), original.DynamicVector());
  EXPECT_EQ(parsed->CostVector(), original.CostVector());
  EXPECT_EQ(parsed->map_side.num_tasks, original.map_side.num_tasks);
  EXPECT_DOUBLE_EQ(parsed->reduce_side.shuffle_s,
                   original.reduce_side.shuffle_s);
}

TEST_F(ProfilerTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ExecutionProfile::Parse("").ok());
  EXPECT_FALSE(ExecutionProfile::Parse("not a profile").ok());
  EXPECT_FALSE(ExecutionProfile::Parse("job_name=x\n").ok());

  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled = profiler_.ProfileFullRun(wc.spec, data, TunedConfig(), 6);
  ASSERT_TRUE(profiled.ok());
  std::string text = profiled->profile.Serialize();
  const size_t pos = text.find("m.map_cpu=");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 10, "m.map_cpu=abc");
  // Whether the replacement hit the value or not, the parse must either
  // succeed cleanly or flag corruption — here it must fail on "abc...".
  EXPECT_FALSE(ExecutionProfile::Parse(text).ok());
}

/// `text` with the value of its `key=` line replaced by `value`.
std::string WithField(std::string text, const std::string& key,
                      const std::string& value) {
  const size_t start = text.find("\n" + key + "=");
  EXPECT_NE(start, std::string::npos) << key;
  const size_t value_at = start + key.size() + 2;
  text.replace(value_at, text.find('\n', value_at) - value_at, value);
  return text;
}

TEST_F(ProfilerTest, ParseRejectsTaskCountsOutsideIntRange) {
  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled = profiler_.ProfileFullRun(wc.spec, data, TunedConfig(), 7);
  ASSERT_TRUE(profiled.ok());
  const std::string text = profiled->profile.Serialize();
  // Converting any of these to int is undefined behaviour.
  for (const char* key : {"m.num_tasks", "r.num_tasks"}) {
    for (const char* bad : {"1e300", "-1e300", "inf", "-inf", "nan", "-1",
                            "2147483648", "1e10"}) {
      const auto parsed = ExecutionProfile::Parse(WithField(text, key, bad));
      EXPECT_TRUE(parsed.status().IsCorruption())
          << key << "=" << bad << ": " << parsed.status();
    }
    // The ends of the range still parse, and a fraction truncates.
    for (const auto& [raw, want] :
         {std::pair<const char*, int>{"0", 0}, {"2147483647", 2147483647},
          {"3.9", 3}}) {
      const auto parsed = ExecutionProfile::Parse(WithField(text, key, raw));
      ASSERT_TRUE(parsed.ok()) << key << "=" << raw << ": " << parsed.status();
      EXPECT_EQ(key[0] == 'm' ? parsed->map_side.num_tasks
                              : parsed->reduce_side.num_tasks,
                want);
    }
  }
}

/// The numeric keys of a serialized profile, in serialization order.
std::vector<std::string> NumericKeys(const std::string& text) {
  std::vector<std::string> keys;
  size_t line = 0;
  while (line < text.size()) {
    const size_t end = text.find('\n', line);
    const std::string key = text.substr(line, text.find('=', line) - line);
    if (key != "job_name" && key != "data_set") keys.push_back(key);
    line = end + 1;
  }
  return keys;
}

TEST_F(ProfilerTest, ParseRejectsNonFiniteOrNegativeValues) {
  const jobs::BenchmarkJob wc = jobs::WordCount();
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled = profiler_.ProfileFullRun(wc.spec, data, TunedConfig(), 8);
  ASSERT_TRUE(profiled.ok());
  const std::string text = profiled->profile.Serialize();
  const std::vector<std::string> keys = NumericKeys(text);
  ASSERT_EQ(keys.size(), 42u);
  // Every numeric field is a count, size, selectivity, ratio, cost or
  // time: one of these in any of them would poison the store's
  // normalization bounds.
  for (const std::string& key : keys) {
    for (const char* bad : {"inf", "-inf", "nan", "-nan", "-1", "-1e-300"}) {
      const auto parsed = ExecutionProfile::Parse(WithField(text, key, bad));
      EXPECT_TRUE(parsed.status().IsCorruption())
          << key << "=" << bad << ": " << parsed.status();
    }
    for (const char* good : {"0", "-0", "0.5"}) {
      EXPECT_TRUE(ExecutionProfile::Parse(WithField(text, key, good)).ok())
          << key << "=" << good;
    }
  }
}

TEST_F(ProfilerTest, EveryTable61RunAndSampleRoundTrips) {
  // Parse also decodes every stored payload, so the profiles the Table
  // 6.1 workload stores and probes with must all pass its checks.
  size_t parsed_profiles = 0;
  for (const jobs::WorkloadEntry& entry : jobs::Table61Workload()) {
    const auto data = DataSet(entry.data_set.c_str());
    auto full = profiler_.ProfileFullRun(entry.job.spec, data,
                                         mrsim::Configuration{}, 11);
    auto sample = profiler_.ProfileOneTask(entry.job.spec, data,
                                           mrsim::Configuration{}, 12);
    ASSERT_TRUE(full.ok()) << entry.job.spec.name << ": " << full.status();
    ASSERT_TRUE(sample.ok()) << entry.job.spec.name << ": " << sample.status();
    for (const ExecutionProfile* p : {&full->profile, &sample->profile}) {
      const std::string text = p->Serialize();
      const auto parsed = ExecutionProfile::Parse(text);
      ASSERT_TRUE(parsed.ok())
          << entry.job.spec.name << "@" << entry.data_set << ": "
          << parsed.status();
      EXPECT_EQ(parsed->Serialize(), text);
      ++parsed_profiles;
    }
  }
  EXPECT_EQ(parsed_profiles, 2 * 54u);
}

// ---- Hostile input: every prefix, flip and garbage string parses cleanly

/// Parse's contract on hostile text: an error, or a profile that
/// re-serializes to text Parse accepts again (so every value it holds is
/// finite and non-negative).
void ExpectCleanParse(const std::string& text, const std::string& what) {
  const auto parsed = ExecutionProfile::Parse(text);
  if (!parsed.ok()) return;
  const auto again = ExecutionProfile::Parse(parsed->Serialize());
  ASSERT_TRUE(again.ok()) << what << ": " << again.status();
  EXPECT_EQ(again->Serialize(), parsed->Serialize()) << what;
}

TEST_F(ProfilerTest, ParseSurvivesEveryTruncation) {
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled = profiler_.ProfileFullRun(jobs::WordCount().spec, data,
                                           mrsim::Configuration{}, 13);
  ASSERT_TRUE(profiled.ok());
  const std::string text = profiled->profile.Serialize();
  for (size_t n = 0; n < text.size(); ++n) {
    ExpectCleanParse(text.substr(0, n), "prefix " + std::to_string(n));
  }
}

TEST_F(ProfilerTest, ParseSurvivesEverySingleByteFlip) {
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled = profiler_.ProfileFullRun(jobs::WordCount().spec, data,
                                           mrsim::Configuration{}, 14);
  ASSERT_TRUE(profiled.ok());
  const std::string text = profiled->profile.Serialize();
  for (size_t i = 0; i < text.size(); ++i) {
    // A bit-inverted byte, a neighbouring digit or letter, and the bytes
    // that change a number's sign, exponent or line structure.
    for (const char flip : {static_cast<char>(text[i] ^ 0xff),
                            static_cast<char>(text[i] ^ 0x01), '-', 'e', 'n',
                            '\n', '=', '\0'}) {
      std::string bent = text;
      bent[i] = flip;
      ExpectCleanParse(bent, "flip at " + std::to_string(i));
    }
  }
}

TEST_F(ProfilerTest, ParseSurvivesSeededGarbage) {
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto profiled = profiler_.ProfileFullRun(jobs::WordCount().spec, data,
                                           mrsim::Configuration{}, 15);
  ASSERT_TRUE(profiled.ok());
  const std::string text = profiled->profile.Serialize();
  Rng rng(2024);
  static constexpr char kAlphabet[] = "0123456789.-+eEinfa=\n_xm";
  for (int round = 0; round < 2000; ++round) {
    std::string garbage;
    if (round % 2 == 0) {
      // Free-form bytes biased towards the profile's own alphabet.
      const size_t size = rng.NextUint64(256);
      for (size_t i = 0; i < size; ++i) {
        garbage += rng.Bernoulli(0.8)
                       ? kAlphabet[rng.NextUint64(sizeof(kAlphabet) - 1)]
                       : static_cast<char>(rng.NextUint64(256));
      }
    } else {
      // A valid profile with a burst of overwritten bytes.
      garbage = text;
      const uint64_t edits = 1 + rng.NextUint64(8);
      for (uint64_t e = 0; e < edits; ++e) {
        garbage[rng.NextUint64(garbage.size())] =
            kAlphabet[rng.NextUint64(sizeof(kAlphabet) - 1)];
      }
    }
    ExpectCleanParse(garbage, "garbage round " + std::to_string(round));
  }
}

TEST_F(ProfilerTest, FeatureNameTablesMatchVectorSizes) {
  ExecutionProfile p;
  EXPECT_EQ(DynamicFeatureNames().size(), p.DynamicVector().size());
  EXPECT_EQ(CostFactorNames().size(), p.CostVector().size());
}

TEST_F(ProfilerTest, ProfilesDistinguishJobs) {
  // The whole point: different jobs produce visibly different dynamic
  // features.
  const auto data = DataSet(jobs::kRandomText1Gb);
  auto wc = profiler_.ProfileFullRun(jobs::WordCount().spec, data,
                                     TunedConfig(), 7);
  auto sort_data = DataSet(jobs::kTeraGen1Gb);
  auto sort = profiler_.ProfileFullRun(jobs::Sort().spec, sort_data,
                                       TunedConfig(), 7);
  auto cooc = profiler_.ProfileFullRun(jobs::WordCooccurrencePairs(2).spec,
                                       data, TunedConfig(), 7);
  ASSERT_TRUE(wc.ok());
  ASSERT_TRUE(sort.ok());
  ASSERT_TRUE(cooc.ok());
  const double wc_sel = wc->profile.map_side.size_selectivity;
  const double sort_sel = sort->profile.map_side.size_selectivity;
  const double cooc_sel = cooc->profile.map_side.size_selectivity;
  EXPECT_NEAR(sort_sel, 1.0, 0.02);
  EXPECT_GT(wc_sel, 1.5);
  EXPECT_GT(cooc_sel, 2.0 * wc_sel);
}

}  // namespace
}  // namespace pstorm::profiler
