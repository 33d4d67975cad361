// Property sweep over the cost-based optimizer: across a spread of jobs,
// the end-to-end tuning loop must never regress a job relative to the
// default configuration, and its recommendations must be feasible.

#include <gtest/gtest.h>

#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "optimizer/cbo.h"
#include "optimizer/rbo.h"
#include "profiler/profiler.h"

namespace pstorm::optimizer {
namespace {

struct Scenario {
  const char* label;
  jobs::BenchmarkJob job;
  const char* data_set;
};

// gtest would otherwise print the raw bytes of the struct, whose leading
// pointer changes every run, into the ctest name of each case.
void PrintTo(const Scenario& scenario, std::ostream* os) {
  *os << scenario.label;
}

std::vector<Scenario> Scenarios() {
  return {
      {"wordcount", jobs::WordCount(), jobs::kRandomText1Gb},
      {"sort", jobs::Sort(), jobs::kTeraGen1Gb},
      {"join", jobs::TpchJoin(), jobs::kTpch1Gb},
      {"cooc", jobs::WordCooccurrencePairs(2), jobs::kRandomText1Gb},
      {"invindex", jobs::InvertedIndex(), jobs::kRandomText1Gb},
      {"cloudburst", jobs::CloudBurst(), jobs::kGenomeSample},
      {"itemcf", jobs::ItemBasedCollaborativeFiltering(),
       jobs::kMovieLens10M},
      {"grep", jobs::Grep(0.01), jobs::kRandomText1Gb},
  };
}

class CboSweepTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(CboSweepTest, TuningNeverRegressesMeaningfully) {
  const Scenario& scenario = GetParam();
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  const profiler::Profiler prof(&sim);
  const whatif::WhatIfEngine engine(sim.cluster());
  CostBasedOptimizer::Options options;
  options.global_samples = 250;  // Keep the sweep quick.
  options.local_samples = 80;
  const CostBasedOptimizer cbo(&engine, options);

  const auto data = jobs::FindDataSet(scenario.data_set).value();
  auto profiled = prof.ProfileFullRun(scenario.job.spec, data,
                                      mrsim::Configuration{}, 9);
  ASSERT_TRUE(profiled.ok()) << profiled.status();
  auto rec = cbo.Optimize(profiled->profile, data);
  ASSERT_TRUE(rec.ok()) << rec.status();

  // Feasibility: the recommendation must validate and run without OOM.
  EXPECT_TRUE(rec->config.Validate().ok());
  auto tuned = sim.RunJob(scenario.job.spec, data, rec->config);
  ASSERT_TRUE(tuned.ok()) << tuned.status();

  auto baseline = sim.RunJob(scenario.job.spec, data,
                             mrsim::Configuration{});
  ASSERT_TRUE(baseline.ok());

  // Tuning may be a wash for well-suited jobs but must never cost more
  // than run-to-run noise.
  EXPECT_LT(tuned->runtime_s, baseline->runtime_s * 1.15)
      << scenario.label;

  // And the what-if prediction for the chosen config should be in the
  // right ballpark of the simulated outcome.
  const double ratio = rec->predicted_runtime_s / tuned->runtime_s;
  EXPECT_GT(ratio, 0.4) << scenario.label;
  EXPECT_LT(ratio, 2.5) << scenario.label;
}

INSTANTIATE_TEST_SUITE_P(Jobs, CboSweepTest,
                         ::testing::ValuesIn(Scenarios()),
                         [](const auto& info) {
                           return std::string(info.param.label);
                         });

TEST(RboVsCboTest, CboBeatsOrMatchesRboOnShuffleHeavyJobs) {
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  const profiler::Profiler prof(&sim);
  const whatif::WhatIfEngine engine(sim.cluster());
  const CostBasedOptimizer cbo(&engine);
  const RuleBasedOptimizer rbo;

  const auto job = jobs::BigramRelativeFrequency();
  const auto data = jobs::FindDataSet(jobs::kRandomText1Gb).value();

  RboHints hints;
  hints.expect_large_intermediate_data = true;
  hints.reduce_is_associative = true;
  auto rbo_run = sim.RunJob(job.spec, data, rbo.Recommend(sim.cluster(),
                                                          hints));
  ASSERT_TRUE(rbo_run.ok());

  auto profiled = prof.ProfileFullRun(job.spec, data,
                                      mrsim::Configuration{}, 10);
  ASSERT_TRUE(profiled.ok());
  auto rec = cbo.Optimize(profiled->profile, data);
  ASSERT_TRUE(rec.ok());
  auto cbo_run = sim.RunJob(job.spec, data, rec->config);
  ASSERT_TRUE(cbo_run.ok());

  EXPECT_LT(cbo_run->runtime_s, rbo_run->runtime_s * 1.05)
      << "the profile-driven CBO should not lose to heuristics";
}

}  // namespace
}  // namespace pstorm::optimizer
