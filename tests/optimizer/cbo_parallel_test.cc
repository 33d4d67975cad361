// The contract of the parallel CBO: the recommendation is a pure function
// of (profile, data, options.seed) — the thread count may change only how
// fast it is produced, never which configuration wins.

#include <gtest/gtest.h>

#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "optimizer/cbo.h"
#include "profiler/profiler.h"

namespace pstorm::optimizer {
namespace {

class CboParallelTest : public ::testing::Test {
 protected:
  CboParallelTest() : sim_(mrsim::ThesisCluster()), profiler_(&sim_),
                      engine_(mrsim::ThesisCluster()) {}

  profiler::ExecutionProfile Profile(const jobs::BenchmarkJob& job,
                                     const mrsim::DataSetSpec& data) {
    auto profiled =
        profiler_.ProfileFullRun(job.spec, data, mrsim::Configuration{}, 5);
    EXPECT_TRUE(profiled.ok()) << profiled.status();
    return profiled->profile;
  }

  mrsim::Simulator sim_;
  profiler::Profiler profiler_;
  whatif::WhatIfEngine engine_;
};

TEST_F(CboParallelTest, RecommendationIdenticalForAnyThreadCount) {
  const auto job = jobs::WordCooccurrencePairs(2);
  const auto data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  const auto profile = Profile(job, data);

  CostBasedOptimizer::Options options;
  options.global_samples = 120;
  options.local_samples = 60;
  options.num_threads = 1;
  const auto baseline =
      CostBasedOptimizer(&engine_, options).Optimize(profile, data);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  for (int threads : {2, 8}) {
    options.num_threads = threads;
    const auto rec =
        CostBasedOptimizer(&engine_, options).Optimize(profile, data);
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec->config, baseline->config) << threads << " threads";
    EXPECT_EQ(rec->predicted_runtime_s, baseline->predicted_runtime_s)
        << threads << " threads";
    EXPECT_EQ(rec->candidates_evaluated, baseline->candidates_evaluated)
        << threads << " threads";
  }
}

TEST_F(CboParallelTest, DefaultThreadCountMatchesSingleThreaded) {
  const auto job = jobs::WordCount();
  const auto data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  const auto profile = Profile(job, data);

  CostBasedOptimizer::Options options;
  options.global_samples = 80;
  options.local_samples = 40;
  options.num_threads = 1;
  const auto serial =
      CostBasedOptimizer(&engine_, options).Optimize(profile, data);
  ASSERT_TRUE(serial.ok());

  options.num_threads = 0;  // Hardware concurrency, whatever it is here.
  const auto parallel =
      CostBasedOptimizer(&engine_, options).Optimize(profile, data);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel->config, serial->config);
  EXPECT_EQ(parallel->predicted_runtime_s, serial->predicted_runtime_s);
}

}  // namespace
}  // namespace pstorm::optimizer
