// The contract of the CBO under concurrent callers: the search runs on the
// calling thread, and the RPC workers share one optimizer and one what-if
// engine, so the recommendation is a pure function of (profile, data,
// options.seed) — how many threads search at once may change only how fast
// each answer comes, never which configuration wins.

#include <future>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "optimizer/cbo.h"
#include "profiler/profiler.h"

namespace pstorm::optimizer {
namespace {

using Recommendation = CostBasedOptimizer::Recommendation;

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

  static void ExpectSame(const Result<Recommendation>& rec,
                         const Recommendation& baseline, size_t caller) {
    ASSERT_TRUE(rec.ok()) << rec.status();
    EXPECT_EQ(rec->config, baseline.config) << "caller " << caller;
    EXPECT_EQ(rec->predicted_runtime_s, baseline.predicted_runtime_s)
        << "caller " << caller;
    EXPECT_EQ(rec->candidates_evaluated, baseline.candidates_evaluated)
        << "caller " << caller;
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
  const CostBasedOptimizer cbo(&engine_, options);
  const auto baseline = cbo.Optimize(profile, data);
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  for (size_t threads : {2, 8}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    std::vector<Result<Recommendation>> recs(
        threads, Result<Recommendation>(Status::Internal("not run")));
    std::vector<std::thread> callers;
    for (size_t i = 0; i < threads; ++i) {
      callers.emplace_back(
          [&, i]() { recs[i] = cbo.Optimize(profile, data); });
    }
    for (std::thread& t : callers) t.join();
    for (size_t i = 0; i < threads; ++i) ExpectSame(recs[i], *baseline, i);
  }
}

TEST_F(CboParallelTest, DefaultThreadCountMatchesSingleThreaded) {
  const auto job = jobs::WordCount();
  const auto data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  const auto profile = Profile(job, data);

  CostBasedOptimizer::Options options;
  options.global_samples = 80;
  options.local_samples = 40;
  const CostBasedOptimizer cbo(&engine_, options);
  const auto serial = cbo.Optimize(profile, data);
  ASSERT_TRUE(serial.ok()) << serial.status();

  // One search per worker of the shared pool, which is sized to the
  // hardware concurrency, whatever it is here.
  common::ThreadPool* pool = common::ThreadPool::Shared();
  std::vector<std::future<Result<Recommendation>>> futures;
  for (size_t i = 0; i < pool->num_threads(); ++i) {
    futures.push_back(
        pool->Submit([&]() { return cbo.Optimize(profile, data); }));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectSame(futures[i].get(), *serial, i);
  }
}

}  // namespace
}  // namespace pstorm::optimizer
