#include "whatif/whatif_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "mrsim/simulator.h"
#include "profiler/profiler.h"

namespace pstorm::whatif {
namespace {

/// The per-task schedule Predict ran before its wave loops, kept as the
/// oracle for them: list-schedule `num_splits` identical maps, sort their
/// ends, then put each reduce task on the earliest-free slot. Returns
/// {runtime_s, map_phase_s} for `p`'s task durations.
std::pair<double, double> ListScheduledRuntime(
    const mrsim::ClusterSpec& cluster, uint64_t num_splits,
    const mrsim::Configuration& config, const Prediction& p) {
  const std::vector<double> map_durations(num_splits, p.map_task_s);
  std::vector<double> map_ends;
  for (const auto& [start, end] :
       mrsim::ListSchedule(cluster.total_map_slots(), map_durations)) {
    map_ends.push_back(end);
  }
  std::sort(map_ends.begin(), map_ends.end());
  const double map_phase_end = map_ends.back();
  if (config.num_reduce_tasks == 0) return {map_phase_end, map_phase_end};

  const size_t slowstart_index = static_cast<size_t>(
      std::ceil(config.reduce_slowstart_completed_maps *
                static_cast<double>(num_splits)));
  const double slowstart_time =
      slowstart_index == 0
          ? 0.0
          : map_ends[std::min<size_t>(slowstart_index, num_splits) - 1];
  std::vector<double> slot_free(cluster.total_reduce_slots(), 0.0);
  double reduce_end = 0.0;
  const auto& ro = p.reduce_outcome;
  for (int t = 0; t < config.num_reduce_tasks; ++t) {
    auto slot = std::min_element(slot_free.begin(), slot_free.end());
    const double start = std::max(*slot, slowstart_time);
    const double shuffle_end = std::max(
        start + cluster.task_startup_seconds + ro.shuffle_s, map_phase_end);
    const double end = shuffle_end + ro.merge_s + ro.reduce_s + ro.write_s;
    *slot = end;
    reduce_end = std::max(reduce_end, end);
  }
  return {std::max(map_phase_end, reduce_end), map_phase_end};
}

class WhatIfTest : public ::testing::Test {
 protected:
  WhatIfTest()
      : sim_(mrsim::ThesisCluster()),
        profiler_(&sim_),
        engine_(mrsim::ThesisCluster()) {}

  mrsim::DataSetSpec DataSet(const char* name) {
    auto d = jobs::FindDataSet(name);
    EXPECT_TRUE(d.ok());
    return d.value();
  }

  profiler::ExecutionProfile FullProfile(const mrsim::JobSpec& job,
                                         const mrsim::DataSetSpec& data,
                                         const mrsim::Configuration& config,
                                         uint64_t seed = 1) {
    auto profiled = profiler_.ProfileFullRun(job, data, config, seed);
    EXPECT_TRUE(profiled.ok()) << profiled.status();
    return profiled->profile;
  }

  mrsim::Simulator sim_;
  profiler::Profiler profiler_;
  WhatIfEngine engine_;
};

TEST_F(WhatIfTest, SelfPredictionTracksSimulatedTruth) {
  // Predicting the profiled configuration itself should land close to the
  // observed runtime (modulo the noise the simulator injects).
  const auto job = jobs::WordCount();
  const auto data = DataSet(jobs::kRandomText1Gb);
  mrsim::Configuration config;
  config.num_reduce_tasks = 8;

  const auto profile = FullProfile(job.spec, data, config);
  auto truth = sim_.RunJob(job.spec, data, config);
  ASSERT_TRUE(truth.ok());
  auto prediction = engine_.Predict(profile, data, config);
  ASSERT_TRUE(prediction.ok()) << prediction.status();

  const double ratio = prediction->runtime_s / truth->runtime_s;
  EXPECT_GT(ratio, 0.6) << "prediction too optimistic";
  EXPECT_LT(ratio, 1.6) << "prediction too pessimistic";
}

TEST_F(WhatIfTest, RanksConfigurationsCorrectly) {
  // The what-if engine's job is relative, not absolute, accuracy: it must
  // order configurations the way the (simulated) world does.
  const auto job = jobs::WordCooccurrencePairs(2);
  const auto data = DataSet(jobs::kRandomText1Gb);
  const auto profile = FullProfile(job.spec, data, mrsim::Configuration{});

  mrsim::Configuration one_reducer, many_reducers;
  one_reducer.num_reduce_tasks = 1;
  many_reducers.num_reduce_tasks = 27;
  auto p1 = engine_.Predict(profile, data, one_reducer);
  auto p27 = engine_.Predict(profile, data, many_reducers);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p27.ok());
  EXPECT_GT(p1->runtime_s, 1.5 * p27->runtime_s);

  auto t1 = sim_.RunJob(job.spec, data, one_reducer);
  auto t27 = sim_.RunJob(job.spec, data, many_reducers);
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t27.ok());
  EXPECT_GT(t1->runtime_s, t27->runtime_s) << "the world agrees";
}

TEST_F(WhatIfTest, SampleProfilePredictsNearlyAsWellAsFullProfile) {
  // A 1-task sample captures the data-flow statistics; its predictions
  // should be close to those from the complete profile (the premise of
  // profile reuse).
  const auto job = jobs::WordCount();
  const auto data = DataSet(jobs::kWikipedia35Gb);
  const auto full = FullProfile(job.spec, data, mrsim::Configuration{});
  auto sampled = profiler_.ProfileOneTask(job.spec, data,
                                          mrsim::Configuration{}, 5);
  ASSERT_TRUE(sampled.ok());

  mrsim::Configuration candidate;
  candidate.num_reduce_tasks = 16;
  candidate.compress_map_output = true;
  auto from_full = engine_.Predict(full, data, candidate);
  auto from_sample = engine_.Predict(sampled->profile, data, candidate);
  ASSERT_TRUE(from_full.ok());
  ASSERT_TRUE(from_sample.ok());
  EXPECT_NEAR(from_sample->runtime_s, from_full->runtime_s,
              from_full->runtime_s * 0.30);
}

TEST_F(WhatIfTest, PredictsAcrossDataSizes) {
  // Same job profile, larger data: runtime scales up.
  const auto job = jobs::WordCount();
  const auto small = DataSet(jobs::kRandomText1Gb);
  const auto big = DataSet(jobs::kWikipedia35Gb);
  const auto profile = FullProfile(job.spec, small, mrsim::Configuration{});
  mrsim::Configuration config;
  config.num_reduce_tasks = 8;
  auto p_small = engine_.Predict(profile, small, config);
  auto p_big = engine_.Predict(profile, big, config);
  ASSERT_TRUE(p_small.ok());
  ASSERT_TRUE(p_big.ok());
  EXPECT_GT(p_big->runtime_s, 10.0 * p_small->runtime_s);
}

TEST_F(WhatIfTest, MapOnlyConfiguration) {
  const auto job = jobs::WordCount();
  const auto data = DataSet(jobs::kRandomText1Gb);
  const auto profile = FullProfile(job.spec, data, mrsim::Configuration{});
  mrsim::Configuration map_only;
  map_only.num_reduce_tasks = 0;
  auto prediction = engine_.Predict(profile, data, map_only);
  ASSERT_TRUE(prediction.ok());
  EXPECT_EQ(prediction->runtime_s, prediction->map_phase_s);
}

TEST_F(WhatIfTest, RejectsUnusableProfileAndBadConfig) {
  profiler::ExecutionProfile empty;
  const auto data = DataSet(jobs::kRandomText1Gb);
  EXPECT_TRUE(engine_.Predict(empty, data, mrsim::Configuration{})
                  .status()
                  .IsInvalidArgument());

  const auto job = jobs::WordCount();
  const auto profile = FullProfile(job.spec, data, mrsim::Configuration{});
  mrsim::Configuration bad;
  bad.io_sort_factor = 0;
  EXPECT_TRUE(
      engine_.Predict(profile, data, bad).status().IsInvalidArgument());
}

TEST_F(WhatIfTest, CombinerKnobOnlyHelpsWhenProfileShowsACombiner) {
  const auto data = DataSet(jobs::kTeraGen1Gb);
  const auto sort_profile =
      FullProfile(jobs::Sort().spec, data, mrsim::Configuration{});
  mrsim::Configuration with, without;
  with.use_combiner = true;
  without.use_combiner = false;
  with.num_reduce_tasks = without.num_reduce_tasks = 8;
  auto p_with = engine_.Predict(sort_profile, data, with);
  auto p_without = engine_.Predict(sort_profile, data, without);
  ASSERT_TRUE(p_with.ok());
  ASSERT_TRUE(p_without.ok());
  EXPECT_DOUBLE_EQ(p_with->runtime_s, p_without->runtime_s)
      << "sort has no combiner; the knob is inert";
}

TEST_F(WhatIfTest, WaveRecurrenceMatchesListSchedule) {
  // The wave loops must reproduce the per-task schedule bit for bit, on
  // full and partial waves of both phases and across the slowstart range.
  std::vector<mrsim::ClusterSpec> clusters(4, mrsim::ThesisCluster());
  clusters[1].num_worker_nodes = 1;
  clusters[1].map_slots_per_node = 1;
  clusters[1].reduce_slots_per_node = 1;
  clusters[2].num_worker_nodes = 7;
  clusters[2].map_slots_per_node = 3;
  clusters[2].reduce_slots_per_node = 2;
  clusters[3].num_worker_nodes = 40;
  clusters[3].task_startup_seconds = 0.1;

  const auto text = DataSet(jobs::kRandomText1Gb);
  const auto tera = DataSet(jobs::kTeraGen1Gb);
  const profiler::ExecutionProfile profiles[] = {
      FullProfile(jobs::WordCount().spec, text, {}),
      FullProfile(jobs::Sort().spec, tera, {}),
      FullProfile(jobs::WordCooccurrencePairs(2).spec, text, {})};

  int cases = 0;
  for (const mrsim::ClusterSpec& cluster : clusters) {
    const WhatIfEngine engine(cluster);
    const uint64_t s = static_cast<uint64_t>(cluster.total_map_slots());
    const int sr = cluster.total_reduce_slots();
    const std::vector<uint64_t> split_counts = {
        1, 2, std::max<uint64_t>(1, s - 1), s, s + 1, 16, 64, 571, 1999};
    const std::vector<int> reducer_counts = {
        0, 1, sr - 1, sr, sr + 1, 2 * sr + 1, 3 * sr};
    for (const profiler::ExecutionProfile& profile : profiles) {
      for (uint64_t splits : split_counts) {
        mrsim::DataSetSpec data = text;
        data.size_bytes = splits * data.split_bytes;
        ASSERT_EQ(data.num_splits(), splits);
        for (int reducers : reducer_counts) {
          for (double slowstart : {0.0, 1e-9, 0.05, 0.5, 0.999, 1.0}) {
            mrsim::Configuration config;
            config.num_reduce_tasks = reducers;
            config.reduce_slowstart_completed_maps = slowstart;
            auto p = engine.Predict(profile, data, config);
            ASSERT_TRUE(p.ok()) << p.status();
            const auto [runtime_s, map_phase_s] =
                ListScheduledRuntime(cluster, splits, config, *p);
            EXPECT_EQ(p->runtime_s, runtime_s)
                << cluster.num_worker_nodes << " nodes, " << splits
                << " splits, " << reducers << " reducers, slowstart "
                << slowstart;
            EXPECT_EQ(p->map_phase_s, map_phase_s)
                << cluster.num_worker_nodes << " nodes, " << splits
                << " splits";
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 3 * 9 * 7 * 6);
}

}  // namespace
}  // namespace pstorm::whatif
