#ifndef PSTORM_MRSIM_SIMULATOR_H_
#define PSTORM_MRSIM_SIMULATOR_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "mrsim/cluster.h"
#include "mrsim/configuration.h"
#include "mrsim/dataset.h"
#include "mrsim/jobspec.h"
#include "mrsim/task_model.h"

namespace pstorm::mrsim {

/// Knobs of one simulated run.
struct RunOptions {
  /// Run only these split indices (Starfish sampler semantics: unselected
  /// splits are eliminated, so only |split_subset| map tasks execute and
  /// the reducers process just their output). Empty means every split.
  std::vector<uint64_t> split_subset = {};
  /// Whether the dynamic-instrumentation profiler is attached; profiled
  /// tasks run slower by `profiling_slowdown`.
  bool profiling_enabled = false;
  double profiling_slowdown = 0.08;
  /// Seed of this run's noise (node speeds, split jitter, stragglers).
  uint64_t seed = 42;
};

/// One executed (simulated) map task.
struct MapTaskResult {
  uint64_t split_index = 0;
  int node = 0;
  double start_s = 0;
  double end_s = 0;
  double input_bytes = 0;
  double input_records = 0;
  MapTaskOutcome outcome;
};

/// One executed (simulated) reduce task.
struct ReduceTaskResult {
  int reduce_index = 0;
  int node = 0;
  double start_s = 0;
  double end_s = 0;
  double input_wire_bytes = 0;
  double input_uncompressed_bytes = 0;
  double input_records = 0;
  ReduceTaskOutcome outcome;
};

/// Everything observable about one simulated job run.
struct JobRunResult {
  double runtime_s = 0;
  /// When the last map task finished.
  double map_phase_end_s = 0;
  std::vector<MapTaskResult> map_tasks;
  std::vector<ReduceTaskResult> reduce_tasks;
  /// Total map output across tasks, as shuffled.
  double total_map_output_wire_bytes = 0;
  double total_map_output_uncompressed_bytes = 0;
  double total_map_output_records = 0;
  double total_output_bytes = 0;
  Configuration config;
};

/// Deterministic simulator of Hadoop MR job execution on a cluster: the
/// repository's stand-in for the thesis's 16-node EC2 Hadoop deployment.
/// Identical (job, data, config, seed) inputs reproduce identical results;
/// different seeds model run-to-run variance (node load, stragglers).
class Simulator {
 public:
  explicit Simulator(ClusterSpec cluster);

  const ClusterSpec& cluster() const { return cluster_; }

  /// Simulates one run. Fails with ResourceExhausted when a map task's
  /// memory demand plus the serialization buffer exceeds the task heap
  /// (the OOM that kills co-occurrence "stripes" on the large data set),
  /// and with InvalidArgument on malformed specs/config.
  Result<JobRunResult> RunJob(const JobSpec& job, const DataSetSpec& data,
                              const Configuration& config,
                              const RunOptions& options = RunOptions()) const;

 private:
  ClusterSpec cluster_;
};

/// Greedy list scheduling of `durations` onto `num_slots` identical slots,
/// all tasks ready at `release_time`. Returns (start, end) per task in
/// input order. Exposed for tests.
std::vector<std::pair<double, double>> ListSchedule(
    int num_slots, const std::vector<double>& durations,
    double release_time = 0.0);

}  // namespace pstorm::mrsim

#endif  // PSTORM_MRSIM_SIMULATOR_H_
