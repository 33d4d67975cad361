#ifndef PSTORM_WHATIF_WHATIF_ENGINE_H_
#define PSTORM_WHATIF_WHATIF_ENGINE_H_

#include "common/result.h"
#include "mrsim/cluster.h"
#include "mrsim/configuration.h"
#include "mrsim/dataset.h"
#include "mrsim/task_model.h"
#include "profiler/profile.h"

namespace pstorm::whatif {

/// A what-if answer: predicted job runtime plus the phase-level breakdown
/// behind it.
struct Prediction {
  double runtime_s = 0;
  double map_phase_s = 0;
  double map_task_s = 0;     // Predicted duration of one map task.
  double reduce_task_s = 0;  // Predicted duration of one reduce task.
  mrsim::MapTaskOutcome map_outcome;
  mrsim::ReduceTaskOutcome reduce_outcome;
};

/// The Starfish What-If engine stand-in: predicts the runtime of an MR job
/// under a hypothetical configuration, given an execution profile of the
/// job (or of a *similar* job — PStorM's entire premise) and the target
/// data/cluster.
///
/// The prediction derives a "virtual profile" — per-task model parameters
/// taken from the profile's data-flow statistics and cost factors — and
/// evaluates the same analytical phase models the simulator uses, followed
/// by deterministic wave scheduling. It never sees the hidden JobSpec:
/// prediction quality is bounded by profile quality, exactly the dynamic
/// the thesis exploits.
///
/// Scheduling is two loops over waves, not over tasks. Every virtual map
/// task lasts the same d seconds, so the map slots fill in ⌈n/S⌉ waves and
/// wave w ends at wave_end[w-1] + d. Those ends are accumulated one
/// addition per wave — the additions `mrsim::ListSchedule` performs on the
/// same tasks, so the result is bit-identical to it; `waves * d` rounds
/// differently. Every reduce task is identical too, so each of the
/// ⌈R/S_r⌉ reduce waves evaluates the per-task start/shuffle/end
/// expression once. A prediction therefore costs O(waves), which is what
/// lets the CBO call it hundreds of times per submission.
class WhatIfEngine {
 public:
  explicit WhatIfEngine(mrsim::ClusterSpec cluster);

  const mrsim::ClusterSpec& cluster() const { return cluster_; }

  /// Predicts the runtime of the profiled job on `data` under `config`.
  /// Const and safe to call concurrently.
  Result<Prediction> Predict(const profiler::ExecutionProfile& profile,
                             const mrsim::DataSetSpec& data,
                             const mrsim::Configuration& config) const;

 private:
  mrsim::ClusterSpec cluster_;
};

}  // namespace pstorm::whatif

#endif  // PSTORM_WHATIF_WHATIF_ENGINE_H_
