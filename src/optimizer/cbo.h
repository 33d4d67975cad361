#ifndef PSTORM_OPTIMIZER_CBO_H_
#define PSTORM_OPTIMIZER_CBO_H_

#include <cstdint>

#include "common/result.h"
#include "mrsim/configuration.h"
#include "mrsim/dataset.h"
#include "obs/trace.h"
#include "profiler/profile.h"
#include "whatif/whatif_engine.h"

namespace pstorm::optimizer {

/// The Starfish cost-based optimizer stand-in: searches the space of the
/// 14 configuration parameters, asking the what-if engine to predict the
/// runtime of each candidate, and recommends the cheapest. Quality depends
/// entirely on the profile it is given — which is exactly what PStorM
/// supplies.
class CostBasedOptimizer {
 public:
  struct Options {
    /// Random candidates in the global exploration phase.
    int global_samples = 400;
    /// Random candidates in each local refinement phase.
    int local_samples = 150;
    /// Refinement rounds around the incumbent best.
    int refinement_rounds = 2;
    /// Heap headroom the optimizer must leave when sizing io.sort.mb.
    double heap_margin_mb = 80.0;
    uint64_t seed = 17;
  };

  /// `engine` must outlive the optimizer.
  explicit CostBasedOptimizer(const whatif::WhatIfEngine* engine)
      : CostBasedOptimizer(engine, Options{}) {}
  CostBasedOptimizer(const whatif::WhatIfEngine* engine, Options options);

  /// The recommendation plus its predicted runtime.
  struct Recommendation {
    mrsim::Configuration config;
    double predicted_runtime_s = 0;
    int candidates_evaluated = 0;
  };

  /// Finds a near-optimal configuration for the job described by
  /// `profile` on `data`, searching on the calling thread; the result is a
  /// pure function of the inputs and `Options::seed`. `trace` (optional)
  /// receives the search-effort accounting: candidates evaluated and wall
  /// time per round.
  Result<Recommendation> Optimize(const profiler::ExecutionProfile& profile,
                                  const mrsim::DataSetSpec& data,
                                  obs::CboTrace* trace = nullptr) const;

 private:
  const whatif::WhatIfEngine* engine_;
  Options options_;
};

}  // namespace pstorm::optimizer

#endif  // PSTORM_OPTIMIZER_CBO_H_
