#ifndef PSTORM_CORE_PSTORM_H_
#define PSTORM_CORE_PSTORM_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "core/matcher.h"
#include "core/profile_store.h"
#include "jobs/benchmark_jobs.h"
#include "optimizer/cbo.h"
#include "profiler/profiler.h"
#include "whatif/whatif_engine.h"

namespace pstorm::core {

struct PStormOptions {
  MatchOptions match;
  optimizer::CostBasedOptimizer::Options cbo;
  /// Passed through to the profile store: the backing table (set
  /// store.table.db_options.maintenance_pool to move region
  /// flushes/compactions off the SubmitJob path onto the background
  /// scheduler) and the ingest knob.
  ProfileStoreOptions store;
};

/// The PStorM system facade (thesis chapter 3): given a submitted MR job,
/// run one sample map task (plus reducers) with profiling on, probe the
/// profile store, and
///
///  * on a match: hand the (possibly composite) stored profile to the
///    Starfish CBO, then run the job with the tuned configuration and
///    profiling off;
///  * on No Match Found: run the job with the submitted configuration and
///    profiling on, and store the collected complete profile for future
///    submissions.
///
/// Thread-safety contract: SubmitJob is reentrant — any number of threads
/// may submit jobs concurrently against one PStorM instance. Each call
/// works on its own SubmissionContext (sample, probe, matcher, CBO); the
/// only shared mutable state is the ProfileStore, which synchronizes
/// internally. Matching runs against whatever profiles are visible when
/// the probe's store lookups execute, exactly as in a shared-cluster
/// deployment where submissions race.
class PStorM {
 public:
  /// `simulator` and `env` must outlive the instance. `store_path` roots
  /// the profile store inside `env`.
  static Result<std::unique_ptr<PStorM>> Create(
      const mrsim::Simulator* simulator, storage::Env* env,
      std::string store_path, PStormOptions options = PStormOptions{});

  struct SubmissionOutcome {
    /// Whether the matcher found a usable profile.
    bool matched = false;
    /// Whether the returned profile stitched two different jobs.
    bool composite = false;
    /// "job@dataset" (or "a+b" for composites) the profile came from;
    /// empty when no match.
    std::string profile_source;
    /// Configuration the job finally ran with.
    mrsim::Configuration config_used;
    /// Wall time of the final run.
    double runtime_s = 0;
    /// Wall time of the 1-task sampling run (PStorM's overhead).
    double sample_runtime_s = 0;
    /// CBO's predicted runtime for the chosen configuration (0 when the
    /// job ran untuned).
    double predicted_runtime_s = 0;
    /// True when a freshly collected profile was added to the store.
    bool stored_new_profile = false;
  };

  /// Runs the full submission workflow. Safe to call concurrently.
  /// `trace` (optional) receives the submission's full story: the matcher
  /// stage funnel for both sides, store-op accounting, CBO search effort,
  /// and a phase timeline. Each concurrent call must pass its own trace.
  Result<SubmissionOutcome> SubmitJob(const jobs::BenchmarkJob& job,
                                      const mrsim::DataSetSpec& data,
                                      const mrsim::Configuration& submitted,
                                      uint64_t seed,
                                      obs::SubmissionTrace* trace = nullptr)
      const;

  /// Adds an existing complete profile (e.g. collected elsewhere).
  Status AddProfile(const std::string& job_key,
                    const profiler::ExecutionProfile& profile,
                    const staticanalysis::StaticFeatures& statics);

  ProfileStore& store() { return *store_; }
  const ProfileStore& store() const { return *store_; }

 private:
  PStorM(const mrsim::Simulator* simulator,
         std::unique_ptr<ProfileStore> store, PStormOptions options);

  /// Everything one submission touches, stack-allocated per SubmitJob
  /// call so concurrent submissions share nothing mutable.
  struct SubmissionContext {
    const jobs::BenchmarkJob& job;
    const mrsim::DataSetSpec& data;
    const mrsim::Configuration& submitted;
    const uint64_t seed;
    staticanalysis::StaticFeatures statics;
    profiler::ProfiledRun sample;
    MatchResult match;
    SubmissionOutcome outcome;
    obs::SubmissionTrace* trace = nullptr;  // may be null
  };

  /// Workflow phases, each operating on the call's own context.
  Status SampleAndProbe(SubmissionContext& ctx) const;
  Status RunTuned(SubmissionContext& ctx) const;
  Status RunUntunedAndStore(SubmissionContext& ctx) const;

  const mrsim::Simulator* simulator_;
  std::unique_ptr<ProfileStore> store_;
  const PStormOptions options_;
  const profiler::Profiler profiler_;
  const whatif::WhatIfEngine engine_;
};

}  // namespace pstorm::core

#endif  // PSTORM_CORE_PSTORM_H_
