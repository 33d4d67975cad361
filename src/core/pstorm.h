#ifndef PSTORM_CORE_PSTORM_H_
#define PSTORM_CORE_PSTORM_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

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
  /// Passed through to the profile store: the backing table and the
  /// ingest knob.
  ProfileStoreOptions store;
};

/// The PStorM system facade (thesis chapter 3): given a submitted MR job,
/// run one sample map task (plus reducers) with profiling on, probe the
/// profile store, and
///
///  * on a match: hand the (possibly composite) stored profile to the
///    Starfish CBO, then run the job with the tuned configuration and
///    profiling off. The CBO's answer is a pure function of the profile
///    and the data set, so it is memoized per (map entry, reduce entry,
///    data set): a recurring submission reuses the recommendation instead
///    of searching again;
///  * on No Match Found: run the job with the submitted configuration and
///    profiling on, and store the collected complete profile for future
///    submissions.
///
/// Thread-safety contract: SubmitJob is reentrant — any number of threads
/// may submit jobs concurrently against one PStorM instance. Each call
/// works on its own SubmissionContext (sample, probe, matcher, CBO). The
/// shared mutable state is the ProfileStore, which synchronizes
/// internally, and the recommendation memo: one mutex-guarded map, locked
/// only to look up or insert a record, never across a search. Matching
/// runs against whatever profiles are visible when the probe's store
/// lookups execute, exactly as in a shared-cluster deployment where
/// submissions race; the memo then answers for exactly the entries the
/// match stitched from.
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

  /// The same workflow for a caller that already holds the static
  /// features of `job.program` (a catalogue job's, say), which it must
  /// pass exactly as ExtractStaticFeatures returns them. The form above
  /// extracts them and forwards here.
  Result<SubmissionOutcome> SubmitJob(
      const jobs::BenchmarkJob& job,
      const staticanalysis::StaticFeatures& statics,
      const mrsim::DataSetSpec& data, const mrsim::Configuration& submitted,
      uint64_t seed, obs::SubmissionTrace* trace = nullptr) const;

  /// Adds an existing complete profile (e.g. collected elsewhere).
  Status AddProfile(const std::string& job_key,
                    const profiler::ExecutionProfile& profile,
                    const staticanalysis::StaticFeatures& statics);

  ProfileStore& store() { return *store_; }
  const ProfileStore& store() const { return *store_; }

  /// Most records the recommendation memo keeps. A 30 s perfbench run
  /// misses the memo at most 250 times, so the bound only matters when
  /// data sets or stored profiles keep changing. An insert into a full
  /// memo first drops the records whose entries have expired, and clears
  /// the memo if that frees no room.
  static constexpr size_t kRecommendationMemoCapacity = 1024;

  /// Records in the recommendation memo (tests/diagnostics).
  size_t recommendation_memo_size() const;

 private:
  PStorM(const mrsim::Simulator* simulator,
         std::unique_ptr<ProfileStore> store, PStormOptions options);

  /// Everything one submission touches, stack-allocated per SubmitJob
  /// call so concurrent submissions share nothing mutable.
  struct SubmissionContext {
    const jobs::BenchmarkJob& job;
    const staticanalysis::StaticFeatures& statics;
    const mrsim::DataSetSpec& data;
    const mrsim::Configuration& submitted;
    const uint64_t seed;
    profiler::ProfiledRun sample;
    MatchResult match;
    SubmissionOutcome outcome;
    obs::SubmissionTrace* trace = nullptr;  // may be null
  };

  /// Workflow phases, each operating on the call's own context.
  Status SampleAndProbe(SubmissionContext& ctx) const;
  Status RunTuned(SubmissionContext& ctx) const;
  Status RunUntunedAndStore(SubmissionContext& ctx) const;

  /// The CBO's recommendation for the call's match and data set: the
  /// memoized one when the memo holds a record for the same two entries
  /// and data set, else a fresh search, which is then memoized.
  Result<optimizer::CostBasedOptimizer::Recommendation> Recommend(
      const SubmissionContext& ctx) const;

  /// Identifies one search: the addresses of the decoded entries the
  /// match stitched from and every DataSetSpec field, the doubles by bit
  /// pattern. An address alone could be reused, so a record also holds
  /// the entries' owners and hits only when both are the submission's.
  struct MemoKey {
    const StoredEntry* map_entry = nullptr;
    const StoredEntry* reduce_entry = nullptr;
    std::string data_name;
    uint64_t size_bytes = 0;
    uint64_t avg_record_bits = 0;
    uint64_t split_bytes = 0;
    uint64_t compress_ratio_bits = 0;
    uint64_t vocabulary_mb_bits = 0;

    friend bool operator==(const MemoKey&, const MemoKey&) = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const;
  };
  /// Under the GetEntryRef cache rule only a PutProfile or DeleteProfile
  /// of an entry's own key replaces it, so a later match of that key
  /// returns a different owner and misses: the memo needs no
  /// invalidation path of its own.
  struct MemoRecord {
    std::weak_ptr<const StoredEntry> map_entry;
    std::weak_ptr<const StoredEntry> reduce_entry;
    optimizer::CostBasedOptimizer::Recommendation recommendation;
  };

  const mrsim::Simulator* simulator_;
  std::unique_ptr<ProfileStore> store_;
  const PStormOptions options_;
  const profiler::Profiler profiler_;
  const whatif::WhatIfEngine engine_;
  mutable std::mutex memo_mu_;
  mutable std::unordered_map<MemoKey, MemoRecord, MemoKeyHash> memo_;
};

}  // namespace pstorm::core

#endif  // PSTORM_CORE_PSTORM_H_
