#include "core/pstorm.h"

#include <bit>

#include "common/hash.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace pstorm::core {

namespace {

obs::Counter& Submissions() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pstorm_submissions_total");
  return c;
}

obs::Counter& SubmissionsMatched() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_submissions_matched_total");
  return c;
}

obs::Counter& SubmissionsComposite() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_submissions_composite_total");
  return c;
}

obs::Counter& SubmissionsNoMatch() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_submissions_no_match_total");
  return c;
}

obs::Counter& MemoHits() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pstorm_cbo_memo_hits_total");
  return c;
}

obs::Counter& MemoMisses() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_cbo_memo_misses_total");
  return c;
}

/// Whether `a` and `b` share an owner: the same control block, whatever
/// the address each points at.
bool SameOwner(const std::weak_ptr<const StoredEntry>& a,
               const std::shared_ptr<const StoredEntry>& b) {
  return !a.owner_before(b) && !b.owner_before(a);
}

}  // namespace

size_t PStorM::MemoKeyHash::operator()(const MemoKey& key) const {
  uint64_t h = HashCombine(reinterpret_cast<uintptr_t>(key.map_entry),
                           reinterpret_cast<uintptr_t>(key.reduce_entry));
  h = HashCombine(h, std::hash<std::string>{}(key.data_name));
  for (uint64_t field : {key.size_bytes, key.avg_record_bits, key.split_bytes,
                         key.compress_ratio_bits, key.vocabulary_mb_bits}) {
    h = HashCombine(h, field);
  }
  return h;
}

PStorM::PStorM(const mrsim::Simulator* simulator,
               std::unique_ptr<ProfileStore> store, PStormOptions options)
    : simulator_(simulator),
      store_(std::move(store)),
      options_(options),
      profiler_(simulator),
      engine_(simulator->cluster()) {}

Result<std::unique_ptr<PStorM>> PStorM::Create(
    const mrsim::Simulator* simulator, storage::Env* env,
    std::string store_path, PStormOptions options) {
  PSTORM_CHECK(simulator != nullptr);
  PSTORM_ASSIGN_OR_RETURN(
      auto store,
      ProfileStore::Open(env, std::move(store_path), options.store));
  return std::unique_ptr<PStorM>(
      new PStorM(simulator, std::move(store), options));
}

Status PStorM::AddProfile(const std::string& job_key,
                          const profiler::ExecutionProfile& profile,
                          const staticanalysis::StaticFeatures& statics) {
  return store_->PutProfile(job_key, profile, statics);
}

Status PStorM::SampleAndProbe(SubmissionContext& ctx) const {
  // 1. One sample map task with profiling on: PStorM's only overhead.
  {
    obs::Span span(ctx.trace, "sample");
    PSTORM_ASSIGN_OR_RETURN(
        ctx.sample,
        profiler_.ProfileOneTask(ctx.job.spec, ctx.data, ctx.submitted,
                                 ctx.seed));
  }
  ctx.outcome.sample_runtime_s = ctx.sample.run.runtime_s;

  // 2. Probe the store. A corrupt store must not fail the submission: a
  // wrong profile would mistune the job, but No Match Found merely costs
  // one profiled run (thesis §3) — so corruption degrades to the untuned
  // fallback path instead of propagating.
  obs::Span span(ctx.trace, "match");
  const JobFeatureVector probe =
      BuildFeatureVector(ctx.sample.profile, ctx.statics);
  MultiStageMatcher matcher(store_.get(), options_.match);
  if (Result<MatchResult> matched = matcher.Match(probe, ctx.trace);
      matched.ok()) {
    ctx.match = std::move(matched).value();
  } else if (matched.status().IsCorruption()) {
    PSTORM_LOG(Warning) << "profile store corruption while matching; "
                        << "treating as No Match Found: "
                        << matched.status().ToString();
    ctx.match = MatchResult{};
  } else {
    return matched.status();
  }
  return Status::OK();
}

Status PStorM::RunTuned(SubmissionContext& ctx) const {
  // 3a. Tune with the returned profile; run with profiling off.
  ctx.outcome.matched = true;
  ctx.outcome.composite = ctx.match.composite;
  ctx.outcome.profile_source =
      ctx.match.composite ? ctx.match.map_source + "+" + ctx.match.reduce_source
                          : ctx.match.map_source;
  optimizer::CostBasedOptimizer::Recommendation recommendation;
  {
    obs::Span span(ctx.trace, "cbo_optimize");
    PSTORM_ASSIGN_OR_RETURN(recommendation, Recommend(ctx));
  }
  ctx.outcome.config_used = recommendation.config;
  ctx.outcome.predicted_runtime_s = recommendation.predicted_runtime_s;
  mrsim::RunOptions run_options;
  run_options.seed = ctx.seed ^ 0x72756eULL;
  obs::Span span(ctx.trace, "run_tuned");
  PSTORM_ASSIGN_OR_RETURN(
      mrsim::JobRunResult run,
      simulator_->RunJob(ctx.job.spec, ctx.data, recommendation.config,
                         run_options));
  ctx.outcome.runtime_s = run.runtime_s;
  return Status::OK();
}

Result<optimizer::CostBasedOptimizer::Recommendation> PStorM::Recommend(
    const SubmissionContext& ctx) const {
  const std::shared_ptr<const StoredEntry>& map_entry = ctx.match.map_entry;
  const std::shared_ptr<const StoredEntry>& reduce_entry =
      ctx.match.reduce_entry;
  const mrsim::DataSetSpec& data = ctx.data;
  MemoKey key{map_entry.get(),
              reduce_entry.get(),
              data.name,
              data.size_bytes,
              std::bit_cast<uint64_t>(data.avg_record_bytes),
              data.split_bytes,
              std::bit_cast<uint64_t>(data.compress_ratio),
              std::bit_cast<uint64_t>(data.vocabulary_mb)};
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    auto it = memo_.find(key);
    if (it != memo_.end() && SameOwner(it->second.map_entry, map_entry) &&
        SameOwner(it->second.reduce_entry, reduce_entry)) {
      MemoHits().Increment();
      if (ctx.trace != nullptr) ctx.trace->cbo.memo_hit = true;
      return it->second.recommendation;
    }
  }
  MemoMisses().Increment();
  const optimizer::CostBasedOptimizer cbo(&engine_, options_.cbo);
  PSTORM_ASSIGN_OR_RETURN(
      optimizer::CostBasedOptimizer::Recommendation recommendation,
      cbo.Optimize(ctx.match.profile, data,
                   ctx.trace != nullptr ? &ctx.trace->cbo : nullptr));
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_.size() >= kRecommendationMemoCapacity && !memo_.contains(key)) {
    std::erase_if(memo_, [](const auto& record) {
      return record.second.map_entry.expired() ||
             record.second.reduce_entry.expired();
    });
    if (memo_.size() >= kRecommendationMemoCapacity) memo_.clear();
  }
  memo_.insert_or_assign(
      std::move(key), MemoRecord{map_entry, reduce_entry, recommendation});
  return recommendation;
}

size_t PStorM::recommendation_memo_size() const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  return memo_.size();
}

Status PStorM::RunUntunedAndStore(SubmissionContext& ctx) const {
  // 3b. No Match Found: run with the submitted configuration, profiler
  // on, and keep the collected profile for the future.
  obs::Span span(ctx.trace, "run_untuned_and_store");
  mrsim::RunOptions run_options;
  run_options.profiling_enabled = true;
  run_options.seed = ctx.seed ^ 0x72756eULL;
  PSTORM_ASSIGN_OR_RETURN(
      mrsim::JobRunResult run,
      simulator_->RunJob(ctx.job.spec, ctx.data, ctx.submitted, run_options));
  ctx.outcome.config_used = ctx.submitted;
  ctx.outcome.runtime_s = run.runtime_s;
  const profiler::ExecutionProfile collected = profiler::Profiler::
      ExtractProfile(run, ctx.job.spec.name, ctx.data, 1.0);
  const std::string job_key = ctx.job.spec.name + "@" + ctx.data.name;
  if (Status stored = store_->PutProfile(job_key, collected, ctx.statics);
      stored.ok()) {
    ctx.outcome.stored_new_profile = true;
    if (ctx.trace != nullptr) ++ctx.trace->store.profiles_put;
  } else if (stored.IsCorruption()) {
    // The job itself ran fine; losing one profile to a sick store is the
    // cheaper outcome.
    PSTORM_LOG(Warning) << "profile store corruption while storing "
                        << job_key << "; profile dropped: "
                        << stored.ToString();
  } else if (stored.code() == StatusCode::kFailedPrecondition) {
    // Read-only replica store: jobs submitted against a warm standby are
    // still matched and tuned from the replicated profiles; only the
    // write-back is skipped (it belongs on the primary).
    PSTORM_LOG(Info) << "profile store is read-only; profile for "
                     << job_key << " not stored: " << stored.ToString();
  } else {
    return stored;
  }
  return Status::OK();
}

Result<PStorM::SubmissionOutcome> PStorM::SubmitJob(
    const jobs::BenchmarkJob& job, const mrsim::DataSetSpec& data,
    const mrsim::Configuration& submitted, uint64_t seed,
    obs::SubmissionTrace* trace) const {
  return SubmitJob(job, staticanalysis::ExtractStaticFeatures(job.program),
                   data, submitted, seed, trace);
}

Result<PStorM::SubmissionOutcome> PStorM::SubmitJob(
    const jobs::BenchmarkJob& job,
    const staticanalysis::StaticFeatures& statics,
    const mrsim::DataSetSpec& data, const mrsim::Configuration& submitted,
    uint64_t seed, obs::SubmissionTrace* trace) const {
  static obs::Histogram& submit_micros =
      obs::MetricsRegistry::Global().GetHistogram("pstorm_submit_micros");
  obs::ScopedTimer submit_timer(&submit_micros);
  Submissions().Increment();
  SubmissionContext ctx{job, statics, data, submitted, seed, {}, {}, {}, trace};
  if (trace != nullptr) {
    trace->job_key = job.spec.name + "@" + data.name;
  }
  PSTORM_RETURN_IF_ERROR(SampleAndProbe(ctx));
  if (ctx.match.found) {
    SubmissionsMatched().Increment();
    if (ctx.match.composite) SubmissionsComposite().Increment();
    PSTORM_RETURN_IF_ERROR(RunTuned(ctx));
  } else {
    SubmissionsNoMatch().Increment();
    PSTORM_RETURN_IF_ERROR(RunUntunedAndStore(ctx));
  }
  return std::move(ctx.outcome);
}

}  // namespace pstorm::core
