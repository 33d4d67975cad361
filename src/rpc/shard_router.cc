#include "rpc/shard_router.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string_view>
#include <utility>

#include "common/hash.h"
#include "jobs/benchmark_jobs.h"
#include "obs/metrics.h"
#include "profiler/profile.h"
#include "storage/env.h"

namespace pstorm::rpc {
namespace {

obs::Counter& QuotaRejections() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_rpc_quota_rejections_total");
  return c;
}
obs::Counter& SubmissionsRouted() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_rpc_submissions_routed_total");
  return c;
}

/// Widest co-occurrence window a client may request. The job model scales
/// map output linearly with the window, so an absurd window is an absurd
/// amount of simulated work; real co-occurrence windows are single digits.
constexpr int kMaxCooccurrenceWindow = 1024;

/// Builds a parameterized job for one request: `grep` and
/// `word-cooccurrence-pairs` take their user parameter from `param` (0 =
/// the job's default), `word-cooccurrence-pairs-w<N>` its window from the
/// name. Names in the catalogue table never get here. `param` arrives off
/// the wire, so every range precondition of the job constructors is
/// re-checked here and answered with InvalidArgument — a hostile frame
/// must never reach a PSTORM_CHECK.
Result<jobs::BenchmarkJob> BuildParameterizedJob(const std::string& name,
                                                 double param) {
  if (name == "grep") {
    if (param == 0.0) return jobs::Grep();
    // NaN fails this comparison too and lands in the error branch.
    if (!(param > 0.0 && param <= 1.0)) {
      return Status::InvalidArgument(
          "grep selectivity must be in (0, 1], got " + std::to_string(param));
    }
    return jobs::Grep(param);
  }
  constexpr std::string_view kPairsPrefix = "word-cooccurrence-pairs-w";
  if (name.rfind(kPairsPrefix, 0) == 0) {
    const char* first = name.c_str() + kPairsPrefix.size();
    const char* last = name.c_str() + name.size();
    int window = 0;
    const auto [ptr, ec] = std::from_chars(first, last, window);
    if (ec != std::errc() || ptr != last || window < 1 ||
        window > kMaxCooccurrenceWindow) {
      return Status::InvalidArgument("bad co-occurrence window in: " + name);
    }
    return jobs::WordCooccurrencePairs(window);
  }
  if (name == "word-cooccurrence-pairs") {
    if (param == 0.0) return jobs::WordCooccurrencePairs();
    if (!(param >= 1.0 && param <= kMaxCooccurrenceWindow) ||
        param != std::floor(param)) {
      return Status::InvalidArgument(
          "co-occurrence window must be an integer in [1, " +
          std::to_string(kMaxCooccurrenceWindow) + "], got " +
          std::to_string(param));
    }
    return jobs::WordCooccurrencePairs(static_cast<int>(param));
  }
  return Status::NotFound("unknown benchmark job: " + name);
}

}  // namespace

std::string ShardRouter::RoutingKey(const std::string& tenant) {
  // Mix64 on top of FNV so near-identical tenant names still land far
  // apart; 16 zero-padded hex digits sort like the uint64 they encode.
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(Mix64(Fnv1a64(tenant))));
  return std::string(buf, 16);
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    const mrsim::Simulator* simulator, storage::Env* env,
    const std::string& base_path, ShardRouterOptions options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (!options.split_points.empty() &&
      options.split_points.size() != options.num_shards - 1) {
    return Status::InvalidArgument(
        "split_points must have num_shards - 1 entries");
  }
  if (!std::is_sorted(options.split_points.begin(),
                      options.split_points.end())) {
    return Status::InvalidArgument("split_points must be sorted");
  }

  auto router = std::unique_ptr<ShardRouter>(new ShardRouter());
  router->tenant_inflight_limit_ = options.tenant_inflight_limit;
  if (!options.split_points.empty()) {
    router->split_points_ = std::move(options.split_points);
  } else {
    // Evenly spaced over the hashed keyspace: shard i starts at the hex
    // rendering of i * 2^64 / N, mirroring how RoutingKey renders tenants.
    for (uint32_t i = 1; i < options.num_shards; ++i) {
      const uint64_t start =
          static_cast<uint64_t>((static_cast<unsigned __int128>(i) << 64) /
                                options.num_shards);
      char buf[17];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(start));
      router->split_points_.emplace_back(buf, 16);
    }
  }

  for (uint32_t i = 0; i < options.num_shards; ++i) {
    const std::string path =
        storage::JoinPath(base_path, "shard-" + std::to_string(i));
    PSTORM_ASSIGN_OR_RETURN(
        std::unique_ptr<core::PStorM> shard,
        core::PStorM::Create(simulator, env, path, options.pstorm));
    router->shards_.push_back(std::move(shard));
    router->shard_submissions_.push_back(
        std::make_unique<std::atomic<uint64_t>>(0));
  }
  return router;
}

uint32_t ShardRouter::ShardFor(const std::string& tenant) const {
  const std::string key = RoutingKey(tenant);
  // First split point > key; the shard before it owns the key. (Shard 0
  // implicitly starts at "".)
  const auto it =
      std::upper_bound(split_points_.begin(), split_points_.end(), key);
  return static_cast<uint32_t>(it - split_points_.begin());
}

Result<SubmitJobResponse> ShardRouter::SubmitJob(
    const SubmitJobRequest& request) {
  const jobs::CatalogueJob* fixed = jobs::FindCatalogueJob(request.job_name);
  std::optional<jobs::BenchmarkJob> built;
  if (fixed == nullptr) {
    PSTORM_ASSIGN_OR_RETURN(
        built, BuildParameterizedJob(request.job_name, request.job_param));
  }
  // Tenant names are client-chosen, so the in-flight table must not grow
  // with distinct names seen: entries exist only while a tenant actually
  // has submissions in flight (and not at all when quotas are off).
  if (tenant_inflight_limit_ != 0) {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    uint32_t& inflight = tenant_inflight_[request.tenant];
    if (inflight >= tenant_inflight_limit_) {
      ++quota_rejections_;
      QuotaRejections().Increment();
      return Status::ResourceExhausted(
          "tenant '" + request.tenant + "' at its in-flight quota (" +
          std::to_string(tenant_inflight_limit_) + "); retry later");
    }
    ++inflight;
  }

  const uint32_t shard_idx = ShardFor(request.tenant);
  shard_submissions_[shard_idx]->fetch_add(1, std::memory_order_relaxed);
  SubmissionsRouted().Increment();

  const core::PStorM& shard = *shards_[shard_idx];
  Result<core::PStorM::SubmissionOutcome> outcome =
      fixed != nullptr
          ? shard.SubmitJob(fixed->job, fixed->statics, request.data,
                            request.submitted, request.seed)
          : shard.SubmitJob(*built, request.data, request.submitted,
                            request.seed);
  if (tenant_inflight_limit_ != 0) {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    const auto it = tenant_inflight_.find(request.tenant);
    if (it != tenant_inflight_.end() && --it->second == 0) {
      tenant_inflight_.erase(it);
    }
  }
  if (!outcome.ok()) return outcome.status();

  SubmitJobResponse response;
  response.matched = outcome->matched;
  response.composite = outcome->composite;
  response.stored_new_profile = outcome->stored_new_profile;
  response.profile_source = outcome->profile_source;
  response.config_used = outcome->config_used;
  response.runtime_s = outcome->runtime_s;
  response.sample_runtime_s = outcome->sample_runtime_s;
  response.predicted_runtime_s = outcome->predicted_runtime_s;
  response.shard = shard_idx;
  return response;
}

Status ShardRouter::PutProfile(const PutProfileRequest& request) {
  PSTORM_ASSIGN_OR_RETURN(const profiler::ExecutionProfile profile,
                          profiler::ExecutionProfile::Parse(
                              request.profile_text));
  return shards_[ShardFor(request.tenant)]->AddProfile(request.job_key,
                                                       profile,
                                                       request.statics);
}

GetStatsResponse ShardRouter::Stats() const {
  GetStatsResponse stats;
  for (uint32_t i = 0; i < shards_.size(); ++i) {
    ShardStatsEntry entry;
    entry.shard = i;
    entry.start_key = i == 0 ? "" : split_points_[i - 1];
    entry.num_profiles = shards_[i]->store().num_profiles();
    entry.submissions =
        shard_submissions_[i]->load(std::memory_order_relaxed);
    stats.shards.push_back(std::move(entry));
  }
  std::lock_guard<std::mutex> lock(tenants_mu_);
  stats.quota_rejections = quota_rejections_;
  return stats;
}

}  // namespace pstorm::rpc
