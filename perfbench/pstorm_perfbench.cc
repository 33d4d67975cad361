// End-to-end benchmark of the PStorM tuning service.
//
//   pstorm_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans <file>]
//
// Workloads (perfbench/NOTES.md says why each exists):
//   recurring-rpc  Table 6.1 store (54 pairs submitted cold), served by a
//                  1-shard ShardRouter behind rpc::Server on loopback;
//                  4 closed-loop client connections re-submit the pairs.
//   wide-store     The same store plus 1,000 synthetic profiles, reopened;
//                  4 in-process threads call PStorM::SubmitJob.
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it rebuilds every submission from public calls, records one span per
// call, and reports per-layer metrics. Every option is the library
// default (the PStormOptions pstorm_server serves with). The last line of
// stdout is one JSON object; every line before it is a human-readable
// report.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/random.h"
#include "common/statistics.h"
#include "core/feature_vector.h"
#include "core/matcher.h"
#include "core/pstorm.h"
#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "mrsim/cluster.h"
#include "mrsim/simulator.h"
#include "obs/metrics.h"
#include "optimizer/cbo.h"
#include "profiler/profiler.h"
#include "rpc/client.h"
#include "rpc/server.h"
#include "rpc/shard_router.h"
#include "rpc/wire.h"
#include "staticanalysis/features.h"
#include "storage/env.h"
#include "tools/synthetic_corpus.h"
#include "whatif/whatif_engine.h"

namespace pstorm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- settings

enum class Workload { kRecurringRpc, kWideStore };

/// Client threads + connections in total, on every workload (= nproc of
/// the 4-vCPU box the bounds were set on).
constexpr int kClients = 4;
/// Synthetic profiles bulk-loaded behind the Table 6.1 ones (wide store).
constexpr size_t kWideSyntheticProfiles = 1000;
/// Segments of an end-to-end run's timed phase. After each, a fresh store
/// is built (a setup_s sample) and probed, so every metric's samples
/// spread over the whole run.
constexpr int kRounds = 4;
/// Serial PutProfile burst per probe store (put_p50/p90), and the put
/// probe of the traced run.
constexpr size_t kPutBurst = 54;
/// Untimed load before the timed phase, so the decoded-entry and block
/// caches have filled.
constexpr double kWarmupSeconds = 2.0;
/// Minimum reopen time per round (restart_ms).
constexpr double kRestartSeconds = 0.25;
/// Every Nth closed-loop submission of a traced RPC run is also sent over
/// the wire and through the in-process router, to time the difference.
constexpr size_t kRpcSampleEvery = 16;
/// Same salt PStorM::SubmitJob applies to the submission seed for the
/// final run; the composed path must reproduce it bit for bit.
constexpr uint64_t kRunSeedSalt = 0x72756eULL;
constexpr char kBasePath[] = "/perfbench";
/// Seed of the store every run serves (Table 6.1 warm-up submissions and
/// synthetic corpus): all runs tune against the same profiles, and
/// --seed drives the traffic: client operation lists and probe puts.
constexpr uint64_t kStoreSeed = 2014;

/// recurring-rpc serves the Table 6.1 store over RPC; wide-store serves
/// the wide store in-process.
bool IsRpc(Workload w) { return w == Workload::kRecurringRpc; }

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) { return Seconds(d) * 1e3; }

double Quantile(const std::vector<double>& values, double q) {
  return Percentile(values, q * 100.0);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream, uint64_t index) {
  return Mix64(HashCombine(HashCombine(seed, stream), index));
}

/// Submission seed of pair `i` in the quality pass: fixed, so
/// tuned_speedup and the checks repeat exactly on every run.
uint64_t QualitySeed(size_t i) {
  return DeriveSeed(kStoreSeed, 0x7175616cULL, i);
}

/// Correctness findings; any one makes the run exit nonzero.
class Checks {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_++ < 10) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  bool ok() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_ == 0;
  }

 private:
  mutable std::mutex mu_;
  size_t failures_ = 0;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "pstorm_perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T ValueOrDie(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

void OkOrDie(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

// ------------------------------------------------------------------- spans

/// One thread's spans, kept in memory until the run ends. A span records
/// the public call it wraps: name, start, end, enclosing span and the
/// submission it belongs to.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t submission;
    int32_t parent;
    int32_t root;
    int64_t start_ns;
    int64_t end_ns;
  };

  int32_t Begin(const char* name, uint64_t submission) {
    const auto index = static_cast<int32_t>(spans_.size());
    const int32_t root = current_ < 0 ? index : spans_[current_].root;
    spans_.push_back({name, submission, current_, root, NowNs(), 0});
    current_ = index;
    return index;
  }
  void End(int32_t index) {
    spans_[index].end_ns = NowNs();
    current_ = spans_[index].parent;
  }
  const std::vector<Span>& spans() const { return spans_; }

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
  int32_t current_ = -1;
};

/// RAII span; a null log records nothing (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t submission)
      : log_(log), index_(log != nullptr ? log->Begin(name, submission) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// --------------------------------------------------------------- catalogue

/// One Table 6.1 (job, data set) pair, with the job resolved by catalogue
/// name exactly as ShardRouter resolves a wire request.
struct Pair {
  std::string key;
  jobs::BenchmarkJob job;
  mrsim::DataSetSpec data;
};

struct Catalogue {
  std::vector<Pair> pairs;
  /// Pairs whose default-config run fails (the thesis's stripes OOM);
  /// never submitted, so no operation fails by construction.
  std::vector<std::string> excluded;
};

Catalogue BuildCatalogue(const mrsim::Simulator& sim) {
  Catalogue catalogue;
  const std::vector<jobs::BenchmarkJob> all = jobs::AllBenchmarkJobs();
  for (const jobs::WorkloadEntry& entry : jobs::Table61Workload()) {
    const std::string& name = entry.job.spec.name;
    const auto job = std::find_if(all.begin(), all.end(), [&](const auto& j) {
      return j.spec.name == name;
    });
    if (job == all.end()) Die("job not in catalogue: " + name);
    Pair pair{name + "@" + entry.data_set, *job,
              ValueOrDie(jobs::FindDataSet(entry.data_set), entry.data_set)};
    if (!sim.RunJob(pair.job.spec, pair.data, mrsim::Configuration{}).ok()) {
      catalogue.excluded.push_back(pair.key);
      continue;
    }
    catalogue.pairs.push_back(std::move(pair));
  }
  return catalogue;
}

rpc::SubmitJobRequest MakeRequest(const Pair& pair, std::string tenant,
                                  uint64_t seed) {
  rpc::SubmitJobRequest request;
  request.tenant = std::move(tenant);
  request.job_name = pair.job.spec.name;
  request.data = pair.data;
  request.seed = seed;
  return request;
}

/// A client's fixed operation list: round after round of every pair in a
/// seeded order, each submission with a fresh seed. Depends only on
/// (seed, client), never on timing.
class OpList {
 public:
  struct Op {
    size_t pair;
    uint64_t seed;
  };

  OpList(size_t num_pairs, uint64_t seed, uint64_t client)
      : num_pairs_(num_pairs), seed_(seed), client_(client) {}

  Op Get(size_t k) {
    const size_t round = k / num_pairs_;
    if (round != round_ || order_.empty()) {
      order_.resize(num_pairs_);
      for (size_t i = 0; i < num_pairs_; ++i) order_[i] = i;
      Rng rng(DeriveSeed(seed_, 0x6f72646572ULL + client_, round));
      for (size_t i = num_pairs_ - 1; i > 0; --i) {
        std::swap(order_[i], order_[rng.NextUint64(i + 1)]);
      }
      round_ = round;
    }
    return {order_[k % num_pairs_],
            DeriveSeed(seed_, 0x7375626dULL + client_, k)};
  }

 private:
  size_t num_pairs_;
  uint64_t seed_;
  uint64_t client_;
  size_t round_ = 0;
  std::vector<size_t> order_;
};

// ---------------------------------------------------------------- outcomes

/// An in-process outcome in its wire form: every path's outcome is
/// compared, and sanity-checked, as a rpc::SubmitJobResponse.
rpc::SubmitJobResponse ToResponse(const core::PStorM::SubmissionOutcome& o) {
  rpc::SubmitJobResponse r;
  r.matched = o.matched;
  r.composite = o.composite;
  r.stored_new_profile = o.stored_new_profile;
  r.profile_source = o.profile_source;
  r.config_used = o.config_used;
  r.runtime_s = o.runtime_s;
  r.sample_runtime_s = o.sample_runtime_s;
  r.predicted_runtime_s = o.predicted_runtime_s;
  return r;
}

/// What every served outcome must satisfy.
std::string SanityError(const rpc::SubmitJobResponse& o) {
  if (!(std::isfinite(o.runtime_s) && o.runtime_s > 0)) return "bad runtime";
  if (!(std::isfinite(o.sample_runtime_s) && o.sample_runtime_s > 0)) {
    return "bad sample runtime";
  }
  if (!o.config_used.Validate().ok()) return "invalid config_used";
  if (o.matched == o.stored_new_profile) {
    return "neither matched nor stored (or both)";
  }
  if (o.matched == o.profile_source.empty()) return "profile source inconsistent";
  return "";
}

/// Byte-for-byte equality of two outcomes: configuration, runtimes to the
/// bit, profile source and flags.
bool SameOutcome(const rpc::SubmitJobResponse& a,
                 const rpc::SubmitJobResponse& b) {
  return rpc::EncodeSubmitJobResponse(a) == rpc::EncodeSubmitJobResponse(b);
}

// ----------------------------------------------------------------- service

/// The serving stack of one workload: an in-memory store (as pstorm_server
/// runs without --store), a 1-shard router with default options, and on
/// the RPC workloads a loopback server with default options.
struct Service {
  explicit Service(const mrsim::Simulator* simulator) : sim(simulator) {}

  core::PStorM& pstorm() { return router->shard(0); }
  core::ProfileStore& store() { return pstorm().store(); }
  std::string shard_path() const {
    return storage::JoinPath(kBasePath, "shard-0");
  }

  const mrsim::Simulator* sim;
  storage::InMemoryEnv env;  // Outlives router and server (member order).
  std::unique_ptr<rpc::ShardRouter> router;
  std::unique_ptr<rpc::Server> server;
};

/// Per-submission facts the traced composed path returns beside the
/// outcome.
struct ComposedFacts {
  int candidates = 0;
  core::SideMatch map_side;
  core::SideMatch reduce_side;
  size_t store_profiles = 0;
};

/// One submission rebuilt from public calls, in PStorM::SubmitJob's order:
/// matched path ProfileOneTask -> ExtractStaticFeatures/BuildFeatureVector
/// -> Match -> Optimize -> RunJob; cold path adds a profiled RunJob ->
/// ExtractProfile -> PutProfile. With a null log it is the untraced
/// baseline of the same work.
Result<rpc::SubmitJobResponse> ComposedSubmit(Service& svc, const Pair& pair,
                                              uint64_t seed,
                                              SpanLog* log, uint64_t id,
                                              ComposedFacts* facts) {
  const core::PStormOptions options;
  const mrsim::Configuration submitted;
  const profiler::Profiler profiler(svc.sim);
  const whatif::WhatIfEngine engine(svc.sim->cluster());
  core::ProfileStore& store = svc.store();
  ScopedSpan root(log, "submit", id);

  profiler::ProfiledRun sample;
  {
    ScopedSpan span(log, "profiler.sample", id);
    PSTORM_ASSIGN_OR_RETURN(sample, profiler.ProfileOneTask(
                                        pair.job.spec, pair.data, submitted,
                                        seed));
  }
  staticanalysis::StaticFeatures statics;
  core::JobFeatureVector probe;
  {
    ScopedSpan span(log, "staticanalysis.features", id);
    statics = staticanalysis::ExtractStaticFeatures(pair.job.program);
    probe = core::BuildFeatureVector(sample.profile, statics);
  }
  core::MatchResult match;
  {
    ScopedSpan span(log, "core.match", id);
    facts->store_profiles = store.num_profiles();
    PSTORM_ASSIGN_OR_RETURN(
        match, core::MultiStageMatcher(&store, options.match).Match(probe));
  }
  facts->map_side = match.map_side;
  facts->reduce_side = match.reduce_side;

  rpc::SubmitJobResponse outcome;
  outcome.sample_runtime_s = sample.run.runtime_s;
  mrsim::RunOptions run_options;
  run_options.seed = seed ^ kRunSeedSalt;
  if (match.found) {
    outcome.matched = true;
    outcome.composite = match.composite;
    outcome.profile_source =
        match.composite ? match.map_source + "+" + match.reduce_source
                        : match.map_source;
    optimizer::CostBasedOptimizer::Recommendation recommendation;
    {
      ScopedSpan span(log, "optimizer.cbo", id);
      PSTORM_ASSIGN_OR_RETURN(
          recommendation,
          optimizer::CostBasedOptimizer(&engine, options.cbo)
              .Optimize(match.profile, pair.data));
    }
    facts->candidates = recommendation.candidates_evaluated;
    if (log != nullptr) {
      // One what-if call on the chosen config: the model's unit cost.
      ScopedSpan span(log, "whatif.predict", id);
      PSTORM_RETURN_IF_ERROR(
          engine.Predict(match.profile, pair.data, recommendation.config)
              .status());
    }
    outcome.config_used = recommendation.config;
    outcome.predicted_runtime_s = recommendation.predicted_runtime_s;
    ScopedSpan span(log, "mrsim.run", id);
    PSTORM_ASSIGN_OR_RETURN(
        mrsim::JobRunResult run,
        svc.sim->RunJob(pair.job.spec, pair.data, outcome.config_used,
                        run_options));
    outcome.runtime_s = run.runtime_s;
    return outcome;
  }

  run_options.profiling_enabled = true;
  mrsim::JobRunResult run;
  {
    ScopedSpan span(log, "mrsim.profiled_run", id);
    PSTORM_ASSIGN_OR_RETURN(run, svc.sim->RunJob(pair.job.spec, pair.data,
                                                 submitted, run_options));
  }
  outcome.config_used = submitted;
  outcome.runtime_s = run.runtime_s;
  profiler::ExecutionProfile collected;
  {
    ScopedSpan span(log, "profiler.extract", id);
    collected = profiler::Profiler::ExtractProfile(run, pair.job.spec.name,
                                                   pair.data, 1.0);
  }
  ScopedSpan span(log, "core.put", id);
  PSTORM_RETURN_IF_ERROR(store.PutProfile(
      pair.job.spec.name + "@" + pair.data.name, collected, statics));
  outcome.stored_new_profile = true;
  return outcome;
}

/// The synthetic profiles of the wide store.
tools::SyntheticCorpus WideCorpus() {
  tools::SyntheticCorpusOptions options;
  options.seed = kStoreSeed;
  options.num_profiles = kWideSyntheticProfiles;
  return tools::SyntheticCorpus(options);
}

/// Builds the workload's store and serving stack anew: the serial
/// cold warm-up of every pair, then (wide store) the synthetic bulk load
/// and a reopen with default options, then (RPC) the server start. A
/// non-null `log` warms up through the traced composed path instead of
/// the router.
std::unique_ptr<Service> BuildService(Workload w, const mrsim::Simulator* sim,
                                      const Catalogue& catalogue,
                                      SpanLog* log) {
  auto svc = std::make_unique<Service>(sim);
  svc->router = ValueOrDie(
      rpc::ShardRouter::Create(sim, &svc->env, kBasePath), "router");
  for (size_t i = 0; i < catalogue.pairs.size(); ++i) {
    const Pair& pair = catalogue.pairs[i];
    const uint64_t warm_seed = DeriveSeed(kStoreSeed, 0x7761726dULL, i);
    if (log != nullptr) {
      ComposedFacts facts;
      ValueOrDie(ComposedSubmit(*svc, pair, warm_seed, log, i, &facts),
                 "warm-up " + pair.key);
    } else {
      ValueOrDie(svc->router->SubmitJob(MakeRequest(pair, "warmup", warm_seed)),
                 "warm-up " + pair.key);
    }
  }
  if (!IsRpc(w)) {
    svc->router.reset();
    core::ProfileStoreOptions bulk;
    bulk.eager_flush = false;
    auto store = ValueOrDie(
        core::ProfileStore::Open(&svc->env, svc->shard_path(), bulk),
        "bulk-load open");
    OkOrDie(WideCorpus().LoadInto(store.get()), "bulk load");
    store.reset();
    svc->router = ValueOrDie(
        rpc::ShardRouter::Create(sim, &svc->env, kBasePath), "reopen");
  }
  if (IsRpc(w)) {
    svc->server = ValueOrDie(rpc::Server::Start(svc->router.get()), "server");
  }
  return svc;
}

std::unique_ptr<rpc::Client> Connect(const Service& svc) {
  return ValueOrDie(rpc::Client::Connect("127.0.0.1", svc.server->port()),
                    "connect");
}

// ------------------------------------------------------------ quality pass

struct QualityResult {
  double tuned_speedup = 0;
  size_t submissions = 0;
  size_t rpc_compared = 0;
  size_t composed_compared = 0;
  /// Real request/response pairs, for the codec probe.
  std::vector<std::pair<rpc::SubmitJobRequest, rpc::SubmitJobResponse>>
      exchanges;
};

/// Serial pass over every pair at fixed seeds, before the timed phase:
/// Σ default runtime ÷ Σ (tuned + sample runtime), plus the outcome
/// checks — wire vs in-process router byte-for-byte, and the composed
/// path vs PStorM::SubmitJob (config_used, runtime_s bits).
QualityResult QualityPass(Workload w, Service& svc, const Catalogue& catalogue,
                          Checks* checks) {
  QualityResult q;
  std::unique_ptr<rpc::Client> client = IsRpc(w) ? Connect(svc) : nullptr;
  double default_sum = 0, tuned_sum = 0;
  for (size_t i = 0; i < catalogue.pairs.size(); ++i) {
    const Pair& pair = catalogue.pairs[i];
    const uint64_t s = QualitySeed(i);
    const rpc::SubmitJobRequest request = MakeRequest(pair, "quality", s);
    mrsim::RunOptions run_options;
    run_options.seed = s ^ kRunSeedSalt;
    default_sum += ValueOrDie(svc.sim->RunJob(pair.job.spec, pair.data,
                                              mrsim::Configuration{},
                                              run_options),
                              "default run " + pair.key)
                       .runtime_s;

    rpc::SubmitJobResponse served;  // The workload's serving path.
    rpc::SubmitJobResponse direct;  // PStorM::SubmitJob, same input.
    if (client != nullptr) {
      served = ValueOrDie(client->SubmitJob(request),
                          "quality submit " + pair.key);
      direct = ValueOrDie(svc.router->SubmitJob(request),
                          "quality route " + pair.key);
      if (served.matched) {
        ++q.rpc_compared;
        if (!SameOutcome(served, direct)) {
          checks->Fail("wire outcome != router outcome for " + pair.key);
        }
      }
    } else {
      served = ToResponse(ValueOrDie(
          svc.pstorm().SubmitJob(pair.job, pair.data, request.submitted, s),
          "quality submit " + pair.key));
      direct = served;
    }
    q.exchanges.emplace_back(request, served);
    if (const std::string e = SanityError(served); !e.empty()) {
      checks->Fail(pair.key + ": " + e);
    }
    if (direct.matched) {
      ComposedFacts facts;
      const rpc::SubmitJobResponse composed = ValueOrDie(
          ComposedSubmit(svc, pair, s, nullptr, 0, &facts),
          "composed " + pair.key);
      ++q.composed_compared;
      if (!SameOutcome(composed, direct)) {
        checks->Fail("composed path != PStorM::SubmitJob for " + pair.key);
      }
    }
    tuned_sum += served.runtime_s + served.sample_runtime_s;
    ++q.submissions;
  }
  q.tuned_speedup = default_sum / tuned_sum;
  return q;
}

// -------------------------------------------------------------- load phase

/// Everything the timed phase observed.
struct PhaseResult {
  double wall_s = 0;
  std::vector<double> submit_ms;
  size_t submit_attempted = 0;
  size_t submit_failed = 0;
  size_t matched = 0;
  size_t composite = 0;
  size_t cold = 0;
  /// Traced runs: composed-path facts per submission.
  std::vector<ComposedFacts> facts;
  /// Sampled wire-vs-router comparisons (traced RPC runs).
  std::vector<double> rpc_overhead_ms;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<double> segment_rates;  // Submits/s of each segment.

  double submits_per_s() const {
    return static_cast<double>(submit_ms.size()) / wall_s;
  }
};

enum class Drive {
  kServed,    // The workload's serving path: RPC or PStorM::SubmitJob.
  kComposed,  // Public calls, untraced (trace-overhead baseline).
  kTraced,    // Public calls, one span per call.
};

/// Puts for the wide store: each replaces an existing synthetic profile
/// with a re-jittered one under the original key, so the store size stays
/// constant.
std::vector<rpc::PutProfileRequest> SyntheticPuts(uint64_t seed, size_t n) {
  const tools::SyntheticCorpus corpus = WideCorpus();
  Rng rng(DeriveSeed(seed, 0x70757473ULL, 0));
  std::vector<rpc::PutProfileRequest> puts;
  for (size_t i = 0; i < n; ++i) {
    const size_t index = rng.NextUint64(kWideSyntheticProfiles);
    const tools::SyntheticProfile original = corpus.Make(index);
    rpc::PutProfileRequest put;
    put.tenant = "probe";
    put.job_key = original.job_key;
    put.profile_text = corpus.MakeProbe(index, i + 1).profile.Serialize();
    put.statics = original.statics;
    puts.push_back(std::move(put));
  }
  return puts;
}

/// Re-puts of the stored Table 6.1 profiles, unchanged (that store has no
/// synthetic profiles to refresh).
std::vector<rpc::PutProfileRequest> StoredPuts(Service& svc, size_t n) {
  const auto keys = ValueOrDie(svc.store().ListJobKeys(), "list keys");
  std::vector<rpc::PutProfileRequest> puts;
  for (size_t i = 0; i < n; ++i) {
    const auto entry =
        ValueOrDie(svc.store().GetEntryRef(keys[i % keys.size()]), "entry");
    rpc::PutProfileRequest put;
    put.tenant = "probe";
    put.job_key = entry->job_key;
    put.profile_text = entry->profile.Serialize();
    put.statics = entry->statics;
    puts.push_back(std::move(put));
  }
  return puts;
}

/// One request timed over the wire and through the in-process router, in
/// the order `wire_first` gives, so neither call always runs on the
/// other's warm caches. With identical outcomes, wire − router is the
/// wire's cost.
struct WireVsRouter {
  Result<rpc::SubmitJobResponse> wire = Status::Internal("unset");
  Result<rpc::SubmitJobResponse> routed = Status::Internal("unset");
  double wire_ms = 0;
  double routed_ms = 0;

  bool Identical() const {
    return wire.ok() && routed.ok() && SameOutcome(*wire, *routed);
  }
};

WireVsRouter CompareWire(rpc::Client& client, rpc::ShardRouter& router,
                         const rpc::SubmitJobRequest& request, bool wire_first,
                         SpanLog* log, uint64_t id) {
  WireVsRouter c;
  auto call_wire = [&] {
    ScopedSpan span(log, "rpc.client_submit", id);
    const Clock::time_point t0 = Clock::now();
    c.wire = client.SubmitJob(request);
    c.wire_ms = Millis(Clock::now() - t0);
  };
  auto call_router = [&] {
    ScopedSpan span(log, "rpc.router_submit", id);
    const Clock::time_point t0 = Clock::now();
    c.routed = router.SubmitJob(request);
    c.routed_ms = Millis(Clock::now() - t0);
  };
  if (wire_first) {
    call_wire();
    call_router();
  } else {
    call_router();
    call_wire();
  }
  return c;
}

/// Where each client stands in its fixed list, carried from one segment
/// of a timed phase to the next.
using LoadCursor = std::vector<size_t>;

/// Runs one segment of a timed phase, adding to `r`: closed-loop clients
/// working through their fixed operation lists until `seconds` pass.
void RunSegment(Workload w, Drive drive, Service& svc,
                const Catalogue& catalogue, uint64_t seed, double seconds,
                LoadCursor* cursor, PhaseResult* r, Checks* checks) {
  const bool wire_clients = IsRpc(w) && drive == Drive::kServed;
  const bool sample_rpc = IsRpc(w) && drive != Drive::kServed;

  struct ClientState {
    std::unique_ptr<rpc::Client> client;
    std::unique_ptr<SpanLog> log;
    std::vector<double> latencies;
    std::vector<ComposedFacts> facts;
    std::vector<double> rpc_overhead;
    size_t attempted = 0, failed = 0, matched = 0, composite = 0, cold = 0;
    Clock::time_point end;
  };
  std::vector<ClientState> states(kClients);
  for (ClientState& st : states) {
    if (wire_clients || sample_rpc) st.client = Connect(svc);
    if (drive == Drive::kTraced) st.log = std::make_unique<SpanLog>();
  }

  obs::Counter& hits =
      obs::MetricsRegistry::Global().GetCounter("pstorm_block_cache_hits_total");
  obs::Counter& misses = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_block_cache_misses_total");
  const uint64_t hits0 = hits.Value(), misses0 = misses.Value();

  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  auto run_client = [&](int c) {
    ClientState& st = states[c];
    OpList ops(catalogue.pairs.size(), seed, c);
    size_t& k = (*cursor)[c];
    for (; Clock::now() < deadline; ++k) {
      const OpList::Op op = ops.Get(k);
      const Pair& pair = catalogue.pairs[op.pair];
      const std::string tenant = "tenant-" + std::to_string(c);
      ++st.attempted;
      const Clock::time_point t0 = Clock::now();
      Result<rpc::SubmitJobResponse> outcome = Status::Internal("unset");
      ComposedFacts facts;
      if (wire_clients) {
        outcome = st.client->SubmitJob(MakeRequest(pair, tenant, op.seed));
      } else if (drive == Drive::kServed) {
        auto served = svc.pstorm().SubmitJob(pair.job, pair.data,
                                             mrsim::Configuration{}, op.seed);
        if (served.ok()) {
          outcome = ToResponse(*served);
        } else {
          outcome = served.status();
        }
      } else {
        const uint64_t id = (static_cast<uint64_t>(c) << 32) | k;
        outcome = ComposedSubmit(svc, pair, op.seed, st.log.get(), id, &facts);
      }
      const Clock::time_point t1 = Clock::now();
      if (!outcome.ok()) {
        ++st.failed;
        checks->Fail(pair.key + ": " + outcome.status().ToString());
        continue;
      }
      if (const std::string e = SanityError(*outcome); !e.empty()) {
        checks->Fail(pair.key + ": " + e);
      }
      st.latencies.push_back(Millis(t1 - t0));
      st.matched += outcome->matched;
      st.composite += outcome->composite;
      st.cold += outcome->stored_new_profile;
      if (drive != Drive::kServed) st.facts.push_back(facts);

      if (sample_rpc && k % kRpcSampleEvery == 0) {
        // Another client's cold submission may change the store between
        // the two calls, so a differing pair is skipped here; the serial
        // quality pass asserts equality.
        const WireVsRouter cmp = CompareWire(
            *st.client, *svc.router, MakeRequest(pair, tenant, op.seed),
            k / kRpcSampleEvery % 2 == 0, st.log.get(),
            (static_cast<uint64_t>(c) << 32) | k);
        if (!cmp.wire.ok() || !cmp.routed.ok()) {
          checks->Fail("sampled submit failed for " + pair.key);
        } else if (cmp.Identical()) {
          st.rpc_overhead.push_back(cmp.wire_ms - cmp.routed_ms);
        }
      }
    }
    st.end = Clock::now();
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(run_client, c);
  for (std::thread& t : threads) t.join();

  Clock::time_point end = start;
  size_t completed = 0;
  for (ClientState& st : states) {
    end = std::max(end, st.end);
    completed += st.latencies.size();
    r->submit_ms.insert(r->submit_ms.end(), st.latencies.begin(),
                        st.latencies.end());
    r->facts.insert(r->facts.end(), st.facts.begin(), st.facts.end());
    r->rpc_overhead_ms.insert(r->rpc_overhead_ms.end(),
                              st.rpc_overhead.begin(), st.rpc_overhead.end());
    r->submit_attempted += st.attempted;
    r->submit_failed += st.failed;
    r->matched += st.matched;
    r->composite += st.composite;
    r->cold += st.cold;
    if (st.log != nullptr) r->logs.push_back(std::move(st.log));
  }
  r->wall_s += Seconds(end - start);
  r->segment_rates.push_back(completed / Seconds(end - start));
  r->cache_hits += hits.Value() - hits0;
  r->cache_misses += misses.Value() - misses0;
}

/// A whole timed phase in one segment.
PhaseResult RunPhase(Workload w, Drive drive, Service& svc,
                     const Catalogue& catalogue, uint64_t seed, double seconds,
                     Checks* checks) {
  PhaseResult r;
  LoadCursor cursor(kClients, 0);
  RunSegment(w, drive, svc, catalogue, seed, seconds, &cursor, &r, checks);
  return r;
}

// ------------------------------------------------------- after the phase

/// Serial in-process PStorM::AddProfile burst; returns per-put latency in
/// ms.
std::vector<double> PutBurst(Service& svc,
                             const std::vector<rpc::PutProfileRequest>& puts,
                             Checks* checks) {
  std::vector<double> ms;
  for (const rpc::PutProfileRequest& put : puts) {
    const auto profile = ValueOrDie(
        profiler::ExecutionProfile::Parse(put.profile_text), "parse");
    const Clock::time_point t0 = Clock::now();
    const Status s = svc.pstorm().AddProfile(put.job_key, profile, put.statics);
    const Clock::time_point t1 = Clock::now();
    if (!s.ok()) {
      checks->Fail("put " + put.job_key + ": " + s.ToString());
      continue;
    }
    ms.push_back(Millis(t1 - t0));
  }
  return ms;
}

void StopServing(Service& svc) {
  svc.server.reset();
  svc.router.reset();
}

/// Stops serving, then reopens the store with PStorM::Create (table open
/// plus match-index rebuild) for at least `seconds` and 5 reopens;
/// returns each reopen's ms.
std::vector<double> MeasureRestart(Service& svc, double seconds) {
  StopServing(svc);
  std::vector<double> ms;
  const Clock::time_point begin = Clock::now();
  while (ms.size() < 5 || Seconds(Clock::now() - begin) < seconds) {
    const Clock::time_point t0 = Clock::now();
    auto reopened = ValueOrDie(
        core::PStorM::Create(svc.sim, &svc.env, svc.shard_path()), "reopen");
    ms.push_back(Millis(Clock::now() - t0));
  }
  return ms;
}

// ------------------------------------------------------ per-layer probes

struct StorageDelta {
  double flushes = 0;
  double compactions = 0;
  double bytes_written = 0;
  double stall_ms = 0;
};

StorageDelta Delta(const storage::DbStats& before,
                   const storage::DbStats& after) {
  return {static_cast<double>(after.flushes - before.flushes),
          static_cast<double>(after.compactions - before.compactions),
          static_cast<double>(after.bytes_flushed + after.bytes_compacted -
                              before.bytes_flushed - before.bytes_compacted),
          (after.stall_micros - before.stall_micros) / 1e3};
}

/// Serial wire-layer probes of a traced run, after its timed phases.
struct RpcProbe {
  std::vector<double> echo_us;
  std::vector<double> codec_us;
  std::vector<double> put_parse_us;
  std::vector<double> submit_overhead_ms;  // wide-store (no RPC phase).
  std::vector<double> put_overhead_ms;
  std::vector<double> store_put_ms;
  StorageDelta storage;
  size_t puts = 0;
};

RpcProbe ProbeRpc(Workload w, Service& svc, const QualityResult& quality,
                  const std::vector<rpc::PutProfileRequest>& puts,
                  Checks* checks) {
  RpcProbe p;
  if (svc.server == nullptr) {
    // wide-store serves in-process; a loopback server starts only now, to
    // time the wire layer on its own.
    svc.server = ValueOrDie(rpc::Server::Start(svc.router.get()), "server");
  }
  auto client = Connect(svc);
  const std::string payload(128, 'x');
  for (int i = 0; i < 500; ++i) {
    const Clock::time_point t0 = Clock::now();
    const auto echoed = client->Echo(payload);
    p.echo_us.push_back(Millis(Clock::now() - t0) * 1e3);
    if (!echoed.ok() || *echoed != payload) checks->Fail("echo round trip");
  }
  for (int rep = 0; rep < 20; ++rep) {
    for (const auto& [request, response] : quality.exchanges) {
      const Clock::time_point t0 = Clock::now();
      const auto req = rpc::DecodeSubmitJobRequest(
          rpc::EncodeSubmitJobRequest(request));
      const std::string body = rpc::EncodeSubmitJobResponse(response);
      const auto resp = rpc::DecodeSubmitJobResponse(body);
      p.codec_us.push_back(Millis(Clock::now() - t0) * 1e3);
      if (!req.ok() || !resp.ok() ||
          rpc::EncodeSubmitJobResponse(*resp) != body) {
        checks->Fail("codec round trip");
      }
    }
  }
  if (w == Workload::kWideStore) {
    for (size_t i = 0; i < quality.exchanges.size(); ++i) {
      const WireVsRouter cmp =
          CompareWire(*client, *svc.router, quality.exchanges[i].first,
                      i % 2 == 0, nullptr, 0);
      if (!cmp.Identical()) {
        checks->Fail("probe wire outcome != router for " +
                     quality.exchanges[i].first.job_name);
      } else {
        p.submit_overhead_ms.push_back(cmp.wire_ms - cmp.routed_ms);
      }
    }
  }
  // Each put three ways: wire, in-process router (decode + Parse +
  // AddProfile), and ProfileStore::PutProfile alone.
  const storage::DbStats before = svc.store().StorageStats();
  for (const rpc::PutProfileRequest& put : puts) {
    const std::string body = rpc::EncodePutProfileRequest(put);
    const Clock::time_point t0 = Clock::now();
    const auto decoded = rpc::DecodePutProfileRequest(body);
    const auto profile =
        decoded.ok() ? profiler::ExecutionProfile::Parse(decoded->profile_text)
                     : Result<profiler::ExecutionProfile>(decoded.status());
    const Clock::time_point t1 = Clock::now();
    const Status wire = client->PutProfile(put);
    const Clock::time_point t2 = Clock::now();
    const Status routed = svc.router->PutProfile(put);
    const Clock::time_point t3 = Clock::now();
    const Status stored =
        profile.ok() ? svc.store().PutProfile(put.job_key, *profile,
                                              put.statics)
                     : profile.status();
    const Clock::time_point t4 = Clock::now();
    if (!wire.ok() || !routed.ok() || !stored.ok()) {
      checks->Fail("probe put failed for " + put.job_key);
      continue;
    }
    p.put_parse_us.push_back(Millis(t1 - t0) * 1e3);
    p.put_overhead_ms.push_back(Millis(t2 - t1) - Millis(t3 - t2));
    p.store_put_ms.push_back(Millis(t4 - t3));
    p.puts += 3;
  }
  p.storage = Delta(before, svc.store().StorageStats());
  return p;
}

/// MultiStageMatcher::MatchSide per side, on the quality pass's probes.
std::pair<std::vector<double>, std::vector<double>> ProbeMatchSides(
    Service& svc, const Catalogue& catalogue) {
  const profiler::Profiler profiler(svc.sim);
  const core::MultiStageMatcher matcher(&svc.store(),
                                        core::PStormOptions{}.match);
  std::vector<double> map_ms, reduce_ms;
  for (size_t i = 0; i < catalogue.pairs.size(); ++i) {
    const Pair& pair = catalogue.pairs[i];
    const auto sample = ValueOrDie(
        profiler.ProfileOneTask(pair.job.spec, pair.data,
                                mrsim::Configuration{}, QualitySeed(i)),
        "sample " + pair.key);
    const core::JobFeatureVector probe = core::BuildFeatureVector(
        sample.profile, staticanalysis::ExtractStaticFeatures(pair.job.program));
    const Clock::time_point t0 = Clock::now();
    ValueOrDie(matcher.MatchSide(core::Side::kMap, probe), "map side");
    const Clock::time_point t1 = Clock::now();
    ValueOrDie(matcher.MatchSide(core::Side::kReduce, probe), "reduce side");
    map_ms.push_back(Millis(t1 - t0));
    reduce_ms.push_back(Millis(Clock::now() - t1));
  }
  return {map_ms, reduce_ms};
}

/// ProfileStore::RebuildMatchIndex on the store reopened after serving.
std::vector<double> MeasureIndexRebuild(Service& svc) {
  StopServing(svc);
  auto store = ValueOrDie(
      core::ProfileStore::Open(&svc.env, svc.shard_path()), "reopen store");
  std::vector<double> ms;
  for (int i = 0; i < 7; ++i) {
    const Clock::time_point t0 = Clock::now();
    OkOrDie(store->RebuildMatchIndex(), "rebuild");
    ms.push_back(Millis(Clock::now() - t0));
  }
  return ms;
}

size_t StoreBytes(const core::ProfileStore& store) {
  size_t bytes = 0;
  for (const auto& region : store.table()->GetReplicationSnapshot().regions) {
    bytes += region.db->ApproximateSizeBytes();
  }
  return bytes;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------------ output

/// Metrics of one run, printed as the final JSON line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  void Print(bool correct, size_t attempted, size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, m] = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", name.c_str(),
                  std::isfinite(m.first) ? m.first : 0.0, m.second.c_str());
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// Self time per span name over the submission trees of a traced phase.
struct LayerTable {
  struct Row {
    size_t calls = 0;
    double self_ms = 0;
    std::vector<double> durations_ms;
  };
  std::map<std::string, Row> rows;
  double submission_wall_ms = 0;  // Σ root "submit" span durations.
  std::map<std::string, std::vector<double>> probes_ms;  // Non-submit roots.

  double P50(const std::string& name) const {
    const auto it = rows.find(name);
    return it == rows.end() ? 0.0 : Median(it->second.durations_ms);
  }
  double Share(const std::string& name) const {
    const auto it = rows.find(name);
    return it == rows.end() || submission_wall_ms == 0
               ? 0.0
               : it->second.self_ms / submission_wall_ms;
  }
};

LayerTable BuildLayerTable(const std::vector<const SpanLog*>& logs) {
  LayerTable t;
  for (const SpanLog* log : logs) {
    const auto& spans = log->spans();
    std::vector<double> child_ms(spans.size(), 0.0);
    for (const SpanLog::Span& s : spans) {
      if (s.parent >= 0) child_ms[s.parent] += (s.end_ns - s.start_ns) / 1e6;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanLog::Span& s = spans[i];
      const double ms = (s.end_ns - s.start_ns) / 1e6;
      if (std::string(spans[s.root].name) != "submit") {
        t.probes_ms[s.name].push_back(ms);
        continue;
      }
      LayerTable::Row& row = t.rows[s.name];
      ++row.calls;
      row.self_ms += ms - child_ms[i];
      row.durations_ms.push_back(ms);
      if (s.parent < 0) t.submission_wall_ms += ms;
    }
  }
  return t;
}

void PrintLayerTable(const LayerTable& t, const std::string& workload) {
  std::printf("\nWhere the time goes (%s, traced composed submissions, "
              "self time):\n", workload.c_str());
  std::printf("  %-26s %8s %12s %8s %12s\n", "span", "calls", "self ms",
              "share", "p50 ms");
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, row] : t.rows) order.emplace_back(-row.self_ms, name);
  std::sort(order.begin(), order.end());
  for (const auto& [neg, name] : order) {
    const LayerTable::Row& row = t.rows.at(name);
    std::printf("  %-26s %8zu %12.1f %7.1f%% %12.4f\n",
                name == "submit" ? "(unattributed remainder)" : name.c_str(),
                row.calls, row.self_ms,
                100.0 * row.self_ms / t.submission_wall_ms,
                Median(row.durations_ms));
  }
  std::printf("  %-26s %8s %12.1f %7.1f%%\n", "total submission wall", "",
              t.submission_wall_ms, 100.0);
}

void WriteSpans(const std::string& path,
                const std::vector<std::pair<std::string, const SpanLog*>>& logs) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write spans to " + path);
  std::fprintf(f, "phase\tthread\tspan\tparent\tsubmission\tname\tstart_ns\t"
                  "end_ns\n");
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t].second->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const SpanLog::Span& s = spans[i];
      std::fprintf(f, "%s\t%zu\t%zu\t%d\t%llu\t%s\t%lld\t%lld\n",
                   logs[t].first.c_str(), t, i, s.parent,
                   static_cast<unsigned long long>(s.submission), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  std::fclose(f);
}

// ------------------------------------------------------------------ runs

struct Flags {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

void PrintPhase(const char* label, const PhaseResult& r) {
  std::printf("%s: %zu submissions in %.3f s = %.2f/s (failed %zu; matched "
              "%zu, composite %zu, cold %zu); per segment:", label,
              r.submit_ms.size(), r.wall_s, r.submits_per_s(),
              r.submit_failed, r.matched, r.composite, r.cold);
  for (double rate : r.segment_rates) std::printf(" %.2f", rate);
  std::printf("\n");
  std::printf("  submit ms: p50 %.3f p90 %.3f p99 %.3f (n=%zu)\n",
              Quantile(r.submit_ms, 0.5), Quantile(r.submit_ms, 0.9),
              Quantile(r.submit_ms, 0.99), r.submit_ms.size());
}

/// One benchmark run: the catalogue, the checks and the report it fills.
class Bench {
 public:
  Bench(Workload w, const Flags& flags)
      : w_(w), flags_(flags), sim_(mrsim::ThesisCluster()),
        catalogue_(BuildCatalogue(sim_)) {
    std::printf("workload %s, seed %llu: %zu Table 6.1 pairs",
                flags.workload.c_str(),
                static_cast<unsigned long long>(flags.seed),
                catalogue_.pairs.size());
    for (const std::string& key : catalogue_.excluded) {
      std::printf(" (excluded, default config fails: %s)", key.c_str());
    }
    std::printf("\n");
  }

  /// End-to-end metrics, tracing off.
  void EndToEnd(Clock::time_point process_start);
  /// Per-layer metrics from the traced composed path and serial probes.
  void Traced();

  int Finish() {
    std::fflush(stdout);
    report_.Print(checks_.ok(), attempted_, failed_);
    return checks_.ok() ? 0 : 1;
  }

 private:
  /// Serial put list for a probe: re-jittered synthetic profiles on the
  /// wide store, unchanged re-puts of the stored profiles otherwise.
  std::vector<rpc::PutProfileRequest> ProbePuts(Service& svc, uint64_t round) {
    return !IsRpc(w_) ? SyntheticPuts(DeriveSeed(flags_.seed, 0x6275727374ULL,
                                                 round),
                                      kPutBurst)
                      : StoredPuts(svc, kPutBurst);
  }
  void Count(const PhaseResult& phase) {
    attempted_ += phase.submit_attempted;
    failed_ += phase.submit_failed;
  }
  QualityResult Quality(Service& svc) {
    const QualityResult q = QualityPass(w_, svc, catalogue_, &checks_);
    std::printf("quality pass: %zu submissions, tuned_speedup %.9f; "
                "wire==router on %zu, composed==PStorM::SubmitJob on %zu\n",
                q.submissions, q.tuned_speedup, q.rpc_compared,
                q.composed_compared);
    return q;
  }

  const Workload w_;
  const Flags& flags_;
  const mrsim::Simulator sim_;
  const Catalogue catalogue_;
  Checks checks_;
  Report report_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

void Bench::EndToEnd(Clock::time_point process_start) {
  // The serving store is built first, timed from process start. The timed
  // phase then runs in kRounds segments; after each one a fresh store is
  // built (another setup_s sample), given a serial put burst and dropped,
  // and the restart store is reopened repeatedly. restart_ms reopens a
  // wide store on every workload: the 8-profile Table 6.1 store reopens
  // in ~0.5 ms and swings by a quarter with the host's load.
  std::vector<double> setup_s, put_ms, restart_ms;
  std::unique_ptr<Service> svc = BuildService(w_, &sim_, catalogue_, nullptr);
  setup_s.push_back(Seconds(Clock::now() - process_start));
  std::printf("setup: %zu profiles in store (%.2f MiB)\n",
              svc->store().num_profiles(),
              StoreBytes(svc->store()) / 1048576.0);
  const std::unique_ptr<Service> restart_store =
      BuildService(Workload::kWideStore, &sim_, catalogue_, nullptr);
  const QualityResult quality = Quality(*svc);

  Count(RunPhase(w_, Drive::kServed, *svc, catalogue_, flags_.seed,
                 kWarmupSeconds, &checks_));
  PhaseResult phase;
  LoadCursor cursor(kClients, 0);
  for (int round = 0; round < kRounds; ++round) {
    RunSegment(w_, Drive::kServed, *svc, catalogue_, flags_.seed,
               flags_.seconds / kRounds, &cursor, &phase, &checks_);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Service> probe =
        BuildService(w_, &sim_, catalogue_, nullptr);
    setup_s.push_back(Seconds(Clock::now() - t0));
    const auto puts = ProbePuts(*probe, round);
    const std::vector<double> put = PutBurst(*probe, puts, &checks_);
    put_ms.insert(put_ms.end(), put.begin(), put.end());
    attempted_ += puts.size();
    failed_ += puts.size() - put.size();
    probe.reset();
    const std::vector<double> ms =
        MeasureRestart(*restart_store, kRestartSeconds);
    restart_ms.insert(restart_ms.end(), ms.begin(), ms.end());
  }
  PrintPhase("timed phase", phase);
  Count(phase);
  std::printf("put ms: p50 %.4f p90 %.4f (n=%zu, serial in-process bursts "
              "on fresh stores)\n", Quantile(put_ms, 0.5),
              Quantile(put_ms, 0.9), put_ms.size());
  std::printf("restart: %zu reopens, median %.4f ms (q1 %.4f, q3 %.4f)\n",
              restart_ms.size(), Median(restart_ms),
              Quantile(restart_ms, 0.25), Quantile(restart_ms, 0.75));
  std::printf("setup_s median %.4f of %zu:", Median(setup_s), setup_s.size());
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\nfailed_frac %.6f (%zu of %zu operations)\n",
              attempted_ ? static_cast<double>(failed_) / attempted_ : 0.0,
              failed_, attempted_);

  report_.Add("setup_s", Median(setup_s), "s");
  report_.Add("submit_p50_ms", Quantile(phase.submit_ms, 0.5), "ms");
  report_.Add("submit_p90_ms", Quantile(phase.submit_ms, 0.9), "ms");
  report_.Add("submits_per_s", phase.submits_per_s(), "1/s");
  report_.Add("put_p50_ms", Quantile(put_ms, 0.5), "ms");
  report_.Add("put_p90_ms", Quantile(put_ms, 0.9), "ms");
  report_.Add("tuned_speedup", quality.tuned_speedup, "ratio");
  report_.Add("restart_ms", Median(restart_ms), "ms");
  report_.Add("peak_rss_mb", PeakRssMb(), "MiB");
}

void Bench::Traced() {
  SpanLog warmup_log;
  std::unique_ptr<Service> svc =
      BuildService(w_, &sim_, catalogue_, &warmup_log);
  const QualityResult quality = Quality(*svc);

  // Untraced then traced composed submissions, same lists and length,
  // after an untimed warm-up: the throughput difference is the tracing
  // overhead.
  Count(RunPhase(w_, Drive::kComposed, *svc, catalogue_, flags_.seed,
                 kWarmupSeconds, &checks_));
  const PhaseResult untraced =
      RunPhase(w_, Drive::kComposed, *svc, catalogue_, flags_.seed,
               flags_.seconds, &checks_);
  PrintPhase("untraced composed phase", untraced);
  const PhaseResult traced =
      RunPhase(w_, Drive::kTraced, *svc, catalogue_, flags_.seed,
               flags_.seconds, &checks_);
  PrintPhase("traced composed phase", traced);
  Count(untraced);
  Count(traced);

  const size_t cache_entries = svc->store().entry_cache_size();
  const double store_mib = StoreBytes(svc->store()) / 1048576.0;
  std::vector<const SpanLog*> traced_logs;
  for (const auto& log : traced.logs) traced_logs.push_back(log.get());
  const LayerTable table = BuildLayerTable(traced_logs);
  const LayerTable warmup = BuildLayerTable({&warmup_log});
  PrintLayerTable(table, flags_.workload);
  const double overhead =
      1.0 - traced.submits_per_s() / untraced.submits_per_s();
  std::printf("tracing overhead: %.2f%% of composed submits/s (%.2f traced "
              "vs %.2f untraced)\n", 100 * overhead, traced.submits_per_s(),
              untraced.submits_per_s());
  std::printf("store: %zu profiles, %.2f MiB resident vs %.2f MiB default "
              "block cache\n", svc->store().num_profiles(), store_mib,
              storage::DbOptions{}.block_cache_bytes / 1048576.0);

  const RpcProbe wire =
      ProbeRpc(w_, *svc, quality, ProbePuts(*svc, 0), &checks_);
  const auto [map_ms, reduce_ms] = ProbeMatchSides(*svc, catalogue_);
  const std::vector<double> rebuild_ms = MeasureIndexRebuild(*svc);

  std::vector<double> rpc_overhead = IsRpc(w_) ? untraced.rpc_overhead_ms
                                               : wire.submit_overhead_ms;
  rpc_overhead.insert(rpc_overhead.end(), traced.rpc_overhead_ms.begin(),
                      traced.rpc_overhead_ms.end());
  std::printf("wire: submit overhead p50 %.4f ms (n=%zu, %s), echo p50 "
              "%.1f us, put overhead p50 %.4f ms (n=%zu)\n",
              Median(rpc_overhead), rpc_overhead.size(),
              IsRpc(w_) ? "sampled under load" : "serial probe",
              Median(wire.echo_us), Median(wire.put_overhead_ms),
              wire.put_overhead_ms.size());

  // Funnel and search facts over the traced submissions.
  std::vector<double> candidates, stage1, after_cfg, after_jaccard;
  for (const ComposedFacts& f : traced.facts) {
    if (f.candidates > 0) candidates.push_back(f.candidates);
    for (const core::SideMatch* s : {&f.map_side, &f.reduce_side}) {
      stage1.push_back(static_cast<double>(s->after_dynamic) /
                       std::max<size_t>(1, f.store_profiles));
      after_cfg.push_back(s->after_cfg);
      after_jaccard.push_back(s->after_jaccard);
    }
  }
  const double n = std::max<size_t>(1, traced.submit_ms.size());
  const StorageDelta& storage = wire.storage;
  const double puts = static_cast<double>(wire.puts);
  const double cbo_ms = table.P50("optimizer.cbo");
  const double predict_us = table.P50("whatif.predict") * 1e3;
  const auto match = table.rows.find("core.match");

  report_.Add("rpc.echo_us", Median(wire.echo_us), "us");
  report_.Add("rpc.submit_overhead_ms", Median(rpc_overhead), "ms");
  report_.Add("rpc.put_overhead_ms", Median(wire.put_overhead_ms), "ms");
  report_.Add("rpc.put_parse_us", Median(wire.put_parse_us), "us");
  report_.Add("rpc.codec_us", Median(wire.codec_us), "us");
  report_.Add("optimizer.cbo_p50_ms", cbo_ms, "ms");
  report_.Add("optimizer.candidates", Median(candidates), "count");
  report_.Add("whatif.predict_us", predict_us, "us");
  report_.Add("optimizer.model_share",
              cbo_ms > 0 ? Median(candidates) * predict_us / 1e3 / cbo_ms : 0,
              "ratio");
  report_.Add("core.match_p50_ms", table.P50("core.match"), "ms");
  report_.Add("core.match_p90_ms",
              match == table.rows.end()
                  ? 0.0
                  : Quantile(match->second.durations_ms, 0.9),
              "ms");
  report_.Add("core.match_map_ms", Median(map_ms), "ms");
  report_.Add("core.match_reduce_ms", Median(reduce_ms), "ms");
  report_.Add("core.stage1_pass_frac", Mean(stage1), "ratio");
  report_.Add("core.after_cfg", Mean(after_cfg), "count");
  report_.Add("core.after_jaccard", Mean(after_jaccard), "count");
  report_.Add("core.composite_frac", traced.composite / n, "ratio");
  report_.Add("core.cold_frac", traced.cold / n, "ratio");
  report_.Add("core.entry_cache_entries", cache_entries, "count");
  report_.Add("core.put_ms", Median(wire.store_put_ms), "ms");
  report_.Add("core.index_rebuild_ms", Median(rebuild_ms), "ms");
  report_.Add("storage.flushes_per_put", storage.flushes / puts, "count");
  report_.Add("storage.compactions_per_put", storage.compactions / puts,
              "count");
  report_.Add("storage.bytes_written_per_put", storage.bytes_written / puts,
              "bytes");
  report_.Add("storage.stall_ms", storage.stall_ms, "ms");
  report_.Add("storage.block_cache_hit_frac",
              static_cast<double>(traced.cache_hits) /
                  std::max<uint64_t>(1, traced.cache_hits +
                                            traced.cache_misses),
              "ratio");
  report_.Add("storage.store_mib", store_mib, "MiB");
  report_.Add("profiler.sample_ms", table.P50("profiler.sample"), "ms");
  report_.Add("staticanalysis.features_us",
              table.P50("staticanalysis.features") * 1e3, "us");
  report_.Add("mrsim.run_ms", table.P50("mrsim.run"), "ms");
  report_.Add("mrsim.profiled_run_ms", warmup.P50("mrsim.profiled_run"),
              "ms");
  report_.Add("loadgen.trace_overhead_frac", overhead, "ratio");
  report_.Add("loadgen.traced_submits_per_s", traced.submits_per_s(), "1/s");
  for (const char* span : {"profiler.sample", "staticanalysis.features",
                           "core.match", "optimizer.cbo", "whatif.predict",
                           "mrsim.run"}) {
    report_.Add(std::string(span) + "_share", table.Share(span), "ratio");
  }
  report_.Add("core.cold_path_share",
              table.Share("mrsim.profiled_run") +
                  table.Share("profiler.extract") + table.Share("core.put"),
              "ratio");
  report_.Add("unattributed_share", table.Share("submit"), "ratio");

  std::vector<std::pair<std::string, const SpanLog*>> span_logs = {
      {"warmup", &warmup_log}};
  for (const SpanLog* log : traced_logs) span_logs.emplace_back("traced", log);
  WriteSpans(flags_.spans, span_logs);
}

int Run(const Flags& flags) {
  const Clock::time_point process_start = Clock::now();
  Workload w;
  if (flags.workload == "recurring-rpc") {
    w = Workload::kRecurringRpc;
  } else if (flags.workload == "wide-store") {
    w = Workload::kWideStore;
  } else {
    Die("unknown workload: " + flags.workload);
  }
  Bench bench(w, flags);
  if (flags.trace) {
    bench.Traced();
  } else {
    bench.EndToEnd(process_start);
  }
  return bench.Finish();
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      flags->workload = value;
    } else if (arg == "--seed") {
      flags->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (arg == "--seconds") {
      flags->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(flags->seconds > 0)) {
        return false;
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return false;
      flags->trace = value == "1";
    } else if (arg == "--spans") {
      flags->spans = value;
    } else {
      return false;
    }
  }
  return !flags->workload.empty();
}

}  // namespace
}  // namespace pstorm::perfbench

int main(int argc, char** argv) {
  pstorm::perfbench::Flags flags;
  if (!pstorm::perfbench::ParseFlags(argc, argv, &flags)) {
    std::fprintf(stderr,
                 "usage: %s --workload recurring-rpc|wide-store "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  return pstorm::perfbench::Run(flags);
}
