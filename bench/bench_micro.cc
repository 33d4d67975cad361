// Google-benchmark micro-benchmarks of the performance-critical pieces:
// the storage engine, the hstore scan path, CFG extraction/matching, the
// task models, the what-if engine, and end-to-end profile matching.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/matcher.h"
#include "core/profile_store.h"
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
#include "staticanalysis/cfg_matcher.h"
#include "storage/block_cache.h"
#include "storage/db.h"
#include "storage/replication.h"
#include "storage/wal.h"
#include "sync_latency_env.h"
#include "tools/synthetic_corpus.h"
#include "whatif/whatif_engine.h"

namespace {

using namespace pstorm;

// ---------------------------------------------------------------- storage

void BM_StorageDbPut(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto db = storage::Db::Open(&env, "/bm-db").value();
  int i = 0;
  std::string value(128, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Put("key" + std::to_string(i++), value));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorageDbPut);

// Per-Put cost while the store is continuously flushing and compacting:
// a Put periodically pays a whole flush or L0→L1 compaction inline under
// writer_mu_, so the mean carries the amortized maintenance cost.
void BM_PutDuringCompaction(benchmark::State& state) {
  storage::InMemoryEnv env;
  storage::DbOptions options;
  options.memtable_flush_bytes = 16u << 10;  // Constant churn.
  options.l0_compaction_trigger = 4;
  auto db = storage::Db::Open(&env, "/bm-db-compact", options).value();
  int i = 0;
  const std::string value(128, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Put("key" + std::to_string(i++ % 4096), value));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flushes"] =
      static_cast<double>(db->stats().flushes);
}
BENCHMARK(BM_PutDuringCompaction);

void BM_StorageDbGet(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto db = storage::Db::Open(&env, "/bm-db").value();
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    PSTORM_CHECK_OK(db->Put("key" + std::to_string(i), std::string(128, 'v')));
  }
  PSTORM_CHECK_OK(db->Flush());
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get("key" + std::to_string(i++ % n)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorageDbGet)->Arg(1000)->Arg(10000);

void BM_StorageDbScan(benchmark::State& state) {
  storage::InMemoryEnv env;
  auto db = storage::Db::Open(&env, "/bm-db").value();
  const int n = static_cast<int>(state.range(0));
  for (int i = 0; i < n; ++i) {
    PSTORM_CHECK_OK(db->Put("key" + std::to_string(i), std::string(64, 'v')));
  }
  PSTORM_CHECK_OK(db->CompactAll());
  for (auto _ : state) {
    size_t count = 0;
    auto it = db->NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StorageDbScan)->Arg(10000);

// The snapshot-isolated read path under contention: every benchmark
// thread hammers Get against one shared Db. Readers pin an immutable
// Version and search it lock-free, so the Threads(8)/Threads(1)
// items-per-second ratio is the headline scaling number of the
// concurrent-serving work (flat on a 1-core container; near-linear on
// real CI hardware).
void BM_DbGetParallel(benchmark::State& state) {
  static storage::InMemoryEnv* env = nullptr;
  static storage::Db* db = nullptr;
  constexpr int kKeys = 10000;
  if (state.thread_index() == 0 && db == nullptr) {
    env = new storage::InMemoryEnv();
    db = storage::Db::Open(env, "/bm-db-parallel").value().release();
    for (int i = 0; i < kKeys; ++i) {
      PSTORM_CHECK_OK(
          db->Put("key" + std::to_string(i), std::string(128, 'v')));
    }
    PSTORM_CHECK_OK(db->CompactAll());
  }
  int i = state.thread_index() * 7919;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get("key" + std::to_string(i++ % kKeys)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbGetParallel)->Threads(1)->Threads(8)->UseRealTime();

// The WAL append is the new cost on every Put (one frame encode + one
// appending write): this is the price of crash durability per mutation.
void BM_WalAppend(benchmark::State& state) {
  storage::InMemoryEnv env;
  storage::WalWriter wal(&env, "/bm-wal");
  int i = 0;
  const std::string value(128, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(wal.AppendPut("key" + std::to_string(i++), value));
    if (i % 4096 == 0) {
      state.PauseTiming();
      PSTORM_CHECK_OK(wal.Truncate());  // Keep the log from ballooning.
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WalAppend);

// The price of per-block compression without the block cache: every Get
// re-extracts, decompresses, and re-parses its data block. This is the
// denominator of the cache's headline number — compare with BM_DbGetHot.
void BM_DbGetCold(benchmark::State& state) {
  storage::InMemoryEnv env;
  storage::DbOptions options;
  options.block_cache_bytes = 0;  // No cache: decode on every read.
  auto db = storage::Db::Open(&env, "/bm-db-cold", options).value();
  constexpr int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) {
    PSTORM_CHECK_OK(db->Put("key" + std::to_string(i), std::string(128, 'v')));
  }
  PSTORM_CHECK_OK(db->CompactAll());
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get("key" + std::to_string(i++ % kKeys)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DbGetCold);

// The same working set with the sharded block cache holding every decoded
// block: a Get is a cache hit plus an in-block binary search, skipping the
// decompress+parse entirely. The BM_DbGetCold / BM_DbGetHot cpu-time ratio
// is the headline number of the block-cache work (target ≥5x).
void BM_DbGetHot(benchmark::State& state) {
  storage::InMemoryEnv env;
  storage::DbOptions options;  // Default 4 MiB cache fits the working set.
  auto db = storage::Db::Open(&env, "/bm-db-hot", options).value();
  constexpr int kKeys = 10000;
  for (int i = 0; i < kKeys; ++i) {
    PSTORM_CHECK_OK(db->Put("key" + std::to_string(i), std::string(128, 'v')));
  }
  PSTORM_CHECK_OK(db->CompactAll());
  for (int i = 0; i < kKeys; ++i) {  // Warm every block into the cache.
    benchmark::DoNotOptimize(db->Get("key" + std::to_string(i)));
  }
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get("key" + std::to_string(i++ % kKeys)));
  }
  state.SetItemsProcessed(state.iterations());
  const storage::BlockCache::Stats cache = db->block_cache()->GetStats();
  state.counters["cache_hit_rate"] =
      static_cast<double>(cache.hits) /
      static_cast<double>(cache.hits + cache.misses);
}
BENCHMARK(BM_DbGetHot);

// Group commit under write contention: eight threads hammer Put against
// one Db, and the leader/follower handoff folds the queued records into
// shared WAL syncs. records_per_sync > 1 is the proof the coalescing
// engages; the counter is the acceptance check (syncs < appends).
void BM_GroupCommit(benchmark::State& state) {
  static storage::InMemoryEnv* base_env = nullptr;
  static storage::SyncLatencyEnv* env = nullptr;
  static storage::Db* db = nullptr;
  if (state.thread_index() == 0 && db == nullptr) {
    base_env = new storage::InMemoryEnv();
    // The InMemoryEnv syncs in nanoseconds, which makes group commit
    // pointless (there is nothing to amortize); a ~20us sync is the cheap
    // end of real hardware and lets the coalescing show up in
    // records_per_sync and items/s. The sleep burns real time, not cpu
    // time, so the cpu-time perf gate is not measuring the simulated
    // latency.
    env = new storage::SyncLatencyEnv(base_env,
                                      std::chrono::microseconds(20));
    storage::DbOptions options;
    options.memtable_flush_bytes = 64u << 20;  // Keep flushes off the path.
    db = storage::Db::Open(env, "/bm-db-group", options).value().release();
  }
  int i = state.thread_index() * 7919;
  const std::string value(128, 'v');
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Put("key" + std::to_string(i++ % 4096), value));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    const storage::DbStats stats = db->stats();
    state.counters["wal_appends"] = static_cast<double>(stats.wal_appends);
    state.counters["wal_syncs"] = static_cast<double>(stats.wal_syncs);
    state.counters["records_per_sync"] =
        static_cast<double>(stats.wal_appends) /
        static_cast<double>(std::max<uint64_t>(stats.wal_syncs, 1));
  }
}
BENCHMARK(BM_GroupCommit)->Threads(8)->UseRealTime();

// Recovery cost: reopening a Db whose last run "crashed" with range(0)
// unflushed records in the log — the WAL replay path end to end.
void BM_DbReopenAfterCrash(benchmark::State& state) {
  storage::InMemoryEnv env;
  const int n = static_cast<int>(state.range(0));
  storage::DbOptions options;
  options.memtable_flush_bytes = 64u << 20;  // No auto-flush: all WAL.
  {
    auto db = storage::Db::Open(&env, "/bm-db", options).value();
    for (int i = 0; i < n; ++i) {
      PSTORM_CHECK_OK(db->Put("key" + std::to_string(i), std::string(128, 'v')));
    }
    // Dropped without a flush: the records survive only in the WAL.
  }
  for (auto _ : state) {
    auto db = storage::Db::Open(&env, "/bm-db", options);
    PSTORM_CHECK_OK(db.status());
    PSTORM_CHECK(db.value()->stats().wal_records_replayed ==
                 static_cast<uint64_t>(n));
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DbReopenAfterCrash)->Arg(1000)->Arg(10000);

// Steady-state WAL shipping: the per-record cost of moving a committed
// batch from the primary's log onto a warm follower (fetch + CRC verify +
// sequence check + replicated apply). This is the tax a standby adds per
// committed write in async mode.
void BM_WalShip(benchmark::State& state) {
  storage::InMemoryEnv env;
  storage::DbOptions primary_options;
  primary_options.memtable_flush_bytes = 64u << 20;
  auto primary =
      storage::Db::Open(&env, "/bm-primary", primary_options).value();
  storage::ReplicaSession::Options options;
  options.follower_db.memtable_flush_bytes = 64u << 20;
  auto session =
      storage::ReplicaSession::Open(primary.get(), &env, "/bm-follower",
                                    options)
          .value();
  int i = 0;
  int rounds = 0;
  const std::string value(128, 'v');
  constexpr int kBatch = 64;
  for (auto _ : state) {
    state.PauseTiming();
    if (++rounds % 16 == 0) {
      // Keep the primary's log short so each fetch reads the delta, not an
      // ever-growing file. Flushing before the round's puts only truncates
      // records the follower already has, so shipping stays incremental —
      // no checkpoint demand.
      PSTORM_CHECK_OK(primary->Flush());
    }
    for (int j = 0; j < kBatch; ++j) {
      PSTORM_CHECK_OK(primary->Put("key" + std::to_string(i++ % 4096), value));
    }
    state.ResumeTiming();
    PSTORM_CHECK_OK(session->CatchUp());
  }
  PSTORM_CHECK(session->lag() == 0);
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_WalShip);

// Cold-standby bootstrap: a brand-new follower joining a primary with
// range(0) committed records and catching all the way up (checkpoint or
// WAL replay, then delta shipping). This bounds the recovery-time side of
// failover: how fast a replacement standby becomes promotable.
void BM_ReplicaCatchup(benchmark::State& state) {
  storage::InMemoryEnv env;
  const int n = static_cast<int>(state.range(0));
  storage::DbOptions options;
  options.memtable_flush_bytes = 64u << 20;  // Keep the history in the WAL.
  auto primary = storage::Db::Open(&env, "/bm-primary", options).value();
  for (int i = 0; i < n; ++i) {
    PSTORM_CHECK_OK(primary->Put("key" + std::to_string(i), std::string(128, 'v')));
  }
  storage::ReplicaSession::Options session_options;
  session_options.follower_db.memtable_flush_bytes = 64u << 20;
  int round = 0;
  for (auto _ : state) {
    // A fresh follower directory per round: each open pays the full join.
    auto session = storage::ReplicaSession::Open(
        primary.get(), &env, "/bm-follower-" + std::to_string(round++),
        session_options);
    PSTORM_CHECK_OK(session.status());
    PSTORM_CHECK_OK((*session)->CatchUp());
    PSTORM_CHECK((*session)->lag() == 0);
    benchmark::DoNotOptimize(session);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ReplicaCatchup)->Arg(1000)->Arg(10000);

// ----------------------------------------------------------- static analysis

void BM_CfgBuild(benchmark::State& state) {
  const auto program = jobs::WordCooccurrencePairs(2).program;
  for (auto _ : state) {
    benchmark::DoNotOptimize(staticanalysis::BuildCfg(program.map_function));
  }
}
BENCHMARK(BM_CfgBuild);

void BM_CfgMatch(benchmark::State& state) {
  const auto a = staticanalysis::BuildCfg(
      jobs::WordCooccurrencePairs(2).program.map_function);
  const auto b = staticanalysis::BuildCfg(
      jobs::BigramRelativeFrequency().program.map_function);
  for (auto _ : state) {
    benchmark::DoNotOptimize(staticanalysis::MatchCfgs(a, a));
    benchmark::DoNotOptimize(staticanalysis::MatchCfgs(a, b));
  }
}
BENCHMARK(BM_CfgMatch);

// ----------------------------------------------------------------- simulator

void BM_SimulatorRunJob(benchmark::State& state) {
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  const auto job = jobs::WordCount();
  const auto data = jobs::FindDataSet(jobs::kWikipedia35Gb).value();
  mrsim::Configuration config;
  config.num_reduce_tasks = 27;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.RunJob(job.spec, data, config));
  }
}
BENCHMARK(BM_SimulatorRunJob);

void BM_WhatIfPredict(benchmark::State& state) {
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  const profiler::Profiler prof(&sim);
  const whatif::WhatIfEngine engine(sim.cluster());
  const auto job = jobs::WordCount();
  const auto data = jobs::FindDataSet(jobs::kWikipedia35Gb).value();
  const auto profile =
      prof.ProfileFullRun(job.spec, data, mrsim::Configuration{}, 1)
          .value()
          .profile;
  mrsim::Configuration config;
  config.num_reduce_tasks = 27;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Predict(profile, data, config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WhatIfPredict);

// ---------------------------------------------------------------- optimizer

// One full CBO search at the default budget (~700 what-if calls), run on
// the calling thread as every submission runs it.
void BM_CboOptimize(benchmark::State& state) {
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  const profiler::Profiler prof(&sim);
  const whatif::WhatIfEngine engine(sim.cluster());
  const auto job = jobs::WordCooccurrencePairs(2);
  const auto data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  const auto profile =
      prof.ProfileFullRun(job.spec, data, mrsim::Configuration{}, 1)
          .value()
          .profile;
  const optimizer::CostBasedOptimizer cbo(&engine);
  int evaluated = 0;
  for (auto _ : state) {
    auto rec = cbo.Optimize(profile, data);
    PSTORM_CHECK_OK(rec.status());
    evaluated = rec->candidates_evaluated;
    benchmark::DoNotOptimize(rec);
  }
  state.SetItemsProcessed(state.iterations() * evaluated);
}
BENCHMARK(BM_CboOptimize)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ----------------------------------------------------------------- matching

class MatcherFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State& state) override {
    // One fixture object serves every argument of a benchmark, so the
    // store is rebuilt whenever the requested size changes.
    const size_t target = static_cast<size_t>(state.range(0));
    if (store_ != nullptr && store_size_ == target) return;
    store_.reset();
    store_size_ = target;
    env_ = std::make_unique<storage::InMemoryEnv>();
    sim_ = std::make_unique<mrsim::Simulator>(mrsim::ThesisCluster());
    profiler_ = std::make_unique<profiler::Profiler>(sim_.get());
    store_ = core::ProfileStore::Open(env_.get(), "/bm-store").value();

    // Populate with replicated workload profiles to reach `range(0)` rows.
    const auto workload = jobs::Table61Workload();
    size_t added = 0, round = 0;
    while (added < target) {
      for (const auto& entry : workload) {
        if (added >= target) break;
        const auto data = jobs::FindDataSet(entry.data_set).value();
        auto profiled = profiler_->ProfileFullRun(
            entry.job.spec, data, mrsim::Configuration{}, added + 1);
        PSTORM_CHECK_OK(profiled.status());
        PSTORM_CHECK_OK(store_->PutProfile(
            entry.job.spec.name + "@" + entry.data_set + "#" +
                std::to_string(round),
            profiled->profile,
            staticanalysis::ExtractStaticFeatures(entry.job.program)));
        ++added;
      }
      ++round;
    }

    const auto job = jobs::WordCount();
    const auto data = jobs::FindDataSet(jobs::kWikipedia35Gb).value();
    auto sample =
        profiler_->ProfileOneTask(job.spec, data, mrsim::Configuration{}, 7);
    PSTORM_CHECK_OK(sample.status());
    probe_ = core::BuildFeatureVector(
        sample->profile,
        staticanalysis::ExtractStaticFeatures(job.program));
  }

  void TearDown(const benchmark::State&) override {}

  std::unique_ptr<storage::InMemoryEnv> env_;
  std::unique_ptr<mrsim::Simulator> sim_;
  std::unique_ptr<profiler::Profiler> profiler_;
  std::unique_ptr<core::ProfileStore> store_;
  size_t store_size_ = 0;
  core::JobFeatureVector probe_;
};

BENCHMARK_DEFINE_F(MatcherFixture, BM_MatchProfile)
(benchmark::State& state) {
  core::MultiStageMatcher matcher(store_.get());
  for (auto _ : state) {
    auto match = matcher.Match(probe_);
    PSTORM_CHECK_OK(match.status());
    benchmark::DoNotOptimize(match);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_REGISTER_F(MatcherFixture, BM_MatchProfile)
    ->Arg(54)
    ->Arg(216)
    ->Unit(benchmark::kMillisecond);

// Tie-break over every stored profile: with the decoded-entry cache this
// is pure scoring after the first iteration instead of one payload
// deserialization (+ two CFG parses) per candidate per call.
BENCHMARK_DEFINE_F(MatcherFixture, BM_MatcherTieBreak)
(benchmark::State& state) {
  core::MultiStageMatcher matcher(store_.get());
  const auto candidates = store_->ListJobKeys().value();
  for (auto _ : state) {
    auto key = matcher.TieBreak(core::Side::kMap, candidates,
                                probe_.map_categorical, probe_.map_dynamic,
                                probe_.input_data_bytes);
    PSTORM_CHECK_OK(key.status());
    benchmark::DoNotOptimize(key);
  }
  state.SetItemsProcessed(state.iterations() * candidates.size());
}
BENCHMARK_REGISTER_F(MatcherFixture, BM_MatcherTieBreak)
    ->Arg(54)
    ->Arg(216)
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------- indexed matching at scale

// One synthetic store per corpus size, shared across benchmark variants
// (loading 10^4+ profiles dwarfs any single measurement). Deliberately
// leaked: google-benchmark may outlive static destructors' ordering.
struct ScaleStore {
  storage::InMemoryEnv env;
  std::unique_ptr<tools::SyntheticCorpus> corpus;
  std::unique_ptr<core::ProfileStore> store;
  std::vector<core::JobFeatureVector> probes;
};

ScaleStore& GetScaleStore(size_t n) {
  static auto* cache = new std::map<size_t, ScaleStore*>();
  auto it = cache->find(n);
  if (it != cache->end()) return *it->second;
  auto* s = new ScaleStore();
  tools::SyntheticCorpusOptions corpus_options;
  corpus_options.num_profiles = n;
  s->corpus = std::make_unique<tools::SyntheticCorpus>(corpus_options);
  core::ProfileStoreOptions options;
  options.eager_flush = false;
  s->store = core::ProfileStore::Open(&s->env, "/bm-scale", options).value();
  PSTORM_CHECK_OK(s->corpus->LoadInto(s->store.get(), 0));
  for (size_t q = 0; q < 16; ++q) {
    const auto probe = s->corpus->MakeProbe((q * 131) % n);
    s->probes.push_back(core::BuildFeatureVector(probe.profile,
                                                 probe.statics));
  }
  (*cache)[n] = s;
  return *s;
}

// The matcher funnel at corpus scale. `theta_override` > 0 sets both
// Euclidean radii; 0 keeps the thesis defaults (0.5·√d per space). The
// funnel_identity counter is the accuracy check: for every probe and side,
// both Euclidean filters the funnel runs return exactly the region scans'
// keys. The index is a pushdown, not an approximation, so accuracy is
// identical (not merely within noise) at every store size. It is computed
// once per store and radius, since the region scans dwarf a match.
void RunMatcherFunnelAtScale(benchmark::State& state, double theta_override) {
  const size_t n = static_cast<size_t>(state.range(0));
  ScaleStore& s = GetScaleStore(n);
  core::MatchOptions options;
  options.theta_euclidean_override = theta_override;
  core::MultiStageMatcher matcher(s.store.get(), options);

  static auto* identities = new std::map<std::pair<size_t, double>, double>();
  auto [it, fresh] = identities->emplace(std::pair(n, theta_override), 1.0);
  const auto theta = [&](size_t dims) {
    return theta_override > 0 ? theta_override
                              : 0.5 * std::sqrt(static_cast<double>(dims));
  };
  for (size_t q = 0; fresh && q < s.probes.size(); ++q) {
    const auto& probe = s.probes[q];
    for (core::Side side : {core::Side::kMap, core::Side::kReduce}) {
      const bool map = side == core::Side::kMap;
      const auto& dynamic = map ? probe.map_dynamic : probe.reduce_dynamic;
      const auto& costs = map ? probe.map_costs : probe.reduce_costs;
      const double dynamic_theta = theta(dynamic.size());
      const double cost_theta = theta(costs.size());
      if (s.store->EuclideanCandidates(side, core::Space::kDynamic, dynamic,
                                       dynamic_theta) !=
              s.store->DynamicEuclideanScan(side, dynamic, dynamic_theta)
                  .value() ||
          s.store->EuclideanCandidates(side, core::Space::kCost, costs,
                                       cost_theta) !=
              s.store->CostEuclideanScan(side, costs, cost_theta).value()) {
        it->second = 0.0;
      }
    }
  }

  // Untimed: the first match of a probe decodes its survivors into the
  // store's entry cache, which serving keeps warm.
  for (const auto& probe : s.probes) {
    PSTORM_CHECK_OK(matcher.Match(probe).status());
  }
  size_t q = 0;
  for (auto _ : state) {
    auto match = matcher.Match(s.probes[q++ % s.probes.size()]);
    PSTORM_CHECK_OK(match.status());
    benchmark::DoNotOptimize(match);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["funnel_identity"] = it->second;
}

// A selective radius, 10% of the thesis default: a probe near its own
// archetype cluster, the regime the match index exists for.
void BM_MatcherFunnelAtScale(benchmark::State& state) {
  RunMatcherFunnelAtScale(state, 0.1);
}
BENCHMARK(BM_MatcherFunnelAtScale)
    ->Arg(10000)
    ->ArgNames({"profiles"})
    ->Unit(benchmark::kMillisecond);

// The thesis default radius, as the service runs it. On this corpus the
// true stage-1 answer is most of the store, so the index cannot prune and
// the time goes to stages 2-3 over every survivor and the tie-break.
void BM_MatcherFunnelAtScaleDefaultTheta(benchmark::State& state) {
  RunMatcherFunnelAtScale(state, 0.0);
}
BENCHMARK(BM_MatcherFunnelAtScaleDefaultTheta)
    ->Arg(10000)
    ->ArgNames({"profiles"})
    ->Unit(benchmark::kMillisecond);

// Steady-state PutProfile throughput, including the incremental match-index
// maintenance every put pays (cell hashing + four SoA appends).
void BM_IndexedPut(benchmark::State& state) {
  storage::InMemoryEnv env;
  core::ProfileStoreOptions options;
  options.eager_flush = false;
  auto store = core::ProfileStore::Open(&env, "/bm-put", options).value();
  tools::SyntheticCorpusOptions corpus_options;
  corpus_options.num_profiles = 4000000;  // Key space, not preloaded rows.
  const tools::SyntheticCorpus corpus(corpus_options);
  size_t i = 0;
  for (auto _ : state) {
    const auto p = corpus.Make(i++);
    PSTORM_CHECK_OK(store->PutProfile(p.job_key, p.profile, p.statics));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IndexedPut)->Unit(benchmark::kMicrosecond);

// PutProfile with default options on disk, in a fresh directory under the
// system temp dir: each of a put's four rows is one WAL append plus one
// fdatasync, so this times the syncs that make an acked put durable. Not
// gated: its cost is the disk's, not the code's.
void BM_PosixPutProfile(benchmark::State& state) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "pstorm-bm-put-XXXXXX")
          .string();
  PSTORM_CHECK(::mkdtemp(dir.data()) != nullptr);
  storage::PosixEnv env;
  {
    auto store = core::ProfileStore::Open(&env, dir).value();
    tools::SyntheticCorpusOptions corpus_options;
    corpus_options.num_profiles = 4000000;  // Key space, not preloaded rows.
    const tools::SyntheticCorpus corpus(corpus_options);
    size_t i = 0;
    for (auto _ : state) {
      const auto p = corpus.Make(i++);
      PSTORM_CHECK_OK(store->PutProfile(p.job_key, p.profile, p.statics));
    }
    state.SetItemsProcessed(state.iterations());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_PosixPutProfile)->Unit(benchmark::kMicrosecond)->UseRealTime();

// Reopening a flushed store of n profiles: the timed Open is the region
// opens, the bounds load, the profile recount and the match-index rebuild.
// Its median bounds what skipping the rebuild at open could save. The
// store is built once per size and deliberately leaked, like the
// ScaleStore cache above.
void BM_OpenAtScale(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  static auto* envs = new std::map<size_t, storage::InMemoryEnv*>();
  storage::InMemoryEnv*& env = (*envs)[n];
  if (env == nullptr) {
    env = new storage::InMemoryEnv();
    core::ProfileStoreOptions options;
    options.eager_flush = false;
    auto store = core::ProfileStore::Open(env, "/bm-open", options).value();
    tools::SyntheticCorpusOptions corpus_options;
    corpus_options.num_profiles = n;
    PSTORM_CHECK_OK(
        tools::SyntheticCorpus(corpus_options).LoadInto(store.get()));
  }
  for (auto _ : state) {
    auto store = core::ProfileStore::Open(env, "/bm-open").value();
    benchmark::DoNotOptimize(store.get());
    state.PauseTiming();
    store.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_OpenAtScale)
    ->Arg(10000)
    ->ArgNames({"profiles"})
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------------------- end to end

// Whole submissions through the reentrant PStorM::SubmitJob from N
// threads at once against a pre-warmed store: sample run, matcher probe,
// recommendation, tuned run — the full serving path under contention.
// Matched submissions leave the store untouched, so every thread
// exercises the concurrent read path. Resubmitting one (job, data set)
// reuses the memoized recommendation; BM_ConcurrentSubmitMiss below times
// the path that searches.
core::PStorM& SubmitBenchSystem() {
  static core::PStorM* system = [] {
    auto* sim = new mrsim::Simulator(mrsim::ThesisCluster());
    auto* env = new storage::InMemoryEnv();
    // The default CBO budget, as RpcBenchServer serves with.
    core::PStormOptions options;
    core::PStorM* created =
        core::PStorM::Create(sim, env, "/bm-submit", options)
            .value()
            .release();
    const auto data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
    auto cold = created->SubmitJob(jobs::WordCount(), data,
                                   mrsim::Configuration{}, 1);
    PSTORM_CHECK_OK(cold.status());
    PSTORM_CHECK(cold->stored_new_profile);
    return created;
  }();
  return *system;
}

void BM_ConcurrentSubmit(benchmark::State& state) {
  const core::PStorM& system = SubmitBenchSystem();
  const auto job = jobs::WordCount();
  const auto data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  uint64_t seed = 100 + state.thread_index() * 1000003;
  for (auto _ : state) {
    auto outcome = system.SubmitJob(job, data, mrsim::Configuration{},
                                    ++seed);
    PSTORM_CHECK_OK(outcome.status());
    PSTORM_CHECK(outcome->matched);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentSubmit)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// BM_ConcurrentSubmit with a data set no earlier submission used, so every
// submission misses the recommendation memo and runs the full CBO search:
// split_bytes grows by one byte per submission (up to 1 MiB, which keeps
// 16 splits and the match). Every 1,024th insert finds the memo full.
void BM_ConcurrentSubmitMiss(benchmark::State& state) {
  static std::atomic<uint64_t> next_key{0};
  const core::PStorM& system = SubmitBenchSystem();
  const auto job = jobs::WordCount();
  const auto base = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  auto data = base;
  uint64_t seed = 100 + state.thread_index() * 1000003;
  for (auto _ : state) {
    data.split_bytes = base.split_bytes + 1 + next_key++ % (1 << 20);
    auto outcome = system.SubmitJob(job, data, mrsim::Configuration{},
                                    ++seed);
    PSTORM_CHECK_OK(outcome.status());
    PSTORM_CHECK(outcome->matched);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentSubmitMiss)
    ->Threads(1)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// -------------------------------------------------------------------- rpc

// One live server (epoll reactor + workers) per process, shared across
// both RPC benchmarks; the client speaks real TCP over loopback. Echo is
// the wire floor — framing, checksum, reactor hop, worker hop, response
// flush — with no PStorM work behind it.
struct RpcBenchServer {
  mrsim::Simulator simulator{mrsim::ThesisCluster()};
  storage::InMemoryEnv env;
  std::unique_ptr<rpc::ShardRouter> router;
  std::unique_ptr<rpc::Server> server;

  RpcBenchServer() {
    router = rpc::ShardRouter::Create(&simulator, &env, "/bm-rpc", {})
                 .value();
    server = rpc::Server::Start(router.get()).value();
    // Warm word-count so BM_RpcSubmitJob measures matched serving, the
    // same path BM_ConcurrentSubmit measures in-process.
    auto client = rpc::Client::Connect("127.0.0.1", server->port()).value();
    rpc::SubmitJobRequest request;
    request.tenant = "bench";
    request.job_name = "word-count";
    request.data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
    request.seed = 1;
    auto cold = client->SubmitJob(request);
    PSTORM_CHECK_OK(cold.status());
    PSTORM_CHECK(cold->stored_new_profile);
  }

  static RpcBenchServer& Get() {
    static RpcBenchServer instance;
    return instance;
  }
};

void BM_RpcEcho(benchmark::State& state) {
  RpcBenchServer& shared = RpcBenchServer::Get();
  auto client =
      rpc::Client::Connect("127.0.0.1", shared.server->port()).value();
  const std::string payload(128, 'x');
  for (auto _ : state) {
    auto echoed = client->Echo(payload);
    PSTORM_CHECK_OK(echoed.status());
    benchmark::DoNotOptimize(echoed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RpcEcho)->Unit(benchmark::kMicrosecond);

// A full matched submission over the wire: BM_ConcurrentSubmit plus the
// serialization round trip and the reactor/worker handoff. The spread
// between this and BM_ConcurrentSubmit/threads:1 is the RPC tax.
void BM_RpcSubmitJob(benchmark::State& state) {
  RpcBenchServer& shared = RpcBenchServer::Get();
  auto client =
      rpc::Client::Connect("127.0.0.1", shared.server->port()).value();
  rpc::SubmitJobRequest request;
  request.tenant = "bench";
  request.job_name = "word-count";
  request.data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  uint64_t seed = 100 + state.thread_index() * 1000003;
  for (auto _ : state) {
    request.seed = ++seed;
    auto outcome = client->SubmitJob(request);
    PSTORM_CHECK_OK(outcome.status());
    PSTORM_CHECK(outcome->matched);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RpcSubmitJob)->Unit(benchmark::kMillisecond);

// BM_RpcSubmitJob's request handed straight to the server's router on the
// calling thread: the catalogue resolve, the quota check and the matched
// submission, with no socket or worker handoff, so cpu_time is the work.
// The spread between this and BM_ConcurrentSubmit/threads:1 is the
// router's own cost.
void BM_RouterSubmitJob(benchmark::State& state) {
  rpc::ShardRouter& router = *RpcBenchServer::Get().router;
  rpc::SubmitJobRequest request;
  request.tenant = "bench";
  request.job_name = "word-count";
  request.data = jobs::FindDataSet(jobs::kRandomText1Gb).value();
  uint64_t seed = 100;
  for (auto _ : state) {
    request.seed = ++seed;
    auto outcome = router.SubmitJob(request);
    PSTORM_CHECK_OK(outcome.status());
    PSTORM_CHECK(outcome->matched);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterSubmitJob)->Unit(benchmark::kMicrosecond);

}  // namespace

// Like BENCHMARK_MAIN(), plus: when $PSTORM_METRICS_DUMP names a file, the
// process-wide metrics accumulated across all benchmarks are written there
// on exit. CI's smoke job runs a filtered benchmark pass and then asserts
// known-hot counters are nonzero in that dump — a regression test for the
// instrumentation itself (a refactor that silently stops incrementing a
// counter shows up as a zero).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (const char* path = std::getenv("PSTORM_METRICS_DUMP");
      path != nullptr && path[0] != '\0') {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics dump to %s\n", path);
      return 1;
    }
    const std::string dump = pstorm::obs::MetricsRegistry::Global().Dump();
    std::fwrite(dump.data(), 1, dump.size(), f);
    std::fclose(f);
  }
  return 0;
}
