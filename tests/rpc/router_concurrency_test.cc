#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "mrsim/cluster.h"
#include "mrsim/simulator.h"
#include "rpc/shard_router.h"
#include "rpc/wire.h"
#include "storage/env.h"

namespace pstorm::rpc {
namespace {

/// Eight threads race the catalogue table's one-time build: nothing in
/// this test touches the table before they start (ctest runs each test in
/// a process of its own), and each thread both looks names up directly
/// and submits them by name through one router. Every thread must see the
/// same entry for a name, and every routed outcome must equal the serial
/// answer of the shard on a freshly built job.
TEST(RouterConcurrencyTest, FirstCatalogueUseRacesRouterSubmissions) {
  const mrsim::Simulator simulator(mrsim::ThesisCluster());
  storage::InMemoryEnv env;
  ShardRouterOptions options;
  options.pstorm.cbo.global_samples = 60;  // Keep the soak quick.
  options.pstorm.cbo.local_samples = 20;
  options.pstorm.cbo.refinement_rounds = 1;
  auto created = ShardRouter::Create(&simulator, &env, "/router", options);
  ASSERT_TRUE(created.ok()) << created.status();
  ShardRouter& router = **created;
  core::PStorM& shard = router.shard(0);
  const mrsim::DataSetSpec data =
      jobs::FindDataSet(jobs::kRandomText1Gb).value();

  // Warm the store from freshly built jobs, bypassing the table. Later
  // submissions then match without changing the store, so their outcomes
  // do not depend on the interleaving.
  const std::vector<jobs::BenchmarkJob> fresh = {
      jobs::WordCount(), jobs::InvertedIndex(), jobs::Sort()};
  for (const jobs::BenchmarkJob& job : fresh) {
    const auto cold = shard.SubmitJob(job, data, mrsim::Configuration{}, 1);
    ASSERT_TRUE(cold.ok()) << cold.status();
    ASSERT_TRUE(cold->stored_new_profile) << job.spec.name;
  }

  constexpr int kThreads = 8;
  constexpr int kPerThread = 3;
  struct Served {
    size_t job = 0;
    uint64_t seed = 0;
    const jobs::CatalogueJob* entry = nullptr;
    Result<SubmitJobResponse> outcome = Status::Internal("not run");
  };
  std::vector<std::vector<Served>> served(kThreads,
                                          std::vector<Served>(kPerThread));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int k = 0; k < kPerThread; ++k) {
        Served& s = served[t][k];
        s.job = static_cast<size_t>(t + k) % fresh.size();
        s.seed = 1000 + static_cast<uint64_t>(t * kPerThread + k);
        const std::string& name = fresh[s.job].spec.name;
        // Even threads look the name up before submitting it, odd ones
        // after, so lookups and the router's resolves race each other.
        if (t % 2 == 0) s.entry = jobs::FindCatalogueJob(name);
        SubmitJobRequest request;
        request.tenant = "tenant-" + std::to_string(t);
        request.job_name = name;
        request.data = data;
        request.seed = s.seed;
        s.outcome = router.SubmitJob(request);
        if (t % 2 != 0) s.entry = jobs::FindCatalogueJob(name);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    for (const Served& s : served[t]) {
      const jobs::BenchmarkJob& job = fresh[s.job];
      EXPECT_NE(s.entry, nullptr) << job.spec.name;
      EXPECT_EQ(s.entry, jobs::FindCatalogueJob(job.spec.name));
      ASSERT_TRUE(s.outcome.ok()) << s.outcome.status();
      EXPECT_TRUE(s.outcome->matched) << job.spec.name;
      const auto serial =
          shard.SubmitJob(job, data, mrsim::Configuration{}, s.seed);
      ASSERT_TRUE(serial.ok()) << serial.status();
      SubmitJobResponse expected;
      expected.matched = serial->matched;
      expected.composite = serial->composite;
      expected.stored_new_profile = serial->stored_new_profile;
      expected.profile_source = serial->profile_source;
      expected.config_used = serial->config_used;
      expected.runtime_s = serial->runtime_s;
      expected.sample_runtime_s = serial->sample_runtime_s;
      expected.predicted_runtime_s = serial->predicted_runtime_s;
      EXPECT_EQ(EncodeSubmitJobResponse(*s.outcome),
                EncodeSubmitJobResponse(expected))
          << job.spec.name << " seed " << s.seed;
    }
  }
}

}  // namespace
}  // namespace pstorm::rpc
