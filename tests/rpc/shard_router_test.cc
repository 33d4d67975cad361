// The router's catalogue resolve against its oracle: for every Table 6.1
// (job, data set) pair, a submission routed by name must produce exactly
// the outcome PStorM::SubmitJob produces on a freshly built job (which
// extracts the static features itself), compared in wire form.

#include "rpc/shard_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/pstorm.h"
#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "mrsim/cluster.h"
#include "mrsim/simulator.h"
#include "rpc/wire.h"
#include "storage/env.h"

namespace pstorm::rpc {
namespace {

SubmitJobResponse ToResponse(const core::PStorM::SubmissionOutcome& o,
                             uint32_t shard) {
  SubmitJobResponse r;
  r.matched = o.matched;
  r.composite = o.composite;
  r.stored_new_profile = o.stored_new_profile;
  r.profile_source = o.profile_source;
  r.config_used = o.config_used;
  r.runtime_s = o.runtime_s;
  r.sample_runtime_s = o.sample_runtime_s;
  r.predicted_runtime_s = o.predicted_runtime_s;
  r.shard = shard;
  return r;
}

TEST(ShardRouterTest, CatalogueOutcomesEqualPStormOnFreshlyBuiltJobs) {
  const mrsim::Simulator simulator(mrsim::ThesisCluster());
  storage::InMemoryEnv env;
  auto router = ShardRouter::Create(&simulator, &env, "/routed");
  ASSERT_TRUE(router.ok()) << router.status();
  auto direct = core::PStorM::Create(&simulator, &env, "/direct");
  ASSERT_TRUE(direct.ok()) << direct.status();

  const std::vector<jobs::BenchmarkJob> fresh = jobs::AllBenchmarkJobs();
  const std::vector<jobs::WorkloadEntry> workload = jobs::Table61Workload();
  // The first round stores a profile per pair, the second matches them;
  // both stores see the same submissions in the same order.
  uint64_t seed = 7000;
  size_t matched = 0;
  for (int round = 0; round < 2; ++round) {
    for (const jobs::WorkloadEntry& entry : workload) {
      const std::string& name = entry.job.spec.name;
      const auto job =
          std::find_if(fresh.begin(), fresh.end(),
                       [&](const auto& j) { return j.spec.name == name; });
      ASSERT_NE(job, fresh.end()) << name;
      SubmitJobRequest request;
      request.tenant = "t";
      request.job_name = name;
      request.data = jobs::FindDataSet(entry.data_set).value();
      request.seed = ++seed;

      const auto routed = (*router)->SubmitJob(request);
      const auto expected = (*direct)->SubmitJob(
          *job, request.data, request.submitted, request.seed);
      const std::string where = name + "@" + entry.data_set;
      ASSERT_EQ(routed.ok(), expected.ok()) << where;
      if (!routed.ok()) {
        EXPECT_EQ(routed.status().ToString(), expected.status().ToString())
            << where;
        continue;
      }
      EXPECT_EQ(EncodeSubmitJobResponse(*routed),
                EncodeSubmitJobResponse(ToResponse(*expected, 0)))
          << where;
      if (routed->matched) ++matched;
    }
  }
  EXPECT_GT(matched, workload.size() / 2) << "the second round must match";
}

}  // namespace
}  // namespace pstorm::rpc
