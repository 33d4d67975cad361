// pstorm_cli — command-line driver over the library, in the spirit of a
// cluster operator's tool:
//
//   pstorm_cli workload                      list jobs and data sets
//   pstorm_cli run <job> <dataset> [N]       simulate under defaults
//                                            (optional reducer count N)
//   pstorm_cli tune <job> <dataset>          profile + CBO, show speedup
//   pstorm_cli explain <jobA> <dsA> <jobB> <dsB>
//                                            PerfXplain-style report

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/strings.h"
#include "core/explain.h"
#include "jobs/benchmark_jobs.h"
#include "jobs/datasets.h"
#include "optimizer/cbo.h"
#include "profiler/profiler.h"
#include "whatif/whatif_engine.h"

using namespace pstorm;

namespace {

Result<jobs::BenchmarkJob> FindJob(const std::string& name) {
  if (const jobs::CatalogueJob* found = jobs::FindCatalogueJob(name)) {
    return found->job;
  }
  if (name == "grep") return jobs::Grep();
  return Status::NotFound("unknown job: " + name +
                          " (try `pstorm_cli workload`)");
}

int CmdWorkload() {
  std::printf("%-30s %-28s %s\n", "job", "domain", "data sets");
  for (const jobs::BenchmarkJob& job : jobs::AllBenchmarkJobs()) {
    std::printf("%-30s %-28s %s\n", job.spec.name.c_str(),
                job.application_domain.c_str(),
                StrJoin(job.data_sets, ", ").c_str());
  }
  std::printf("\n%-18s %-10s %s\n", "data set", "size", "splits");
  for (const auto& d : jobs::DataSetCatalogue()) {
    std::printf("%-18s %-10s %llu\n", d.name.c_str(),
                HumanBytes(d.size_bytes).c_str(),
                static_cast<unsigned long long>(d.num_splits()));
  }
  return 0;
}

int CmdRun(const std::string& job_name, const std::string& data_name,
           int reducers) {
  auto job = FindJob(job_name);
  auto data = jobs::FindDataSet(data_name);
  if (!job.ok() || !data.ok()) {
    std::fprintf(stderr, "%s\n",
                 (job.ok() ? data.status() : job.status()).ToString().c_str());
    return 1;
  }
  mrsim::Configuration config;
  if (reducers > 0) config.num_reduce_tasks = reducers;
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  auto result = sim.RunJob(job->spec, *data, config);
  if (!result.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf("job:       %s on %s\n", job_name.c_str(), data_name.c_str());
  std::printf("config:    %s\n", config.ToString().c_str());
  std::printf("runtime:   %s  (map phase %s)\n",
              HumanDuration(result->runtime_s).c_str(),
              HumanDuration(result->map_phase_end_s).c_str());
  std::printf("map tasks: %zu   reduce tasks: %zu\n",
              result->map_tasks.size(), result->reduce_tasks.size());
  std::printf("shuffled:  %s\n",
              HumanBytes(static_cast<uint64_t>(
                  result->total_map_output_wire_bytes))
                  .c_str());
  return 0;
}

int CmdTune(const std::string& job_name, const std::string& data_name) {
  auto job = FindJob(job_name);
  auto data = jobs::FindDataSet(data_name);
  if (!job.ok() || !data.ok()) {
    std::fprintf(stderr, "%s\n",
                 (job.ok() ? data.status() : job.status()).ToString().c_str());
    return 1;
  }
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  const profiler::Profiler prof(&sim);
  const whatif::WhatIfEngine engine(sim.cluster());
  const optimizer::CostBasedOptimizer cbo(&engine);

  auto before = sim.RunJob(job->spec, *data, mrsim::Configuration{});
  auto profiled =
      prof.ProfileFullRun(job->spec, *data, mrsim::Configuration{}, 1);
  if (!before.ok() || !profiled.ok()) {
    std::fprintf(stderr, "profiling failed: %s\n",
                 (before.ok() ? profiled.status() : before.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  auto rec = cbo.Optimize(profiled->profile, *data);
  if (!rec.ok()) {
    std::fprintf(stderr, "optimization failed: %s\n",
                 rec.status().ToString().c_str());
    return 1;
  }
  auto after = sim.RunJob(job->spec, *data, rec->config);
  if (!after.ok()) {
    std::fprintf(stderr, "tuned run failed: %s\n",
                 after.status().ToString().c_str());
    return 1;
  }
  std::printf("default:     %s\n", HumanDuration(before->runtime_s).c_str());
  std::printf("recommended: %s\n", rec->config.ToString().c_str());
  std::printf("predicted:   %s   (%d candidates evaluated)\n",
              HumanDuration(rec->predicted_runtime_s).c_str(),
              rec->candidates_evaluated);
  std::printf("tuned:       %s\n", HumanDuration(after->runtime_s).c_str());
  std::printf("speedup:     %.2fx\n",
              before->runtime_s / after->runtime_s);
  return 0;
}

int CmdExplain(const std::string& job_a, const std::string& data_a,
               const std::string& job_b, const std::string& data_b) {
  auto ja = FindJob(job_a);
  auto jb = FindJob(job_b);
  auto da = jobs::FindDataSet(data_a);
  auto db = jobs::FindDataSet(data_b);
  if (!ja.ok() || !jb.ok() || !da.ok() || !db.ok()) {
    std::fprintf(stderr, "bad job or data set name\n");
    return 1;
  }
  const mrsim::Simulator sim(mrsim::ThesisCluster());
  const profiler::Profiler prof(&sim);
  auto pa = prof.ProfileFullRun(ja->spec, *da, mrsim::Configuration{}, 1);
  auto pb = prof.ProfileFullRun(jb->spec, *db, mrsim::Configuration{}, 2);
  if (!pa.ok() || !pb.ok()) {
    std::fprintf(stderr, "profiling failed\n");
    return 1;
  }
  const auto explanations = core::ExplainPerformanceDifference(
      pa->profile, staticanalysis::ExtractStaticFeatures(ja->program),
      pb->profile, staticanalysis::ExtractStaticFeatures(jb->program));
  std::printf("%s", core::RenderExplanations(job_a, job_b, explanations)
                        .c_str());
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pstorm_cli workload\n"
               "  pstorm_cli run <job> <dataset> [reducers]\n"
               "  pstorm_cli tune <job> <dataset>\n"
               "  pstorm_cli explain <jobA> <dsA> <jobB> <dsB>\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  if (command == "workload") return CmdWorkload();
  if (command == "run" && (argc == 4 || argc == 5)) {
    return CmdRun(argv[2], argv[3], argc == 5 ? std::atoi(argv[4]) : 0);
  }
  if (command == "tune" && argc == 4) return CmdTune(argv[2], argv[3]);
  if (command == "explain" && argc == 6) {
    return CmdExplain(argv[2], argv[3], argv[4], argv[5]);
  }
  Usage();
  return 2;
}
