#ifndef PSTORM_JOBS_BENCHMARK_JOBS_H_
#define PSTORM_JOBS_BENCHMARK_JOBS_H_

#include <string>
#include <string_view>
#include <vector>

#include "mrsim/jobspec.h"
#include "staticanalysis/features.h"

namespace pstorm::jobs {

/// One benchmark MR job: its dataflow truth (for the simulator), its
/// program "bytecode" (for static analysis), and bookkeeping for the
/// Table 6.1 listing.
struct BenchmarkJob {
  mrsim::JobSpec spec;
  staticanalysis::MrProgram program;
  std::string application_domain;
  /// Catalogue names of the data sets this job runs on in the thesis.
  std::vector<std::string> data_sets;
};

// ---- The Table 6.1 suite ------------------------------------------------

/// Word count over text (Text Mining); ships an IntSum combiner.
BenchmarkJob WordCount();

/// Inverted index construction (Text Mining) [Lin & Dyer].
BenchmarkJob InvertedIndex();

/// TeraSort-style total order sort (Many Domains); identity map/reduce.
BenchmarkJob Sort();

/// TPC-H reduce-side join (Business Intelligence); CompositeInputFormat.
BenchmarkJob TpchJoin();

/// Bigram relative frequency (NLP) [Lin & Dyer]: pair + marginal counts.
/// Deliberately similar dataflow to WordCooccurrencePairs(2) — the profile
/// twin the thesis's Figure 1.3 / 4.5 story depends on.
BenchmarkJob BigramRelativeFrequency();

/// Word co-occurrence, pairs formulation (NLP) [Lin & Dyer]. `window` is
/// the user parameter: different windows yield different dataflow, which
/// is why PStorM filters on dynamic features first (§4.3, §7.2.1).
BenchmarkJob WordCooccurrencePairs(int window = 2);

/// Word co-occurrence, stripes formulation (NLP): mapper holds per-word
/// association maps, so heap demand grows with the corpus vocabulary; on
/// the 35 GB Wikipedia set it dies with an OOM, as in the thesis.
BenchmarkJob WordCooccurrenceStripes();

/// CloudBurst read-mapping (Bioinformatics): CPU-heavy seed-and-extend.
BenchmarkJob CloudBurst();

/// Item-based collaborative filtering (Recommendation Systems, Mahout).
BenchmarkJob ItemBasedCollaborativeFiltering();

/// Frequent itemset mining (Data Mining): a chain of three MR jobs over
/// the webdocs transactions, per the thesis.
std::vector<BenchmarkJob> FrequentItemsetMiningChain();

/// The 17 PigMix benchmark queries compiled to MR jobs.
std::vector<BenchmarkJob> PigMixQueries();

/// Distributed grep (extra job from §7.2.1): the search pattern is a user
/// parameter that changes dataflow without changing code.
BenchmarkJob Grep(double match_selectivity = 0.01);

// ---- Workload assembly ---------------------------------------------------

/// One (job, data set) execution of the evaluation workload; the job's
/// intermediate/output compressibility is specialized to the data set.
struct WorkloadEntry {
  BenchmarkJob job;
  std::string data_set;
};

/// Every (job, data set) pair of Table 6.1 — most jobs on two data sets.
std::vector<WorkloadEntry> Table61Workload();

/// All distinct benchmark jobs (convenience for listings).
std::vector<BenchmarkJob> AllBenchmarkJobs();

// ---- The catalogue table --------------------------------------------------

/// One fixed catalogue job with the static features of its program. The
/// features depend on the program alone, so they are extracted once here
/// instead of on every submission.
struct CatalogueJob {
  BenchmarkJob job;
  staticanalysis::StaticFeatures statics;
};

/// The AllBenchmarkJobs() entry named `name`, or nullptr for any other
/// name: Grep() and the other co-occurrence windows are not in the table.
/// The table behind it is built on first use, once, by whichever thread
/// gets there first, and is immutable afterwards: the returned reference
/// is valid for the life of the process and safe to share across threads.
const CatalogueJob* FindCatalogueJob(std::string_view name);

}  // namespace pstorm::jobs

#endif  // PSTORM_JOBS_BENCHMARK_JOBS_H_
