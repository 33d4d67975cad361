#include "jobs/benchmark_jobs.h"

#include <cstdio>
#include <functional>
#include <map>

#include "common/hash.h"
#include "common/logging.h"
#include "jobs/datasets.h"

namespace pstorm::jobs {

using staticanalysis::Call;
using staticanalysis::Emit;
using staticanalysis::If;
using staticanalysis::IfElse;
using staticanalysis::Loop;
using staticanalysis::Op;
using staticanalysis::Seq;

namespace {

/// The ubiquitous sum reducer body (reused verbatim by several jobs, as
/// real MR code bases reuse IntSumReducer).
staticanalysis::FunctionIr IntSumReduce(const std::string& owner) {
  return {owner + ".reduce",
          Seq({Op("sum = 0"), Loop("values.hasNext", Op("sum += value")),
               Emit()})};
}

staticanalysis::FunctionIr IdentityReduce(const std::string& owner) {
  return {owner + ".reduce", Loop("values.hasNext", Emit())};
}

}  // namespace

BenchmarkJob WordCount() {
  BenchmarkJob job;
  job.application_domain = "Text Mining";
  job.data_sets = {kRandomText1Gb, kWikipedia35Gb};

  job.spec.name = "word-count";
  job.spec.map = {/*pairs*/ 15.0, /*size*/ 2.1, /*cpu ns*/ 4000.0};
  job.spec.combine.defined = true;
  job.spec.combine.pairs_selectivity = 0.12;  // Few distinct words per spill.
  job.spec.combine.size_selectivity = 0.15;
  job.spec.combine.merge_pairs_selectivity = 0.55;
  job.spec.combine.merge_size_selectivity = 0.55;
  job.spec.combine.cpu_ns_per_record = 300.0;
  job.spec.reduce = {/*pairs*/ 0.25, /*size*/ 0.5, /*cpu ns*/ 800.0};

  auto& p = job.program;
  p.job_class_name = "WordCount";
  p.mapper_class = "TokenCounterMapper";
  p.combiner_class = "IntSumReducer";
  p.reducer_class = "IntSumReducer";
  p.map_function = {"TokenCounterMapper.map",
                    Seq({Op("iterator = line.tokenize()"),
                         Loop("iterator.hasMoreTokens",
                              Seq({Op("word = iterator.currentToken()"),
                                   Emit()}))})};
  p.reduce_function = IntSumReduce("IntSumReducer");
  return job;
}

BenchmarkJob InvertedIndex() {
  BenchmarkJob job;
  job.application_domain = "Text Mining";
  job.data_sets = {kRandomText1Gb, kWikipedia35Gb};

  job.spec.name = "inverted-index";
  // The document reader hands whole multi-KB documents to the mapper, which
  // parses each one and emits one compact posting per distinct term: few,
  // expensive input records and a modest intermediate volume. The job is
  // map-CPU-bound, which is why the thesis finds the default configuration
  // already suits it (Figure 6.3).
  job.spec.input_record_granularity = 40.0;  // ~4.8 KB documents.
  job.spec.map = {220.0, 0.30, 1.0e7};
  job.spec.combine.defined = false;  // Posting lists don't combine.
  job.spec.reduce = {0.05, 0.90, 300.0};

  auto& p = job.program;
  p.job_class_name = "InvertedIndex";
  p.mapper_class = "TermDocMapper";
  p.reducer_class = "PostingListReducer";
  p.map_out_value = "PairOfInts";  // (docid, position).
  p.reduce_out_value = "ArrayListWritable";
  p.map_function = {"TermDocMapper.map",
                    Seq({Op("terms = parseDocument(line)"),
                         Loop("terms.hasNext",
                              Seq({Op("posting = (docid, pos)"), Emit()}))})};
  p.reduce_function = {"PostingListReducer.reduce",
                       Seq({Op("postings = new ArrayList()"),
                            Loop("values.hasNext", Op("postings.add(value)")),
                            Call("sortPostings"), Emit()})};
  return job;
}

BenchmarkJob Sort() {
  BenchmarkJob job;
  job.application_domain = "Many Domains";
  job.data_sets = {kTeraGen1Gb, kTeraGen35Gb};

  job.spec.name = "sort";
  job.spec.map = {1.0, 1.0, 800.0};  // Identity: size selectivity exactly 1.
  job.spec.combine.defined = false;
  job.spec.reduce = {1.0, 1.0, 600.0};

  auto& p = job.program;
  p.job_class_name = "Sort";
  p.mapper_class = "IdentityMapper";
  p.reducer_class = "IdentityReducer";
  p.map_in_key = "BytesWritable";
  p.map_in_value = "BytesWritable";
  p.map_out_key = "BytesWritable";
  p.map_out_value = "BytesWritable";
  p.reduce_out_key = "BytesWritable";
  p.reduce_out_value = "BytesWritable";
  p.output_formatter = "SequenceFileOutputFormat";
  p.input_formatter = "SequenceFileInputFormat";
  p.map_function = {"IdentityMapper.map", Emit()};
  p.reduce_function = IdentityReduce("IdentityReducer");
  return job;
}

BenchmarkJob TpchJoin() {
  BenchmarkJob job;
  job.application_domain = "Business Intelligence";
  job.data_sets = {kTpch1Gb, kTpch35Gb};

  job.spec.name = "tpch-join";
  job.spec.map = {1.0, 1.12, 2500.0};  // Tags each row with its source.
  job.spec.combine.defined = false;
  job.spec.reduce = {0.8, 1.3, 3000.0};  // Joined rows are wider.
  job.spec.input_format_cost_factor = 1.5;  // CompositeInputFormat readers.

  auto& p = job.program;
  p.job_class_name = "TpchJoin";
  p.input_formatter = "CompositeInputFormat";
  p.mapper_class = "JoinTaggingMapper";
  p.reducer_class = "JoinReducer";
  p.map_out_key = "LongWritable";
  p.map_out_value = "TaggedRow";
  p.reduce_out_key = "LongWritable";
  p.reduce_out_value = "JoinedRow";
  p.map_function = {"JoinTaggingMapper.map",
                    Seq({Op("row = parse(line)"),
                         IfElse("row.fromLineitem", Op("tag = L"),
                                Op("tag = O")),
                         Emit()})};
  p.reduce_function = {"JoinReducer.reduce",
                       Seq({Op("partition rows by tag"),
                            Loop("left.hasNext",
                                 Loop("right.hasNext",
                                      Seq({Op("joined = concat(l, r)"),
                                           Emit()})))})};
  return job;
}

BenchmarkJob BigramRelativeFrequency() {
  BenchmarkJob job;
  job.application_domain = "Natural Language Processing";
  job.data_sets = {kRandomText1Gb, kWikipedia35Gb};

  job.spec.name = "bigram-relative-frequency";
  // Each word contributes a (w1,w2) pair and a (w1,*) marginal: dataflow
  // very close to co-occurrence pairs at window 2, but bigrams repeat more
  // within a split, so the combiner bites harder.
  job.spec.map = {28.0, 5.0, 8500.0};
  job.spec.combine.defined = true;
  job.spec.combine.pairs_selectivity = 0.50;
  job.spec.combine.size_selectivity = 0.50;
  job.spec.combine.merge_pairs_selectivity = 0.80;
  job.spec.combine.merge_size_selectivity = 0.80;
  job.spec.combine.cpu_ns_per_record = 350.0;
  job.spec.reduce = {0.30, 0.38, 1300.0};

  auto& p = job.program;
  p.job_class_name = "BigramRelativeFrequency";
  p.mapper_class = "BigramMapper";
  p.combiner_class = "BigramCombiner";
  p.reducer_class = "RelativeFrequencyReducer";
  p.map_out_key = "PairOfStrings";
  p.map_out_value = "FloatWritable";
  p.reduce_out_key = "PairOfStrings";
  p.reduce_out_value = "FloatWritable";
  p.map_function = {"BigramMapper.map",
                    Seq({Op("words = line.extractWords()"),
                         Loop("i < words.length - 1",
                              Seq({Op("bigram = (words[i], words[i+1])"),
                                   Emit(),  // The pair count.
                                   Op("marginal = (words[i], *)"),
                                   Emit()}))})};
  p.reduce_function = {"RelativeFrequencyReducer.reduce",
                       Seq({Op("sum = 0"),
                            Loop("values.hasNext", Op("sum += value")),
                            IfElse("key.right == *", Op("marginal = sum"),
                                   Seq({Op("freq = sum / marginal"),
                                        Emit()}))})};
  return job;
}

BenchmarkJob WordCooccurrencePairs(int window) {
  PSTORM_CHECK(window >= 1);
  BenchmarkJob job;
  job.application_domain = "Natural Language Processing";
  job.data_sets = {kRandomText1Gb, kWikipedia35Gb};

  const double w = static_cast<double>(window);
  job.spec.name = "word-cooccurrence-pairs-w" + std::to_string(window);
  // ~14 word slots per line, each emitting `window` pairs.
  job.spec.map = {14.0 * w, 3.0 * w, 4500.0 * w};
  job.spec.combine.defined = true;
  job.spec.combine.pairs_selectivity = 0.65;  // Pairs rarely repeat in-split.
  job.spec.combine.size_selectivity = 0.65;
  job.spec.combine.merge_pairs_selectivity = 0.80;
  job.spec.combine.merge_size_selectivity = 0.80;
  job.spec.combine.cpu_ns_per_record = 350.0;
  job.spec.reduce = {0.30, 0.35, 1200.0};

  auto& p = job.program;
  p.job_class_name = "WordCooccurrencePairs";
  p.mapper_class = "CooccurrencePairsMapper";
  p.combiner_class = "IntSumReducer";
  p.reducer_class = "IntSumReducer";
  p.map_out_key = "PairOfStrings";
  // The thesis Algorithm 2 shape: outer loop, inner condition, inner loop.
  p.user_parameters = {{"window", std::to_string(window)}};
  p.map_function = {"CooccurrencePairsMapper.map",
                    Seq({Op("window = getUserParameter()"),
                         Op("words = line.extractWords()"),
                         Loop("i < words.length",
                              If("isNotEmpty(words[i])",
                                 Loop("j < i + window",
                                      Seq({Op("pair = (words[i], words[j])"),
                                           Emit()}))))})};
  p.reduce_function = IntSumReduce("IntSumReducer");
  return job;
}

BenchmarkJob WordCooccurrenceStripes() {
  BenchmarkJob job;
  job.application_domain = "Natural Language Processing";
  job.data_sets = {kRandomText1Gb};  // OOMs on the 35 GB set (thesis).

  job.spec.name = "word-cooccurrence-stripes";
  job.spec.map = {14.0, 5.5, 16000.0};  // One stripe map per word slot.
  job.spec.combine.defined = true;      // Stripes merge element-wise.
  job.spec.combine.pairs_selectivity = 0.35;
  job.spec.combine.size_selectivity = 0.45;
  job.spec.combine.merge_pairs_selectivity = 0.70;
  job.spec.combine.merge_size_selectivity = 0.70;
  job.spec.combine.cpu_ns_per_record = 2500.0;  // Map merging is pricey.
  job.spec.reduce = {0.05, 0.30, 6000.0};
  // The mapper's in-memory association maps grow with the vocabulary:
  // 220 MB (Wikipedia) * 1.5 blows the 300 MB heap; 25 MB (random text)
  // does not.
  job.spec.map_heap_demand_base_mb = 30.0;
  job.spec.map_heap_demand_mb_per_vocab_mb = 1.5;

  auto& p = job.program;
  p.job_class_name = "WordCooccurrenceStripes";
  p.mapper_class = "CooccurrenceStripesMapper";
  p.combiner_class = "StripesCombiner";
  p.reducer_class = "StripesReducer";
  p.map_out_value = "HashMapWritable";
  p.reduce_out_value = "HashMapWritable";
  p.map_function = {"CooccurrenceStripesMapper.map",
                    Seq({Op("words = line.extractWords()"),
                         Loop("i < words.length",
                              Seq({Op("stripe = stripes.get(words[i])"),
                                   Loop("j in window",
                                        Op("stripe.increment(words[j])")),
                                   Emit()}))})};
  p.reduce_function = {"StripesReducer.reduce",
                       Seq({Op("merged = new HashMap()"),
                            Loop("values.hasNext",
                                 Call("elementwiseAdd")),
                            Emit()})};
  return job;
}

BenchmarkJob CloudBurst() {
  BenchmarkJob job;
  job.application_domain = "Bioinformatics";
  job.data_sets = {kGenomeSample, kLakeWashington};

  job.spec.name = "cloudburst";
  job.spec.map = {8.0, 3.2, 35000.0};  // Seed extraction per read.
  job.spec.combine.defined = false;
  job.spec.reduce = {0.04, 0.35, 45000.0};  // Seed-and-extend alignment.

  auto& p = job.program;
  p.job_class_name = "CloudBurst";
  p.input_formatter = "SequenceFileInputFormat";
  p.mapper_class = "MerReduceMapper";
  p.reducer_class = "MerReduceReducer";
  p.map_in_key = "IntWritable";
  p.map_in_value = "BytesWritable";
  p.map_out_key = "BytesWritable";
  p.map_out_value = "BytesWritable";
  p.reduce_out_key = "IntWritable";
  p.reduce_out_value = "BytesWritable";
  p.output_formatter = "SequenceFileOutputFormat";
  p.map_function = {"MerReduceMapper.map",
                    Seq({Op("read = decode(value)"),
                         Loop("offset < read.length - seedLen",
                              Seq({Op("seed = read.sub(offset, seedLen)"),
                                   If("isLowComplexity(seed)",
                                      Op("continue")),
                                   Emit()}))})};
  p.reduce_function = {"MerReduceReducer.reduce",
                       Seq({Op("partition seeds by source"),
                            Loop("refSeeds.hasNext",
                                 Loop("readSeeds.hasNext",
                                      Seq({Call("extendAlignment"),
                                           If("alignment.score >= threshold",
                                              Emit())})))})};
  return job;
}

BenchmarkJob ItemBasedCollaborativeFiltering() {
  BenchmarkJob job;
  job.application_domain = "Recommendation Systems";
  job.data_sets = {kMovieLens1M, kMovieLens10M};

  job.spec.name = "itembased-cf";
  job.spec.map = {1.4, 1.6, 6000.0};
  job.spec.combine.defined = true;
  job.spec.combine.pairs_selectivity = 0.6;
  job.spec.combine.size_selectivity = 0.6;
  job.spec.combine.cpu_ns_per_record = 800.0;
  job.spec.reduce = {0.5, 1.1, 9000.0};  // Pairwise similarities.

  auto& p = job.program;
  p.job_class_name = "ItemBasedCF";
  p.mapper_class = "UserVectorMapper";
  p.combiner_class = "VectorSumCombiner";
  p.reducer_class = "ItemSimilarityReducer";
  p.map_in_key = "LongWritable";
  p.map_in_value = "Text";
  p.map_out_key = "VarLongWritable";
  p.map_out_value = "VectorWritable";
  p.reduce_out_key = "VarLongWritable";
  p.reduce_out_value = "VectorWritable";
  p.map_function = {"UserVectorMapper.map",
                    Seq({Op("rating = parse(line)"),
                         If("rating.value >= minPreference",
                            Seq({Op("vector = sparse(item, value)"),
                                 Emit()}))})};
  p.reduce_function = {"ItemSimilarityReducer.reduce",
                       Seq({Op("accumulate user vector"),
                            Loop("cooccurring items",
                                 Seq({Call("cosineSimilarity"), Emit()}))})};
  return job;
}

std::vector<BenchmarkJob> FrequentItemsetMiningChain() {
  std::vector<BenchmarkJob> chain;

  {
    BenchmarkJob job;
    job.application_domain = "Data Mining";
    job.data_sets = {kWebdocs};
    job.spec.name = "fim-1-parallel-counting";
    job.spec.map = {40.0, 2.8, 22000.0};  // Candidate itemsets per basket.
    job.spec.combine.defined = true;
    job.spec.combine.pairs_selectivity = 0.15;
    job.spec.combine.size_selectivity = 0.18;
    job.spec.combine.cpu_ns_per_record = 400.0;
    job.spec.reduce = {0.10, 0.15, 1800.0};
    auto& p = job.program;
    p.job_class_name = "PFPGrowthStep1";
    p.mapper_class = "ParallelCountingMapper";
    p.combiner_class = "IntSumReducer";
    p.reducer_class = "IntSumReducer";
    p.map_function = {"ParallelCountingMapper.map",
                      Seq({Op("items = splitBasket(line)"),
                           Loop("items.hasNext", Emit())})};
    p.reduce_function = IntSumReduce("IntSumReducer");
    chain.push_back(job);
  }
  {
    BenchmarkJob job;
    job.application_domain = "Data Mining";
    job.data_sets = {kWebdocs};
    job.spec.name = "fim-2-parallel-fpgrowth";
    job.spec.map = {10.0, 1.4, 15000.0};
    job.spec.combine.defined = true;
    job.spec.combine.pairs_selectivity = 0.35;
    job.spec.combine.size_selectivity = 0.35;
    job.spec.combine.cpu_ns_per_record = 1200.0;
    job.spec.reduce = {0.30, 0.50, 25000.0};  // Local FP-tree mining.
    job.spec.map_heap_demand_base_mb = 60.0;  // Group-dependent F-lists.
    auto& p = job.program;
    p.job_class_name = "PFPGrowthStep2";
    p.mapper_class = "ParallelFPGrowthMapper";
    p.combiner_class = "TopKPatternsCombiner";
    p.reducer_class = "ParallelFPGrowthReducer";
    p.map_out_key = "IntWritable";
    p.map_out_value = "TransactionTree";
    p.reduce_out_value = "TopKStringPatterns";
    p.map_function = {"ParallelFPGrowthMapper.map",
                      Seq({Op("filtered = filterByFList(line)"),
                           Loop("groups.hasNext",
                                If("group.ownsItem",
                                   Seq({Op("subTransaction"), Emit()})))})};
    p.reduce_function = {"ParallelFPGrowthReducer.reduce",
                         Seq({Op("tree = buildFPTree(values)"),
                              Call("fpGrowth"),
                              Loop("patterns.hasNext", Emit())})};
    chain.push_back(job);
  }
  {
    BenchmarkJob job;
    job.application_domain = "Data Mining";
    job.data_sets = {kWebdocs};
    job.spec.name = "fim-3-aggregation";
    job.spec.map = {2.0, 0.9, 5000.0};
    job.spec.combine.defined = false;
    job.spec.reduce = {0.5, 0.6, 3500.0};
    auto& p = job.program;
    p.job_class_name = "PFPGrowthStep3";
    p.mapper_class = "AggregatorMapper";
    p.reducer_class = "AggregatorReducer";
    p.map_out_value = "TopKStringPatterns";
    p.reduce_out_value = "TopKStringPatterns";
    p.map_function = {"AggregatorMapper.map",
                      Seq({Op("patterns = parse(line)"),
                           Loop("patterns.hasNext", Emit())})};
    p.reduce_function = {"AggregatorReducer.reduce",
                         Seq({Op("heap = new TopKHeap()"),
                              Loop("values.hasNext", Op("heap.offer(value)")),
                              Emit()})};
    chain.push_back(job);
  }
  return chain;
}

std::vector<BenchmarkJob> PigMixQueries() {
  std::vector<BenchmarkJob> queries;
  queries.reserve(17);
  for (int i = 1; i <= 17; ++i) {
    BenchmarkJob job;
    job.application_domain = "Pig Benchmark";
    job.data_sets = {kPigMix1Gb, kPigMix35Gb};

    // Deterministic per-query variation across the dataflow space: scans,
    // projections, group-bys, joins, distinct — different selectivities,
    // costs, and code shapes.
    const double pairs = 0.4 + static_cast<double>(i % 5) * 0.7;
    const double size = 0.3 + static_cast<double>(i % 4) * 0.45;
    const bool has_combiner = (i % 3) == 0;

    job.spec.name = "pigmix-l" + std::to_string(i);
    job.spec.map = {pairs, size, 1800.0 + 350.0 * i};
    job.spec.combine.defined = has_combiner;
    if (has_combiner) {
      job.spec.combine.pairs_selectivity = 0.40;
      job.spec.combine.size_selectivity = 0.45;
      job.spec.combine.cpu_ns_per_record = 500.0;
    }
    job.spec.reduce = {0.55 + 0.02 * i, 0.45 + static_cast<double>(i % 3) * 0.3,
                       900.0 + 180.0 * i};

    auto& p = job.program;
    p.job_class_name = "PigMixL" + std::to_string(i);
    // PigMix queries exercise different loaders, store functions, and
    // operator pipelines; their compiled MR jobs differ in most of the
    // customizable parts, which is what keeps them distinguishable to
    // name-based matching.
    p.input_formatter = (i % 4 == 0) ? "PigTextLoader" : "PigStorage";
    p.mapper_class = "PigMapL" + std::to_string(i);
    p.reducer_class = "PigReduceL" + std::to_string(i);
    if (has_combiner) p.combiner_class = "PigCombineL" + std::to_string(i);
    p.map_out_key = (i % 2 == 0) ? "Tuple" : "Text";
    static const char* kValueTypes[] = {"Tuple", "BagOfTuples",
                                        "NullableTuple"};
    p.map_out_value = kValueTypes[i % 3];
    p.reduce_out_key = (i % 2 == 0) ? "Tuple" : "Text";
    p.reduce_out_value = kValueTypes[(i + 1) % 3];
    p.output_formatter =
        (i % 5 == 0) ? "PigSequenceStorer" : "PigStorageStorer";

    // Three body shapes: filter-project, nested foreach, split.
    switch (i % 3) {
      case 0:
        p.map_function = {p.mapper_class + ".map",
                          Seq({Op("tuple = parse(line)"),
                               If("filterExpr(tuple)",
                                  Seq({Op("projected = project(tuple)"),
                                       Emit()}))})};
        break;
      case 1:
        p.map_function = {p.mapper_class + ".map",
                          Seq({Op("tuple = parse(line)"),
                               Loop("bag.hasNext",
                                    Seq({Op("inner = transform(item)"),
                                         Emit()}))})};
        break;
      default:
        p.map_function = {p.mapper_class + ".map",
                          Seq({Op("tuple = parse(line)"),
                               IfElse("splitExpr(tuple)", Emit(),
                                      Seq({Op("rewrite(tuple)"), Emit()}))})};
        break;
    }
    p.reduce_function = {p.reducer_class + ".reduce",
                         (i % 2 == 0)
                             ? Seq({Op("acc = init()"),
                                    Loop("values.hasNext",
                                         Op("acc = fold(acc, value)")),
                                    Emit()})
                             : Seq({Loop("values.hasNext",
                                         Seq({Op("out = finalize(value)"),
                                              Emit()}))})};
    queries.push_back(job);
  }
  return queries;
}

BenchmarkJob Grep(double match_selectivity) {
  PSTORM_CHECK(match_selectivity >= 0.0 && match_selectivity <= 1.0);
  BenchmarkJob job;
  job.application_domain = "Log Analysis";
  job.data_sets = {kRandomText1Gb, kWikipedia35Gb};

  job.spec.name = "grep";
  job.spec.map = {match_selectivity, match_selectivity * 1.1, 2500.0};
  job.spec.combine.defined = false;
  job.spec.reduce = {1.0, 1.0, 500.0};

  auto& p = job.program;
  p.job_class_name = "DistributedGrep";
  char pattern_buf[32];
  std::snprintf(pattern_buf, sizeof(pattern_buf), "sel-%.4f",
                match_selectivity);
  p.user_parameters = {{"pattern", pattern_buf}};
  p.mapper_class = "RegexMapper";
  p.reducer_class = "IdentityReducer";
  p.map_function = {"RegexMapper.map",
                    Seq({Op("matcher = pattern.matcher(line)"),
                         If("matcher.find", Emit())})};
  p.reduce_function = IdentityReduce("IdentityReducer");
  return job;
}

std::vector<BenchmarkJob> AllBenchmarkJobs() {
  std::vector<BenchmarkJob> jobs;
  jobs.push_back(CloudBurst());
  for (BenchmarkJob& job : FrequentItemsetMiningChain()) {
    jobs.push_back(std::move(job));
  }
  jobs.push_back(ItemBasedCollaborativeFiltering());
  jobs.push_back(TpchJoin());
  jobs.push_back(WordCount());
  jobs.push_back(InvertedIndex());
  jobs.push_back(Sort());
  for (BenchmarkJob& job : PigMixQueries()) jobs.push_back(std::move(job));
  jobs.push_back(BigramRelativeFrequency());
  jobs.push_back(WordCooccurrencePairs(2));
  jobs.push_back(WordCooccurrenceStripes());
  return jobs;
}

std::vector<WorkloadEntry> Table61Workload() {
  std::vector<WorkloadEntry> workload;
  for (const BenchmarkJob& job : AllBenchmarkJobs()) {
    for (const std::string& data_set : job.data_sets) {
      WorkloadEntry entry;
      entry.job = job;
      entry.data_set = data_set;
      // Compressibility is a property of the data flowing through the job.
      const auto data = FindDataSet(data_set);
      PSTORM_CHECK(data.ok()) << data.status();
      entry.job.spec.intermediate_compress_ratio =
          std::min(1.0, data->compress_ratio + 0.08);
      entry.job.spec.output_compress_ratio =
          std::min(1.0, data->compress_ratio + 0.12);
      // Selectivities depend (mildly) on the data itself — Wikipedia prose
      // and random text have different word statistics — so the same job's
      // profiles on different data sets are close but not identical
      // (exactly why Figure 4.6 motivates the input-size tie-break).
      auto variation = [&](const char* salt) {
        const uint64_t h =
            Fnv1a64(job.spec.name + "|" + data_set + "|" + salt);
        return 0.92 + 0.16 * (static_cast<double>(h % 1000) / 999.0);
      };
      entry.job.spec.map.size_selectivity *= variation("msz");
      entry.job.spec.map.pairs_selectivity *= variation("mpr");
      entry.job.spec.reduce.size_selectivity *= variation("rsz");
      entry.job.spec.reduce.pairs_selectivity *= variation("rpr");
      workload.push_back(std::move(entry));
    }
  }
  return workload;
}

const CatalogueJob* FindCatalogueJob(std::string_view name) {
  // Leaked on purpose: server workers may still resolve names while the
  // process exits.
  static const auto* const table = [] {
    auto* jobs = new std::map<std::string, CatalogueJob, std::less<>>();
    for (BenchmarkJob& job : AllBenchmarkJobs()) {
      staticanalysis::StaticFeatures statics =
          staticanalysis::ExtractStaticFeatures(job.program);
      std::string key = job.spec.name;
      jobs->try_emplace(std::move(key),
                        CatalogueJob{std::move(job), std::move(statics)});
    }
    return jobs;
  }();
  const auto it = table->find(name);
  return it == table->end() ? nullptr : &it->second;
}

}  // namespace pstorm::jobs
