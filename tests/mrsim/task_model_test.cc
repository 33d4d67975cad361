#include "mrsim/task_model.h"

#include <gtest/gtest.h>

namespace pstorm::mrsim {
namespace {

/// A word-count-like map task on a 64 MB split with realistic cluster
/// rates; individual tests tweak what they probe.
MapTaskParams BaseMapParams() {
  MapTaskParams p;
  p.input_bytes = 64.0 * (1 << 20);
  p.input_records = p.input_bytes / 100.0;
  p.map_pairs_selectivity = 15.0;
  p.map_size_selectivity = 2.4;
  p.map_cpu_ns_per_record = 3000.0;
  p.combiner_defined = true;
  p.combine_pairs_selectivity = 0.3;
  p.combine_size_selectivity = 0.3;
  p.combine_merge_pairs_selectivity = 0.5;
  p.combine_merge_size_selectivity = 0.5;
  p.combine_cpu_ns_per_record = 500.0;
  p.hdfs_read_ns_per_byte = 15.0;
  p.local_read_ns_per_byte = 10.0;
  p.local_write_ns_per_byte = 12.0;
  p.collect_ns_per_record = 350.0;
  p.sort_ns_per_compare = 80.0;
  p.merge_cpu_ns_per_byte = 1.0;
  p.compress_cpu_ns_per_byte = 6.0;
  p.decompress_cpu_ns_per_byte = 3.0;
  p.startup_seconds = 2.0;
  return p;
}

ReduceTaskParams BaseReduceParams() {
  ReduceTaskParams p;
  p.shuffle_wire_bytes = 2.0 * (1 << 30);
  p.shuffle_uncompressed_bytes = p.shuffle_wire_bytes;
  p.input_records = p.shuffle_wire_bytes / 20.0;
  p.num_map_segments = 571;
  p.reduce_pairs_selectivity = 0.8;
  p.reduce_size_selectivity = 0.8;
  p.reduce_cpu_ns_per_record = 2000.0;
  p.heap_mb = 300.0;
  p.network_ns_per_byte = 18.0;
  p.local_read_ns_per_byte = 10.0;
  p.local_write_ns_per_byte = 12.0;
  p.hdfs_write_ns_per_byte = 30.0;
  p.sort_ns_per_compare = 80.0;
  p.merge_cpu_ns_per_byte = 1.0;
  p.compress_cpu_ns_per_byte = 6.0;
  p.decompress_cpu_ns_per_byte = 3.0;
  p.startup_seconds = 2.0;
  return p;
}

TEST(MapTaskModelTest, DataflowFollowsSelectivities) {
  MapTaskParams p = BaseMapParams();
  Configuration c;
  c.use_combiner = false;
  const MapTaskOutcome out = ModelMapTask(p, c);
  EXPECT_DOUBLE_EQ(out.map_output_records,
                   p.input_records * p.map_pairs_selectivity);
  EXPECT_DOUBLE_EQ(out.map_output_bytes,
                   p.input_bytes * p.map_size_selectivity);
  // Without combiner or compression, final output equals map output.
  EXPECT_NEAR(out.final_output_uncompressed_bytes, out.map_output_bytes,
              1.0);
  EXPECT_NEAR(out.final_output_records, out.map_output_records, 1.0);
  EXPECT_DOUBLE_EQ(out.final_output_wire_bytes,
                   out.final_output_uncompressed_bytes);
}

TEST(MapTaskModelTest, LargerSortBufferMeansFewerSpills) {
  MapTaskParams p = BaseMapParams();
  Configuration small, large;
  small.io_sort_mb = 50;
  large.io_sort_mb = 200;
  const MapTaskOutcome out_small = ModelMapTask(p, small);
  const MapTaskOutcome out_large = ModelMapTask(p, large);
  EXPECT_GT(out_small.num_spills, out_large.num_spills);
}

TEST(MapTaskModelTest, RecordPercentControlsMetadataSpills) {
  // Tiny records: metadata fills before data, so raising
  // io.sort.record.percent cuts the spill count (the thesis §2.2 example).
  MapTaskParams p = BaseMapParams();
  p.map_pairs_selectivity = 30.0;  // Many tiny intermediate records.
  p.map_size_selectivity = 1.0;
  Configuration low, high;
  low.io_sort_record_percent = 0.05;
  high.io_sort_record_percent = 0.30;
  EXPECT_GT(ModelMapTask(p, low).num_spills,
            ModelMapTask(p, high).num_spills);
}

TEST(MapTaskModelTest, CombinerShrinksOutputAndCostsCpu) {
  MapTaskParams p = BaseMapParams();
  Configuration with, without;
  with.use_combiner = true;
  without.use_combiner = false;
  const MapTaskOutcome out_with = ModelMapTask(p, with);
  const MapTaskOutcome out_without = ModelMapTask(p, without);
  EXPECT_LT(out_with.final_output_wire_bytes,
            out_without.final_output_wire_bytes);
  EXPECT_LT(out_with.final_output_records, out_without.final_output_records);
  EXPECT_GT(out_with.combine_input_records, 0.0);
  EXPECT_EQ(out_without.combine_input_records, 0.0);
}

TEST(MapTaskModelTest, CombinerConfigKnobIgnoredWhenJobHasNone) {
  MapTaskParams p = BaseMapParams();
  p.combiner_defined = false;
  Configuration c;
  c.use_combiner = true;
  const MapTaskOutcome out = ModelMapTask(p, c);
  EXPECT_NEAR(out.final_output_records, out.map_output_records, 1.0);
}

TEST(MapTaskModelTest, CompressionShrinksWireBytesAndAddsCpu) {
  MapTaskParams p = BaseMapParams();
  p.intermediate_compress_ratio = 0.35;
  Configuration compressed, plain;
  compressed.compress_map_output = true;
  plain.compress_map_output = false;
  const MapTaskOutcome out_c = ModelMapTask(p, compressed);
  const MapTaskOutcome out_p = ModelMapTask(p, plain);
  EXPECT_NEAR(out_c.final_output_wire_bytes,
              out_p.final_output_wire_bytes * 0.35,
              out_p.final_output_wire_bytes * 0.02);
  EXPECT_EQ(out_c.final_output_uncompressed_bytes,
            out_p.final_output_uncompressed_bytes);
  // Spill phase pays the compression CPU but writes less.
  EXPECT_LT(out_c.spilled_bytes, out_p.spilled_bytes);
}

TEST(MapTaskModelTest, SingleSpillSkipsMerge) {
  MapTaskParams p = BaseMapParams();
  p.map_pairs_selectivity = 0.01;  // Tiny output fits one spill.
  p.map_size_selectivity = 0.01;
  Configuration c;
  const MapTaskOutcome out = ModelMapTask(p, c);
  EXPECT_EQ(out.num_spills, 1.0);
  EXPECT_EQ(out.merge_passes, 0.0);
  EXPECT_EQ(out.merge_s, 0.0);
}

TEST(MapTaskModelTest, HigherSortFactorMeansFewerMergePasses) {
  MapTaskParams p = BaseMapParams();
  p.map_size_selectivity = 12.0;  // Lots of spills.
  p.map_pairs_selectivity = 40.0;
  Configuration narrow, wide;
  narrow.io_sort_factor = 2;
  wide.io_sort_factor = 100;
  const MapTaskOutcome out_narrow = ModelMapTask(p, narrow);
  const MapTaskOutcome out_wide = ModelMapTask(p, wide);
  EXPECT_GT(out_narrow.merge_passes, out_wide.merge_passes);
  EXPECT_GT(out_narrow.merge_s, out_wide.merge_s);
}

TEST(MapTaskModelTest, MapOnlyNoOutputSkipsCollectAndSpill) {
  MapTaskParams p = BaseMapParams();
  p.map_pairs_selectivity = 0.0;
  p.map_size_selectivity = 0.0;
  Configuration c;
  const MapTaskOutcome out = ModelMapTask(p, c);
  EXPECT_EQ(out.collect_s, 0.0);
  EXPECT_EQ(out.spill_s, 0.0);
  EXPECT_EQ(out.final_output_records, 0.0);
  EXPECT_GT(out.total_s, 0.0);  // Still reads and maps.
}

TEST(MapTaskModelTest, PhasesSumToTotal) {
  MapTaskParams p = BaseMapParams();
  Configuration c;
  c.use_combiner = true;
  const MapTaskOutcome out = ModelMapTask(p, c);
  EXPECT_NEAR(out.total_s,
              p.startup_seconds + out.read_s + out.map_s + out.collect_s +
                  out.spill_s + out.merge_s,
              1e-9);
}

TEST(ReduceTaskModelTest, PhasesSumToTotal) {
  const ReduceTaskOutcome out = ModelReduceTask(BaseReduceParams(), {});
  EXPECT_NEAR(out.total_s,
              2.0 + out.shuffle_s + out.merge_s + out.reduce_s + out.write_s,
              1e-9);
}

TEST(ReduceTaskModelTest, OutputFollowsSelectivities) {
  ReduceTaskParams p = BaseReduceParams();
  const ReduceTaskOutcome out = ModelReduceTask(p, {});
  EXPECT_DOUBLE_EQ(out.output_records,
                   p.input_records * p.reduce_pairs_selectivity);
  EXPECT_DOUBLE_EQ(out.output_bytes, p.shuffle_uncompressed_bytes *
                                         p.reduce_size_selectivity);
}

TEST(ReduceTaskModelTest, RetainingInputInHeapAvoidsDiskTraffic) {
  ReduceTaskParams p = BaseReduceParams();
  p.shuffle_wire_bytes = 100.0 * (1 << 20);  // Fits a generous heap share.
  p.shuffle_uncompressed_bytes = p.shuffle_wire_bytes;
  p.heap_mb = 400.0;
  Configuration spill_all, retain;
  spill_all.reduce_input_buffer_percent = 0.0;
  retain.reduce_input_buffer_percent = 0.5;
  const ReduceTaskOutcome out_spill = ModelReduceTask(p, spill_all);
  const ReduceTaskOutcome out_retain = ModelReduceTask(p, retain);
  EXPECT_GT(out_spill.disk_segments, 0.0);
  EXPECT_LT(out_retain.shuffle_s, out_spill.shuffle_s);
  EXPECT_LE(out_retain.reduce_s, out_spill.reduce_s);
}

TEST(ReduceTaskModelTest, BiggerSharesMeanMoreMergePasses) {
  ReduceTaskParams small = BaseReduceParams();
  ReduceTaskParams large = BaseReduceParams();
  large.shuffle_wire_bytes *= 40.0;
  large.shuffle_uncompressed_bytes *= 40.0;
  large.input_records *= 40.0;
  const ReduceTaskOutcome out_small = ModelReduceTask(small, {});
  const ReduceTaskOutcome out_large = ModelReduceTask(large, {});
  EXPECT_GE(out_large.merge_passes, out_small.merge_passes);
  EXPECT_GT(out_large.total_s, out_small.total_s);
}

TEST(ReduceTaskModelTest, InmemMergeThresholdCapsSegments) {
  ReduceTaskParams p = BaseReduceParams();
  p.num_map_segments = 5000.0;
  Configuration low, high;
  low.inmem_merge_threshold = 10;    // Merge every 10 segments.
  high.inmem_merge_threshold = 10000;
  const ReduceTaskOutcome out_low = ModelReduceTask(p, low);
  const ReduceTaskOutcome out_high = ModelReduceTask(p, high);
  EXPECT_GT(out_low.disk_segments, out_high.disk_segments);
}

TEST(ReduceTaskModelTest, OutputCompressionShrinksBytesWritten) {
  ReduceTaskParams p = BaseReduceParams();
  p.output_compress_ratio = 0.4;
  Configuration compressed, plain;
  compressed.compress_output = true;
  const ReduceTaskOutcome out_c = ModelReduceTask(p, compressed);
  const ReduceTaskOutcome out_p = ModelReduceTask(p, plain);
  EXPECT_NEAR(out_c.output_bytes, out_p.output_bytes * 0.4,
              out_p.output_bytes * 0.01);
}

TEST(ReduceTaskModelTest, CompressedIntermediateTradesNetworkForCpu) {
  ReduceTaskParams plain = BaseReduceParams();
  ReduceTaskParams compressed = BaseReduceParams();
  compressed.intermediate_compressed = true;
  compressed.shuffle_wire_bytes *= 0.35;  // Same logical data, smaller wire.
  const ReduceTaskOutcome out_p = ModelReduceTask(plain, {});
  const ReduceTaskOutcome out_c = ModelReduceTask(compressed, {});
  EXPECT_LT(out_c.shuffle_s, out_p.shuffle_s);

  // Decompression CPU in isolation: same wire bytes, compressed flag only.
  ReduceTaskParams flag_only = BaseReduceParams();
  flag_only.intermediate_compressed = true;
  const ReduceTaskOutcome out_f = ModelReduceTask(flag_only, {});
  EXPECT_GT(out_f.reduce_s, out_p.reduce_s) << "pays decompression";
}

class ConfigValidationTest
    : public ::testing::TestWithParam<std::pair<const char*, Configuration>> {
};

}  // namespace

// gtest would otherwise print the name as a pointer, whose value changes
// every run, into the ctest name of each case. Outside the anonymous
// namespace, so that lookup through Configuration's namespace finds it.
void PrintTo(const std::pair<const char*, Configuration>& param,
             std::ostream* os) {
  *os << param.first;
}

namespace {

TEST_P(ConfigValidationTest, RejectsOutOfRangeValues) {
  EXPECT_TRUE(GetParam().second.Validate().IsInvalidArgument())
      << GetParam().first;
}

std::vector<std::pair<const char*, Configuration>> BadConfigs() {
  std::vector<std::pair<const char*, Configuration>> cases;
  auto add = [&cases](const char* name, auto mutate) {
    Configuration c;
    mutate(c);
    cases.emplace_back(name, c);
  };
  add("io_sort_mb_zero", [](Configuration& c) { c.io_sort_mb = 0; });
  add("io_sort_mb_huge", [](Configuration& c) { c.io_sort_mb = 1e6; });
  add("record_percent_negative",
      [](Configuration& c) { c.io_sort_record_percent = -0.1; });
  add("record_percent_one",
      [](Configuration& c) { c.io_sort_record_percent = 1.0; });
  add("spill_percent_zero",
      [](Configuration& c) { c.io_sort_spill_percent = 0.0; });
  add("sort_factor_one", [](Configuration& c) { c.io_sort_factor = 1; });
  add("min_spills_zero",
      [](Configuration& c) { c.min_num_spills_for_combine = 0; });
  add("slowstart_above_one",
      [](Configuration& c) { c.reduce_slowstart_completed_maps = 1.5; });
  add("negative_reducers", [](Configuration& c) { c.num_reduce_tasks = -1; });
  add("shuffle_buffer_above_one",
      [](Configuration& c) { c.shuffle_input_buffer_percent = 1.2; });
  add("inmem_threshold_zero",
      [](Configuration& c) { c.inmem_merge_threshold = 0; });
  add("reduce_input_buffer_above_one",
      [](Configuration& c) { c.reduce_input_buffer_percent = 2.0; });
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    BadConfigs, ConfigValidationTest, ::testing::ValuesIn(BadConfigs()),
    [](const auto& info) { return std::string(info.param.first); });

TEST(ConfigurationTest, DefaultsAreValidAndMatchTable21) {
  Configuration c;
  EXPECT_TRUE(c.Validate().ok());
  EXPECT_EQ(c.io_sort_mb, 100.0);
  EXPECT_EQ(c.io_sort_record_percent, 0.05);
  EXPECT_EQ(c.io_sort_spill_percent, 0.8);
  EXPECT_EQ(c.io_sort_factor, 10);
  EXPECT_TRUE(c.use_combiner) << "a job-defined combiner runs by default";
  EXPECT_EQ(c.min_num_spills_for_combine, 3);
  EXPECT_FALSE(c.compress_map_output);
  EXPECT_EQ(c.reduce_slowstart_completed_maps, 0.05);
  EXPECT_EQ(c.num_reduce_tasks, 1);
  EXPECT_EQ(c.shuffle_input_buffer_percent, 0.7);
  EXPECT_EQ(c.shuffle_merge_percent, 0.66);
  EXPECT_EQ(c.inmem_merge_threshold, 1000);
  EXPECT_EQ(c.reduce_input_buffer_percent, 0.0);
  EXPECT_FALSE(c.compress_output);
}

TEST(ConfigurationTest, ParameterTableHasFourteenRows) {
  EXPECT_EQ(ConfigurationParameterTable().size(), 14u);
  EXPECT_EQ(ConfigurationParameterTable()[0].hadoop_name, "io.sort.mb");
  EXPECT_EQ(ConfigurationParameterTable()[13].hadoop_name,
            "mapred.output.compress");
}

TEST(ConfigurationTest, ToStringMentionsEveryKnob) {
  const std::string s = Configuration{}.ToString();
  for (const char* token :
       {"io.sort.mb", "io.sort.record.percent", "io.sort.spill.percent",
        "io.sort.factor", "combiner", "min.num.spills.for.combine",
        "compress.map.output", "slowstart", "reduce.tasks",
        "shuffle.input.buffer", "shuffle.merge", "inmem.merge.threshold",
        "reduce.input.buffer", "output.compress"}) {
    EXPECT_NE(s.find(token), std::string::npos) << token;
  }
}

}  // namespace
}  // namespace pstorm::mrsim
