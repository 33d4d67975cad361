#include "whatif/whatif_engine.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace pstorm::whatif {

WhatIfEngine::WhatIfEngine(mrsim::ClusterSpec cluster) : cluster_(cluster) {}

Result<Prediction> WhatIfEngine::Predict(
    const profiler::ExecutionProfile& profile, const mrsim::DataSetSpec& data,
    const mrsim::Configuration& config) const {
  PSTORM_RETURN_IF_ERROR(cluster_.Validate());
  PSTORM_RETURN_IF_ERROR(data.Validate());
  PSTORM_RETURN_IF_ERROR(config.Validate());
  const profiler::MapSideProfile& m = profile.map_side;
  const profiler::ReduceSideProfile& r = profile.reduce_side;
  if (m.num_tasks <= 0 || m.input_bytes <= 0 || m.input_records <= 0) {
    return Status::InvalidArgument("profile has no usable map observations");
  }

  const uint64_t num_splits = data.num_splits();
  if (num_splits == 0) return Status::InvalidArgument("no input splits");

  // ---- Virtual map-task parameters from the profile -------------------
  const double record_bytes = m.input_bytes / m.input_records;

  mrsim::MapTaskParams map_params;
  // Average actual split: a data set smaller than one HDFS block yields a
  // single short split, not a full-block one.
  map_params.input_bytes = static_cast<double>(data.size_bytes) /
                           static_cast<double>(num_splits);
  map_params.input_records = map_params.input_bytes / record_bytes;
  map_params.map_pairs_selectivity = m.pairs_selectivity;
  map_params.map_size_selectivity = m.size_selectivity;
  map_params.map_cpu_ns_per_record = m.map_cpu_cost;
  // A combiner is known to exist iff the profile shows it collapsed
  // records.
  map_params.combiner_defined = m.combine_pairs_selectivity < 1.0 ||
                                m.combine_cpu_cost > 0.0;
  map_params.combine_pairs_selectivity = m.combine_pairs_selectivity;
  map_params.combine_size_selectivity = m.combine_size_selectivity;
  // The profile's combine selectivities already capture the total effect
  // across spill and merge combining; no further merge-time collapsing.
  map_params.combine_merge_pairs_selectivity = 1.0;
  map_params.combine_merge_size_selectivity = 1.0;
  map_params.combine_cpu_ns_per_record = m.combine_cpu_cost;
  // Format read cost is folded into the measured READ_HDFS_IO_COST.
  map_params.input_format_cost_factor = 1.0;
  map_params.intermediate_compress_ratio = m.intermediate_compress_ratio;
  map_params.hdfs_read_ns_per_byte = m.read_hdfs_io_cost;
  map_params.local_read_ns_per_byte = m.read_local_io_cost;
  map_params.local_write_ns_per_byte = m.write_local_io_cost;
  // Framework-level CPU rates are cluster facts, not job facts.
  map_params.collect_ns_per_record = cluster_.collect_ns_per_record;
  map_params.sort_ns_per_compare = cluster_.sort_ns_per_compare;
  map_params.merge_cpu_ns_per_byte = cluster_.merge_cpu_ns_per_byte;
  map_params.compress_cpu_ns_per_byte = cluster_.compress_cpu_ns_per_byte;
  map_params.decompress_cpu_ns_per_byte =
      cluster_.decompress_cpu_ns_per_byte;
  map_params.startup_seconds = cluster_.task_startup_seconds;
  map_params.spill_setup_seconds = cluster_.spill_setup_seconds;

  static obs::Counter& predictions = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_whatif_predictions_total");
  predictions.Increment();

  Prediction prediction;
  prediction.map_outcome = mrsim::ModelMapTask(map_params, config);
  prediction.map_task_s = prediction.map_outcome.total_s;

  // Map waves, summed (see the class comment). Reducers are released when
  // map number ceil(f * n) ends, at the end of wave ceil(that / slots); a
  // zero rank releases them at time 0.
  const uint64_t map_slots = static_cast<uint64_t>(cluster_.total_map_slots());
  const uint64_t map_waves = (num_splits + map_slots - 1) / map_slots;
  const double slowstart_maps = std::ceil(
      config.reduce_slowstart_completed_maps * static_cast<double>(num_splits));
  const uint64_t release_rank =
      std::min(static_cast<uint64_t>(slowstart_maps), num_splits);
  const uint64_t release_wave = (release_rank + map_slots - 1) / map_slots;
  double map_phase_end = 0.0;
  double slowstart_time = 0.0;
  for (uint64_t wave = 1; wave <= map_waves; ++wave) {
    map_phase_end += prediction.map_task_s;
    if (wave == release_wave) slowstart_time = map_phase_end;
  }
  prediction.map_phase_s = map_phase_end;

  if (config.num_reduce_tasks == 0) {
    prediction.runtime_s = map_phase_end;
    return prediction;
  }

  // ---- Virtual reduce-task parameters ---------------------------------
  const double total_uncompressed =
      prediction.map_outcome.final_output_uncompressed_bytes *
      static_cast<double>(num_splits);
  const double total_wire = prediction.map_outcome.final_output_wire_bytes *
                            static_cast<double>(num_splits);
  const double total_records = prediction.map_outcome.final_output_records *
                               static_cast<double>(num_splits);
  const double share = 1.0 / static_cast<double>(config.num_reduce_tasks);

  mrsim::ReduceTaskParams reduce_params;
  reduce_params.shuffle_wire_bytes = total_wire * share;
  reduce_params.shuffle_uncompressed_bytes = total_uncompressed * share;
  reduce_params.input_records = total_records * share;
  reduce_params.num_map_segments = static_cast<double>(num_splits);
  reduce_params.intermediate_compressed = config.compress_map_output;
  reduce_params.reduce_pairs_selectivity = r.pairs_selectivity;
  reduce_params.reduce_size_selectivity = r.size_selectivity;
  reduce_params.reduce_cpu_ns_per_record = r.reduce_cpu_cost;
  reduce_params.output_format_cost_factor = 1.0;  // Folded into WRITE_HDFS.
  reduce_params.output_compress_ratio = r.output_compress_ratio;
  reduce_params.heap_mb = cluster_.task_heap_mb;
  reduce_params.network_ns_per_byte = cluster_.network_ns_per_byte;
  reduce_params.local_read_ns_per_byte =
      r.read_local_io_cost > 0 ? r.read_local_io_cost
                               : cluster_.local_read_ns_per_byte;
  reduce_params.local_write_ns_per_byte =
      r.write_local_io_cost > 0 ? r.write_local_io_cost
                                : cluster_.local_write_ns_per_byte;
  reduce_params.hdfs_write_ns_per_byte =
      r.write_hdfs_io_cost > 0 ? r.write_hdfs_io_cost
                               : cluster_.hdfs_write_ns_per_byte;
  reduce_params.sort_ns_per_compare = cluster_.sort_ns_per_compare;
  reduce_params.merge_cpu_ns_per_byte = cluster_.merge_cpu_ns_per_byte;
  reduce_params.compress_cpu_ns_per_byte = cluster_.compress_cpu_ns_per_byte;
  reduce_params.decompress_cpu_ns_per_byte =
      cluster_.decompress_cpu_ns_per_byte;
  reduce_params.startup_seconds = cluster_.task_startup_seconds;

  prediction.reduce_outcome = mrsim::ModelReduceTask(reduce_params, config);
  prediction.reduce_task_s = prediction.reduce_outcome.total_s;

  // Reduce waves: every slot of a wave frees at the same instant.
  // Reducers wait for the slowstart share of maps, and no shuffle ends
  // before the last map does.
  const int reduce_slots = cluster_.total_reduce_slots();
  const auto& ro = prediction.reduce_outcome;
  double slot_free = 0.0;
  double reduce_end = 0.0;
  for (int left = config.num_reduce_tasks; left > 0; left -= reduce_slots) {
    const double start = std::max(slot_free, slowstart_time);
    const double shuffle_end = std::max(
        start + cluster_.task_startup_seconds + ro.shuffle_s, map_phase_end);
    const double end = shuffle_end + ro.merge_s + ro.reduce_s + ro.write_s;
    slot_free = end;
    reduce_end = std::max(reduce_end, end);
  }
  prediction.runtime_s = std::max(map_phase_end, reduce_end);
  return prediction;
}

}  // namespace pstorm::whatif
