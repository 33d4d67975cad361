#include "profiler/profile.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>

#include "common/strings.h"

namespace pstorm::profiler {

std::vector<double> MapSideProfile::DynamicVector() const {
  return {size_selectivity, pairs_selectivity, combine_size_selectivity,
          combine_pairs_selectivity};
}

std::vector<double> MapSideProfile::CostVector() const {
  return {read_hdfs_io_cost, read_local_io_cost, write_local_io_cost,
          map_cpu_cost, combine_cpu_cost};
}

std::vector<double> ReduceSideProfile::DynamicVector() const {
  return {size_selectivity, pairs_selectivity};
}

std::vector<double> ReduceSideProfile::CostVector() const {
  return {write_hdfs_io_cost, read_local_io_cost, write_local_io_cost,
          reduce_cpu_cost};
}

std::vector<double> ExecutionProfile::DynamicVector() const {
  return {map_side.size_selectivity,
          map_side.pairs_selectivity,
          map_side.combine_size_selectivity,
          map_side.combine_pairs_selectivity,
          reduce_side.size_selectivity,
          reduce_side.pairs_selectivity};
}

std::vector<double> ExecutionProfile::CostVector() const {
  return {map_side.read_hdfs_io_cost,
          reduce_side.write_hdfs_io_cost,
          0.5 * (map_side.read_local_io_cost +
                 reduce_side.read_local_io_cost),
          0.5 * (map_side.write_local_io_cost +
                 reduce_side.write_local_io_cost),
          map_side.map_cpu_cost,
          reduce_side.reduce_cpu_cost,
          map_side.combine_cpu_cost};
}

const std::vector<std::string>& DynamicFeatureNames() {
  static const auto* kNames = new std::vector<std::string>{
      "MAP_SIZE_SEL",     "MAP_PAIRS_SEL", "COMBINE_SIZE_SEL",
      "COMBINE_PAIRS_SEL", "RED_SIZE_SEL",  "RED_PAIRS_SEL"};
  return *kNames;
}

const std::vector<std::string>& CostFactorNames() {
  static const auto* kNames = new std::vector<std::string>{
      "READ_HDFS_IO_COST", "WRITE_HDFS_IO_COST", "READ_LOCAL_IO_COST",
      "WRITE_LOCAL_IO_COST", "MAP_CPU_COST", "REDUCE_CPU_COST",
      "COMBINE_CPU_COST"};
  return *kNames;
}

namespace {

void AppendField(std::string* out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += key;
  *out += "=";
  *out += buf;
  *out += "\n";
}

void AppendField(std::string* out, const char* key, const std::string& value) {
  *out += key;
  *out += "=";
  *out += value;
  *out += "\n";
}

class FieldReader {
 public:
  explicit FieldReader(const std::string& text) {
    for (const std::string& line : StrSplit(text, '\n')) {
      if (line.empty()) continue;
      const size_t eq = line.find('=');
      if (eq == std::string::npos) {
        status_ = Status::Corruption("bad profile line: " + line);
        return;
      }
      fields_[line.substr(0, eq)] = line.substr(eq + 1);
    }
  }

  const Status& status() const { return status_; }

  std::string GetString(const char* key) {
    auto it = fields_.find(key);
    if (it == fields_.end()) {
      status_ = Status::Corruption(std::string("missing field: ") + key);
      return "";
    }
    return it->second;
  }

  /// Every numeric field is a count, size, selectivity, ratio, cost or
  /// time, so anything but a finite non-negative value is Corruption: a
  /// remote profile must not carry inf, nan or a negative into the
  /// store's normalization bounds.
  double GetDouble(const char* key) {
    const std::string raw = GetString(key);
    if (!status_.ok()) return 0;
    char* end = nullptr;
    const double value = std::strtod(raw.c_str(), &end);
    if (end == raw.c_str() || *end != '\0') {
      status_ = Status::Corruption(std::string("bad number for ") + key);
      return 0;
    }
    if (!std::isfinite(value) || value < 0) {
      status_ = Status::Corruption(std::string("value out of range for ") +
                                   key);
      return 0;
    }
    return value;
  }

  /// A count: a value in [0, INT_MAX], truncated to int. Anything else is
  /// Corruption, never a cast whose result is undefined.
  int GetInt(const char* key) {
    const double value = GetDouble(key);
    if (!status_.ok()) return 0;
    if (value > std::numeric_limits<int>::max()) {
      status_ = Status::Corruption(std::string("count out of range for ") +
                                   key);
      return 0;
    }
    return static_cast<int>(value);
  }

 private:
  std::map<std::string, std::string> fields_;
  Status status_;
};

}  // namespace

std::string ExecutionProfile::Serialize() const {
  std::string out;
  AppendField(&out, "job_name", job_name);
  AppendField(&out, "data_set", data_set);
  AppendField(&out, "input_data_bytes", input_data_bytes);
  AppendField(&out, "is_sample", is_sample ? 1.0 : 0.0);
  AppendField(&out, "sampling_fraction", sampling_fraction);

  const MapSideProfile& m = map_side;
  AppendField(&out, "m.num_tasks", m.num_tasks);
  AppendField(&out, "m.input_bytes", m.input_bytes);
  AppendField(&out, "m.input_records", m.input_records);
  AppendField(&out, "m.output_bytes", m.output_bytes);
  AppendField(&out, "m.output_records", m.output_records);
  AppendField(&out, "m.final_output_bytes", m.final_output_bytes);
  AppendField(&out, "m.final_output_records", m.final_output_records);
  AppendField(&out, "m.size_sel", m.size_selectivity);
  AppendField(&out, "m.pairs_sel", m.pairs_selectivity);
  AppendField(&out, "m.combine_size_sel", m.combine_size_selectivity);
  AppendField(&out, "m.combine_pairs_sel", m.combine_pairs_selectivity);
  AppendField(&out, "m.read_hdfs", m.read_hdfs_io_cost);
  AppendField(&out, "m.read_local", m.read_local_io_cost);
  AppendField(&out, "m.write_local", m.write_local_io_cost);
  AppendField(&out, "m.map_cpu", m.map_cpu_cost);
  AppendField(&out, "m.combine_cpu", m.combine_cpu_cost);
  AppendField(&out, "m.read_s", m.read_s);
  AppendField(&out, "m.map_s", m.map_s);
  AppendField(&out, "m.collect_s", m.collect_s);
  AppendField(&out, "m.spill_s", m.spill_s);
  AppendField(&out, "m.merge_s", m.merge_s);
  AppendField(&out, "m.map_cpu_cv", m.map_cpu_cost_cv);
  AppendField(&out, "m.inter_compress_ratio", m.intermediate_compress_ratio);

  const ReduceSideProfile& r = reduce_side;
  AppendField(&out, "r.num_tasks", r.num_tasks);
  AppendField(&out, "r.input_bytes", r.input_bytes);
  AppendField(&out, "r.input_records", r.input_records);
  AppendField(&out, "r.output_bytes", r.output_bytes);
  AppendField(&out, "r.output_records", r.output_records);
  AppendField(&out, "r.size_sel", r.size_selectivity);
  AppendField(&out, "r.pairs_sel", r.pairs_selectivity);
  AppendField(&out, "r.write_hdfs", r.write_hdfs_io_cost);
  AppendField(&out, "r.read_local", r.read_local_io_cost);
  AppendField(&out, "r.write_local", r.write_local_io_cost);
  AppendField(&out, "r.reduce_cpu", r.reduce_cpu_cost);
  AppendField(&out, "r.shuffle_s", r.shuffle_s);
  AppendField(&out, "r.sort_s", r.sort_s);
  AppendField(&out, "r.reduce_s", r.reduce_s);
  AppendField(&out, "r.write_s", r.write_s);
  AppendField(&out, "r.output_compress_ratio", r.output_compress_ratio);
  return out;
}

Result<ExecutionProfile> ExecutionProfile::Parse(const std::string& text) {
  FieldReader reader(text);
  ExecutionProfile p;
  p.job_name = reader.GetString("job_name");
  p.data_set = reader.GetString("data_set");
  p.input_data_bytes = reader.GetDouble("input_data_bytes");
  p.is_sample = reader.GetDouble("is_sample") != 0.0;
  p.sampling_fraction = reader.GetDouble("sampling_fraction");

  MapSideProfile& m = p.map_side;
  m.num_tasks = reader.GetInt("m.num_tasks");
  m.input_bytes = reader.GetDouble("m.input_bytes");
  m.input_records = reader.GetDouble("m.input_records");
  m.output_bytes = reader.GetDouble("m.output_bytes");
  m.output_records = reader.GetDouble("m.output_records");
  m.final_output_bytes = reader.GetDouble("m.final_output_bytes");
  m.final_output_records = reader.GetDouble("m.final_output_records");
  m.size_selectivity = reader.GetDouble("m.size_sel");
  m.pairs_selectivity = reader.GetDouble("m.pairs_sel");
  m.combine_size_selectivity = reader.GetDouble("m.combine_size_sel");
  m.combine_pairs_selectivity = reader.GetDouble("m.combine_pairs_sel");
  m.read_hdfs_io_cost = reader.GetDouble("m.read_hdfs");
  m.read_local_io_cost = reader.GetDouble("m.read_local");
  m.write_local_io_cost = reader.GetDouble("m.write_local");
  m.map_cpu_cost = reader.GetDouble("m.map_cpu");
  m.combine_cpu_cost = reader.GetDouble("m.combine_cpu");
  m.read_s = reader.GetDouble("m.read_s");
  m.map_s = reader.GetDouble("m.map_s");
  m.collect_s = reader.GetDouble("m.collect_s");
  m.spill_s = reader.GetDouble("m.spill_s");
  m.merge_s = reader.GetDouble("m.merge_s");
  m.map_cpu_cost_cv = reader.GetDouble("m.map_cpu_cv");
  m.intermediate_compress_ratio = reader.GetDouble("m.inter_compress_ratio");

  ReduceSideProfile& r = p.reduce_side;
  r.num_tasks = reader.GetInt("r.num_tasks");
  r.input_bytes = reader.GetDouble("r.input_bytes");
  r.input_records = reader.GetDouble("r.input_records");
  r.output_bytes = reader.GetDouble("r.output_bytes");
  r.output_records = reader.GetDouble("r.output_records");
  r.size_selectivity = reader.GetDouble("r.size_sel");
  r.pairs_selectivity = reader.GetDouble("r.pairs_sel");
  r.write_hdfs_io_cost = reader.GetDouble("r.write_hdfs");
  r.read_local_io_cost = reader.GetDouble("r.read_local");
  r.write_local_io_cost = reader.GetDouble("r.write_local");
  r.reduce_cpu_cost = reader.GetDouble("r.reduce_cpu");
  r.shuffle_s = reader.GetDouble("r.shuffle_s");
  r.sort_s = reader.GetDouble("r.sort_s");
  r.reduce_s = reader.GetDouble("r.reduce_s");
  r.write_s = reader.GetDouble("r.write_s");
  r.output_compress_ratio = reader.GetDouble("r.output_compress_ratio");

  if (!reader.status().ok()) return reader.status();
  return p;
}

}  // namespace pstorm::profiler
