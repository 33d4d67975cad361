#ifndef PSTORM_STATICANALYSIS_FEATURES_H_
#define PSTORM_STATICANALYSIS_FEATURES_H_

#include <array>
#include <string>
#include <vector>

#include "staticanalysis/cfg.h"
#include "staticanalysis/ir.h"

namespace pstorm::staticanalysis {

/// The "bytecode" view of one MR job: the customizable parts a programmer
/// supplies against the fixed MapReduce framework (thesis §4.1.2) — class
/// names, key/value types, and the map/reduce function bodies.
struct MrProgram {
  std::string job_class_name;

  std::string input_formatter = "TextInputFormat";
  std::string mapper_class;
  std::string map_in_key = "LongWritable";
  std::string map_in_value = "Text";
  std::string map_out_key = "Text";
  std::string map_out_value = "IntWritable";
  /// Empty when the job ships no combiner.
  std::string combiner_class;
  std::string reducer_class;
  std::string reduce_out_key = "Text";
  std::string reduce_out_value = "IntWritable";
  std::string output_formatter = "TextOutputFormat";

  FunctionIr map_function;
  FunctionIr reduce_function;

  /// Job parameters supplied at submission (e.g. the co-occurrence window
  /// size, a grep pattern), in (key, value) form. The §7.2.1 extension
  /// folds these into the static feature vector.
  std::vector<std::pair<std::string, std::string>> user_parameters;
};

/// The static feature vector of Table 4.3: eleven categorical features plus
/// the two control flow graphs, split by side for the map/reduce matching
/// workflow of Figure 4.4.
struct StaticFeatures {
  // Map side.
  std::string in_formatter;
  std::string mapper;
  std::string map_in_key;
  std::string map_in_val;
  std::string map_out_key;
  std::string map_out_val;
  std::string combiner;  // "NULL" when absent.
  Cfg map_cfg;

  // Reduce side.
  std::string reducer;
  std::string red_out_key;
  std::string red_out_val;
  std::string out_formatter;
  Cfg reduce_cfg;

  // §7.2 extensions.
  /// User parameters canonicalized to one "k=v;k=v" string ("" if none).
  std::string user_params;
  /// Sorted helper functions called by each side (§7.2.2 call flow graph).
  std::vector<std::string> map_calls;
  std::vector<std::string> reduce_calls;

  /// The map-side categorical features, in Table 4.3 order.
  std::vector<std::string> MapCategorical() const;
  /// The reduce-side categorical features, in Table 4.3 order.
  std::vector<std::string> ReduceCategorical() const;
  /// The same features in place, for comparisons that copy nothing.
  std::array<const std::string*, 7> MapCategoricalFields() const;
  std::array<const std::string*, 4> ReduceCategoricalFields() const;
};

/// Static analysis of a program: extracts class/type names directly and
/// runs the CFG builder over the map and reduce bodies (the step the
/// thesis delegates to Soot).
StaticFeatures ExtractStaticFeatures(const MrProgram& program);

}  // namespace pstorm::staticanalysis

#endif  // PSTORM_STATICANALYSIS_FEATURES_H_
