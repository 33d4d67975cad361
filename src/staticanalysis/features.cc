#include "staticanalysis/features.h"

namespace pstorm::staticanalysis {

std::array<const std::string*, 7> StaticFeatures::MapCategoricalFields()
    const {
  return {&in_formatter, &mapper,      &map_in_key, &map_in_val,
          &map_out_key,  &map_out_val, &combiner};
}

std::array<const std::string*, 4> StaticFeatures::ReduceCategoricalFields()
    const {
  return {&reducer, &red_out_key, &red_out_val, &out_formatter};
}

std::vector<std::string> StaticFeatures::MapCategorical() const {
  std::vector<std::string> out;
  for (const std::string* field : MapCategoricalFields()) out.push_back(*field);
  return out;
}

std::vector<std::string> StaticFeatures::ReduceCategorical() const {
  std::vector<std::string> out;
  for (const std::string* field : ReduceCategoricalFields()) {
    out.push_back(*field);
  }
  return out;
}

StaticFeatures ExtractStaticFeatures(const MrProgram& program) {
  StaticFeatures features;
  features.in_formatter = program.input_formatter;
  features.mapper = program.mapper_class;
  features.map_in_key = program.map_in_key;
  features.map_in_val = program.map_in_value;
  features.map_out_key = program.map_out_key;
  features.map_out_val = program.map_out_value;
  features.combiner =
      program.combiner_class.empty() ? "NULL" : program.combiner_class;
  features.map_cfg = BuildCfg(program.map_function);

  features.reducer = program.reducer_class;
  features.red_out_key = program.reduce_out_key;
  features.red_out_val = program.reduce_out_value;
  features.out_formatter = program.output_formatter;
  features.reduce_cfg = BuildCfg(program.reduce_function);

  std::string params;
  for (const auto& [key, value] : program.user_parameters) {
    if (!params.empty()) params += ";";
    params += key + "=" + value;
  }
  features.user_params = params;
  features.map_calls = CalledFunctions(program.map_function);
  features.reduce_calls = CalledFunctions(program.reduce_function);
  return features;
}

}  // namespace pstorm::staticanalysis
