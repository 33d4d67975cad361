#ifndef PSTORM_MRSIM_DATASET_H_
#define PSTORM_MRSIM_DATASET_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace pstorm::mrsim {

/// Statistical description of an input data set: enough to derive split
/// counts, record counts, and compressibility — the properties that drive
/// MR dataflow. Content is never materialized; the simulator works on these
/// aggregates. PStorM's recommendation memo keys on every field
/// (core/pstorm.cc), so a new field must join that key too.
struct DataSetSpec {
  std::string name;
  uint64_t size_bytes = 0;
  /// Average serialized size of one input record (e.g. one text line).
  double avg_record_bytes = 100.0;
  /// HDFS block/split size; Hadoop launches one map task per split.
  uint64_t split_bytes = 64ull << 20;
  /// Size ratio achieved when this data is compressed (output size /
  /// input size); text compresses well, random bytes do not.
  double compress_ratio = 0.35;
  /// Working-set proxy for the distinct-key population of the data (e.g.
  /// vocabulary of a text corpus), in MB. Jobs that hold per-key state in
  /// the mapper (stripes, association maps) need heap proportional to
  /// this.
  double vocabulary_mb = 10.0;

  uint64_t num_splits() const {
    if (size_bytes == 0) return 0;
    return (size_bytes + split_bytes - 1) / split_bytes;
  }

  uint64_t num_records() const {
    return static_cast<uint64_t>(static_cast<double>(size_bytes) /
                                 avg_record_bytes);
  }

  Status Validate() const;
};

}  // namespace pstorm::mrsim

#endif  // PSTORM_MRSIM_DATASET_H_
