#ifndef PSTORM_STORAGE_WAL_H_
#define PSTORM_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/iterator.h"
#include "storage/memtable.h"

namespace pstorm::storage {

/// Write-ahead log for the Db's memtable (the durability HBase region
/// servers get from their WAL, thesis §5.1). Every write batch is appended
/// and synced here before it touches the memtable, so an acked mutation
/// survives a process kill and a power loss; the log is truncated once a
/// flush has made its contents durable in an sstable. The same framed
/// records are the unit of WAL-shipping replication
/// (storage/replication.h): a follower applies byte-identical frames, so
/// primary and replica logs stay comparable record-for-record.
///
/// On-log record framing (all little-endian, via common/coding):
///
///   fixed32 payload_length
///   fixed32 checksum          low 32 bits of Fnv1a64(payload)
///   payload:
///     varint64 sequence       monotonic per-Db, assigned at commit; never 0
///     byte     type           0 = value (Put), 1 = tombstone (Delete)
///     varint32 key_length,   key bytes
///     varint32 value_length, value bytes (empty for tombstones)
///
/// A torn tail (partial frame or checksum mismatch from a crash mid-append)
/// is not corruption: replay applies every intact prefix record and stops
/// cleanly at the first bad one.

/// Serializes one mutation as a framed log record (exposed for tests, the
/// replication layer, and the BM_WalAppend micro-benchmark).
std::string EncodeWalRecord(uint64_t sequence, EntryType type,
                            std::string_view key, std::string_view value);

/// One decoded log record; `key`/`value` view the buffer they were decoded
/// from.
struct WalRecord {
  uint64_t sequence = 0;
  EntryType type = EntryType::kValue;
  std::string_view key;
  std::string_view value;
};

/// Location and identity of one framed record inside a WalSegment's `raw`
/// bytes. The checksum is the frame's payload checksum — the same 32 bits
/// the wire carries — which is what replication compares to detect a
/// divergent re-ship of an already-applied sequence number.
struct WalRecordRef {
  uint64_t sequence = 0;
  uint32_t checksum = 0;
  size_t offset = 0;  // Byte offset of the frame within `raw`.
  size_t size = 0;    // Whole frame size, header included.
};

/// A run of intact, CRC-verified, contiguous log frames — the unit the
/// replication shipper moves. `raw` holds the frames byte-identical to the
/// source log, so appending it to another log preserves sequences and
/// checksums exactly.
struct WalSegment {
  std::string raw;
  std::vector<WalRecordRef> records;
  /// True when the scan stopped at a torn or checksum-mismatched frame.
  bool truncated_tail = false;

  bool empty() const { return records.empty(); }
  uint64_t first_sequence() const {
    return records.empty() ? 0 : records.front().sequence;
  }
  uint64_t last_sequence() const {
    return records.empty() ? 0 : records.back().sequence;
  }
};

/// Scans the intact framed prefix of the log at `path` and returns the
/// frames whose sequence is >= `from_sequence` (pass 0 for all), verbatim.
/// A missing file is an empty segment. Damaged tails set truncated_tail
/// instead of failing, mirroring ReplayWal.
Result<WalSegment> ReadWalSegment(const Env& env, const std::string& path,
                                  uint64_t from_sequence);

/// Decodes every frame of `raw` (which must be fully intact — e.g. a
/// WalSegment's bytes); Corruption on a torn or malformed frame. The
/// returned records view `raw`.
Result<std::vector<WalRecord>> DecodeWalRecords(std::string_view raw);

/// The sub-segment of `segment` whose records have sequence >=
/// `from_sequence` (records are sequence-ordered, so this is a suffix).
WalSegment SliceWalSegment(const WalSegment& segment, uint64_t from_sequence);

/// Appends mutations to the log file at `path` through `env` (which must
/// outlive the writer). Holds one append handle on the file, opened at the
/// first append and dropped by Truncate, which replaces the file: a handle
/// kept across that would append to the replaced file. Nothing else may
/// replace the file once the writer has appended to it.
class WalWriter {
 public:
  WalWriter(Env* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  /// Convenience single-record appends (tests, benchmarks): each record is
  /// stamped with the writer's own next sequence number and synced. The Db
  /// assigns sequences itself and goes through AppendBatch instead.
  Status AppendPut(std::string_view key, std::string_view value) {
    return Append(EntryType::kValue, key, value);
  }
  Status AppendDelete(std::string_view key) {
    return Append(EntryType::kTombstone, key, {});
  }
  void set_next_sequence(uint64_t sequence) { next_sequence_ = sequence; }

  /// Appends a pre-encoded run of records (each framed by EncodeWalRecord,
  /// concatenated) in one append, then, when `sync` is set, syncs the log
  /// once: the group-commit path, one IO and one fdatasync for a whole
  /// batch of writers. An OK return means the records survive a process
  /// crash, and with `sync` a power loss too. On error the handle is
  /// dropped and the log may end in a torn frame that replay stops at, so
  /// the caller must not append again (the Db refuses writes until a
  /// reopen cuts the log back to its intact prefix).
  Status AppendBatch(std::string_view records, bool sync);

  /// Empties the log after a flush has persisted its records.
  Status Truncate();

  const std::string& path() const { return path_; }

 private:
  Status Append(EntryType type, std::string_view key, std::string_view value);

  Env* env_;
  std::string path_;
  std::unique_ptr<AppendableFile> file_;  // Null until the first append.
  uint64_t next_sequence_ = 1;
};

/// Outcome of replaying a log into a memtable.
struct WalReplayResult {
  uint64_t records_applied = 0;
  /// Highest sequence number among the applied records (0 when none) —
  /// recovery seeds the Db's commit sequence from this.
  uint64_t last_sequence = 0;
  /// True when replay stopped at a torn or checksum-mismatched tail record
  /// (the expected signature of a crash mid-append); the intact prefix has
  /// still been applied.
  bool truncated_tail = false;
};

/// Replays the log at `path` into `memtable` in append order. A missing
/// log file is an empty log. Never returns Corruption for a damaged tail —
/// see the framing contract above.
Result<WalReplayResult> ReplayWal(const Env& env, const std::string& path,
                                  Memtable* memtable);

}  // namespace pstorm::storage

#endif  // PSTORM_STORAGE_WAL_H_
