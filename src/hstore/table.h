#ifndef PSTORM_HSTORE_TABLE_H_
#define PSTORM_HSTORE_TABLE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "hstore/cell.h"
#include "hstore/filter.h"
#include "storage/db.h"
#include "storage/env.h"

namespace pstorm::hstore {

/// Name and column families of a table. As in HBase, the set of column
/// families is fixed at table creation — the constraint that drives the
/// PStorM row-key design (feature type as a row-key prefix instead of a
/// column family, thesis §5.1).
struct TableSchema {
  std::string name;
  std::vector<std::string> families;
};

/// A batch of cells written to one row.
class PutOp {
 public:
  explicit PutOp(std::string row) : row_(std::move(row)) {}

  PutOp& Add(std::string family, std::string qualifier, std::string value) {
    cells_.push_back({std::move(family), std::move(qualifier),
                      std::move(value), 0});
    return *this;
  }

  const std::string& row() const { return row_; }
  const std::vector<Cell>& cells() const { return cells_; }

 private:
  std::string row_;
  std::vector<Cell> cells_;
};

/// A range scan with optional server-side filter.
struct ScanSpec {
  /// Scans [start_row, stop_row); empty stop_row means "to the end".
  std::string start_row;
  std::string stop_row;
  /// Restrict the result to these families (empty = all).
  std::vector<std::string> families;
  /// Predicate evaluated at each region before rows are shipped back.
  std::shared_ptr<const RowFilter> filter;
  /// When false the filter is evaluated at the client instead, so every
  /// scanned row is "transferred" first. Exists to measure the benefit of
  /// HBase's filter pushdown (thesis §5.3).
  bool server_side_filtering = true;
};

/// Observed work for one scan; the pushdown ablation benchmark reads these.
/// Scan accumulates into a local instance and assigns the caller's struct
/// once at the end, so a completed Scan's stats are never torn.
struct ScanStats {
  uint64_t regions_visited = 0;
  uint64_t rows_scanned = 0;
  /// Rows crossing the region->client boundary (equals rows_scanned when
  /// filtering client-side).
  uint64_t rows_transferred = 0;
  uint64_t rows_returned = 0;
  uint64_t bytes_transferred = 0;
  /// Regions whose store was unreadable at table open and was recovered
  /// empty (their rows are gone from every scan; see
  /// HTable::region_open_errors for the diagnoses).
  uint64_t regions_recovered_empty = 0;
};

struct HTableOptions {
  /// Approximate per-region payload size that triggers a region split.
  size_t region_split_bytes = 8u << 20;
  /// Open every region as a read-only replica: Put/DeleteRow return
  /// FailedPrecondition, region splits never run, and the underlying Dbs
  /// are fenced (db_options.read_only_replica is forced on). This is how a
  /// warm standby serves reads while an HTableReplica tails the primary —
  /// and how a promoted follower is inspected before taking writes.
  /// Opening a table that does not exist yet in read-only mode fails.
  bool read_only = false;
  storage::DbOptions db_options;
};

namespace internal {
class Region;
}  // namespace internal

/// A range-partitioned, column-family table in the HBase data model,
/// backed by one storage::Db per region. Region splits happen
/// automatically as data grows.
///
/// Thread-safety contract: every method may be called from any number of
/// threads concurrently. Reads (Get/Scan) pin per-region snapshot
/// iterators and run without blocking writers; writes serialize per
/// region (striped locking), so rows in different regions write in
/// parallel. A region split takes the table lock exclusively only for the
/// duration of the split itself; scans already in flight keep reading
/// their pinned snapshots and are not blocked. Lock order: table lock →
/// region stripe → the region Db's internal locks.
class HTable {
 public:
  /// Creates or reopens the table rooted at `root_path` inside `env` (which
  /// must outlive the table). Reopening validates that `schema` matches.
  /// A region whose store is unreadable is quarantined and recovered empty
  /// rather than failing the open; see region_open_errors().
  static Result<std::unique_ptr<HTable>> Open(storage::Env* env,
                                              std::string root_path,
                                              TableSchema schema,
                                              HTableOptions options = {});
  ~HTable();

  HTable(const HTable&) = delete;
  HTable& operator=(const HTable&) = delete;

  /// Writes all cells of `put` as one storage::WriteBatch: one WAL append,
  /// synced unless `sync` is false (see storage::Db::Write), and a
  /// concurrent Get or Scan sees either none or all of the cells. Fails if
  /// a cell names an unknown column family, or if any key part contains a
  /// NUL byte.
  Status Put(const PutOp& put, bool sync = true);

  /// All cells of `row`; NotFound when the row does not exist.
  Result<RowResult> Get(std::string_view row) const;

  /// Deletes every cell of `row` as one batch (idempotent,
  /// atomic-per-row).
  Status DeleteRow(std::string_view row);

  /// Rows of [spec.start_row, spec.stop_row) passing the filter, in row
  /// order. `stats` (optional) receives the work accounting. The scan
  /// observes a point-in-time snapshot of every visited region, taken
  /// atomically with respect to region splits. InvalidArgument when either
  /// bound contains a NUL byte, which no row key can (see Put).
  Result<std::vector<RowResult>> Scan(const ScanSpec& spec,
                                      ScanStats* stats = nullptr) const;

  /// Persists buffered writes in every region.
  Status Flush();

  /// .META.-style catalog rows: "<table>,<start_key>,<region_id>" in region
  /// order, mirroring the thesis §5.2.2 discussion.
  std::vector<std::string> MetaEntries() const;

  const TableSchema& schema() const { return schema_; }
  size_t num_regions() const;

  /// One human-readable diagnosis per region whose store failed to open
  /// and was quarantined + recovered empty (see Open). Scans also report
  /// the count as ScanStats::regions_recovered_empty. Immutable after
  /// Open.
  const std::vector<std::string>& region_open_errors() const {
    return region_open_errors_;
  }

  /// Per-region storage counters summed over the whole table — the
  /// quarantined-file, WAL-recovery, and replication counts roll up here
  /// (epoch is the max across regions; is_replica is set when any region
  /// is a replica).
  storage::DbStats AggregatedDbStats() const;

  /// Point-in-time view of the table for a replication session: the
  /// serialized TABLEMETA bytes plus one (region directory name, Db*) pair
  /// per region, in start-key order. Taken under the table lock, so the
  /// meta bytes and the region list are mutually consistent. The Db
  /// pointers stay valid for the table's lifetime (splits only ever add
  /// regions), but the list itself goes stale as soon as a split lands —
  /// replication re-snapshots every sync round.
  struct ReplicationSnapshot {
    std::string table_meta;
    struct RegionRef {
      std::string dir_name;  // "region_<id>", relative to the table root.
      storage::Db* db;
    };
    std::vector<RegionRef> regions;
  };
  ReplicationSnapshot GetReplicationSnapshot() const;

 private:
  HTable(storage::Env* env, std::string root_path, TableSchema schema,
         HTableOptions options);

  Status ValidateKeyParts(const PutOp& put) const;
  /// Requires table_mu_ held (shared suffices: the region list is stable).
  internal::Region* RegionForLocked(std::string_view row) const;
  /// Takes table_mu_ exclusively, re-finds the region covering `row`, and
  /// splits it if it is (still) over the threshold.
  Status MaybeSplit(std::string_view row);
  /// Requires table_mu_ held (shared suffices — only reads the region
  /// list and the clock).
  std::string SerializeTableMetaLocked() const;
  /// Requires table_mu_ held exclusively (or Open-time single-threading).
  Status WriteTableMetaLocked();
  Status LoadTableMeta();

  storage::Env* env_;
  std::string root_path_;
  TableSchema schema_;
  HTableOptions options_;
  /// Cell-version clock; fetch_add gives each row-put a unique timestamp.
  std::atomic<uint64_t> logical_clock_{0};

  /// Guards the region list's *shape*. Shared: everything that looks up
  /// or enumerates regions (Put/Get/Scan/Flush/stats). Exclusive: region
  /// splits only.
  mutable std::shared_mutex table_mu_;
  uint64_t next_region_id_ = 0;  // Guarded by exclusive table_mu_ (+ Open).
  /// Sorted by start key; region i covers [start_i, start_{i+1}).
  std::vector<std::unique_ptr<internal::Region>> regions_;
  std::vector<std::string> region_open_errors_;
};

}  // namespace pstorm::hstore

#endif  // PSTORM_HSTORE_TABLE_H_
