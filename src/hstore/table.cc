#include "hstore/table.h"

#include <algorithm>
#include <charconv>
#include <map>
#include <mutex>
#include <set>

#include "common/coding.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"

namespace pstorm::hstore {

namespace internal {

/// One range partition of a table: [start_key, next region's start_key),
/// backed by its own storage::Db. Mirrors an HBase region served by a
/// region server; filters are evaluated here, on the "server side" of the
/// scan.
class Region {
 public:
  static Result<std::unique_ptr<Region>> Open(storage::Env* env,
                                              std::string path,
                                              std::string start_key,
                                              uint64_t id,
                                              storage::DbOptions db_options) {
    auto region = std::unique_ptr<Region>(new Region());
    region->start_key_ = std::move(start_key);
    region->id_ = id;
    PSTORM_ASSIGN_OR_RETURN(region->db_,
                            storage::Db::Open(env, std::move(path),
                                              db_options));
    return region;
  }

  const std::string& start_key() const { return start_key_; }
  uint64_t id() const { return id_; }
  storage::Db* db() { return db_.get(); }
  const storage::Db* db() const { return db_.get(); }

  /// The region's write stripe, held by row writers: DeleteRow's
  /// read-then-delete must not interleave with another write to the
  /// region. Readers take no stripe: a row's cells commit in one
  /// storage::Db::Write, which any Get/Scan sees whole or not at all.
  std::mutex& write_mu() { return write_mu_; }

 private:
  Region() = default;

  std::string start_key_;
  uint64_t id_ = 0;
  std::unique_ptr<storage::Db> db_;
  std::mutex write_mu_;
};

}  // namespace internal

namespace {

constexpr char kSep = '\0';
constexpr char kTableMetaName[] = "TABLEMETA";
constexpr char kTableMetaHeader[] = "pstorm-htable-v1";

std::string EncodeCellKey(std::string_view row, std::string_view family,
                          std::string_view qualifier) {
  std::string key;
  key.reserve(row.size() + family.size() + qualifier.size() + 2);
  key.append(row);
  key.push_back(kSep);
  key.append(family);
  key.push_back(kSep);
  key.append(qualifier);
  return key;
}

/// Splits an encoded cell key back into (row, family, qualifier).
bool DecodeCellKey(std::string_view key, std::string_view* row,
                   std::string_view* family, std::string_view* qualifier) {
  const size_t sep1 = key.find(kSep);
  if (sep1 == std::string_view::npos) return false;
  const size_t sep2 = key.find(kSep, sep1 + 1);
  if (sep2 == std::string_view::npos) return false;
  *row = key.substr(0, sep1);
  *family = key.substr(sep1 + 1, sep2 - sep1 - 1);
  *qualifier = key.substr(sep2 + 1);
  return true;
}

std::string EncodeCellValue(uint64_t timestamp, std::string_view value) {
  std::string out;
  PutFixed64(&out, timestamp);
  out.append(value);
  return out;
}

bool DecodeCellValue(std::string_view encoded, uint64_t* timestamp,
                     std::string_view* value) {
  if (encoded.size() < 8) return false;
  *timestamp = DecodeFixed64(encoded.data());
  *value = encoded.substr(8);
  return true;
}

std::string HexEncode(std::string_view in) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(in.size() * 2);
  for (unsigned char c : in) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xf]);
  }
  return out;
}

Result<std::string> HexDecode(std::string_view in) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (in.size() % 2 != 0) return Status::Corruption("odd hex length");
  std::string out;
  out.reserve(in.size() / 2);
  for (size_t i = 0; i < in.size(); i += 2) {
    const int hi = nibble(in[i]);
    const int lo = nibble(in[i + 1]);
    if (hi < 0 || lo < 0) return Status::Corruption("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

bool ContainsNul(std::string_view s) {
  return s.find(kSep) != std::string_view::npos;
}

/// A TABLEMETA number: decimal digits only, within uint64_t.
Result<uint64_t> ParseMetaNumber(std::string_view text) {
  uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || ec != std::errc() || end != text.data() + text.size()) {
    return Status::Corruption("bad table meta number");
  }
  return value;
}

}  // namespace

HTable::HTable(storage::Env* env, std::string root_path, TableSchema schema,
               HTableOptions options)
    : env_(env),
      root_path_(std::move(root_path)),
      schema_(std::move(schema)),
      options_(options) {}

HTable::~HTable() = default;

size_t HTable::num_regions() const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  return regions_.size();
}

Result<std::unique_ptr<HTable>> HTable::Open(storage::Env* env,
                                             std::string root_path,
                                             TableSchema schema,
                                             HTableOptions options) {
  PSTORM_CHECK(env != nullptr);
  if (schema.name.empty()) {
    return Status::InvalidArgument("table name must not be empty");
  }
  if (schema.families.empty()) {
    return Status::InvalidArgument("table needs at least one column family");
  }
  // One block cache for every region of the table (created now and for any
  // later split): regions would otherwise each carve out a private budget,
  // and a hot row set spanning a split would be cached twice.
  if (options.db_options.block_cache == nullptr &&
      options.db_options.block_cache_bytes > 0) {
    options.db_options.block_cache = std::make_shared<storage::BlockCache>(
        options.db_options.block_cache_bytes);
  }
  // A read-only open must not create regions or rewrite the meta; forcing
  // read_only_replica fences every region Db at the storage layer too.
  if (options.read_only) options.db_options.read_only_replica = true;
  auto table = std::unique_ptr<HTable>(
      new HTable(env, std::move(root_path), std::move(schema), options));
  PSTORM_RETURN_IF_ERROR(env->CreateDir(table->root_path_));

  const std::string meta_path =
      storage::JoinPath(table->root_path_, kTableMetaName);
  if (env->FileExists(meta_path)) {
    PSTORM_RETURN_IF_ERROR(table->LoadTableMeta());
  } else if (options.read_only) {
    return Status::FailedPrecondition(
        "read-only open of a table that does not exist: " +
        table->root_path_);
  } else {
    // Fresh table: one region covering the whole key space.
    PSTORM_ASSIGN_OR_RETURN(
        auto region,
        internal::Region::Open(
            env, storage::JoinPath(table->root_path_, "region_0"), "",
            table->next_region_id_++, options.db_options));
    table->regions_.push_back(std::move(region));
    PSTORM_RETURN_IF_ERROR(table->WriteTableMetaLocked());
  }
  return table;
}

std::string HTable::SerializeTableMetaLocked() const {
  std::string out(kTableMetaHeader);
  out += "\n";
  out += "name " + schema_.name + "\n";
  for (const std::string& family : schema_.families) {
    out += "family " + family + "\n";
  }
  out += "clock " + std::to_string(logical_clock_.load()) + "\n";
  out += "next_region " + std::to_string(next_region_id_) + "\n";
  for (const auto& region : regions_) {
    out += "region " + std::to_string(region->id()) + " " +
           HexEncode(region->start_key()) + "\n";
  }
  return out;
}

Status HTable::WriteTableMetaLocked() {
  const std::string out = SerializeTableMetaLocked();
  const std::string tmp =
      storage::JoinPath(root_path_, std::string(kTableMetaName) + ".tmp");
  PSTORM_RETURN_IF_ERROR(env_->WriteFile(tmp, out));
  return env_->RenameFile(tmp,
                          storage::JoinPath(root_path_, kTableMetaName));
}

Status HTable::LoadTableMeta() {
  PSTORM_ASSIGN_OR_RETURN(
      std::string meta,
      env_->ReadFile(storage::JoinPath(root_path_, kTableMetaName)));
  std::vector<std::string> lines = StrSplit(meta, '\n');
  if (lines.empty() || lines[0] != kTableMetaHeader) {
    return Status::Corruption("bad table meta header");
  }
  std::vector<std::string> stored_families;
  std::string stored_name;
  std::map<std::string, uint64_t> layout;  // Region start key -> id.
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const size_t space = lines[i].find(' ');
    if (space == std::string::npos) {
      return Status::Corruption("bad table meta line");
    }
    const std::string tag = lines[i].substr(0, space);
    const std::string rest = lines[i].substr(space + 1);
    if (tag == "name") {
      stored_name = rest;
    } else if (tag == "family") {
      stored_families.push_back(rest);
    } else if (tag == "clock") {
      PSTORM_ASSIGN_OR_RETURN(const uint64_t clock, ParseMetaNumber(rest));
      logical_clock_ = clock;
    } else if (tag == "next_region") {
      PSTORM_ASSIGN_OR_RETURN(next_region_id_, ParseMetaNumber(rest));
    } else if (tag == "region") {
      const std::vector<std::string> parts = StrSplit(rest, ' ');
      if (parts.empty() || parts.size() > 2) {
        return Status::Corruption("bad region line");
      }
      PSTORM_ASSIGN_OR_RETURN(const uint64_t id, ParseMetaNumber(parts[0]));
      PSTORM_ASSIGN_OR_RETURN(
          std::string start_key,
          HexDecode(parts.size() == 2 ? parts[1] : ""));
      if (!layout.emplace(std::move(start_key), id).second) {
        return Status::Corruption("table meta repeats a region start key");
      }
    } else {
      return Status::Corruption("unknown table meta tag: " + tag);
    }
  }
  if (stored_name != schema_.name || stored_families != schema_.families) {
    return Status::FailedPrecondition(
        "schema mismatch: HBase column families are fixed at table creation");
  }
  // The regions must cover the key space from "", each under an id of its
  // own below next_region: RegionForLocked assumes the first, and a shared
  // id would put two regions on one Db directory.
  if (layout.empty()) return Status::Corruption("table meta has no regions");
  if (!layout.begin()->first.empty()) {
    return Status::Corruption("table meta's first region starts above \"\"");
  }
  std::set<uint64_t> ids;
  for (const auto& [start_key, id] : layout) {
    if (!ids.insert(id).second) {
      return Status::Corruption("table meta repeats a region id");
    }
    if (id >= next_region_id_) {
      return Status::Corruption(
          "table meta's next_region is not above every region id");
    }
  }

  for (const auto& [start_key, id] : layout) {
    const std::string region_path =
        storage::JoinPath(root_path_, "region_" + std::to_string(id));
    auto region = internal::Region::Open(env_, region_path, start_key, id,
                                         options_.db_options);
    if (!region.ok() && region.status().IsCorruption()) {
      // The region's own manifest is rotten (single bad sstables are
      // quarantined inside Db::Open and do not land here). Losing one
      // region's rows degrades the matcher to No Match Found; losing the
      // whole table would take PStorM down. Quarantine the region's
      // files and recover it empty, keeping the key-space cover intact.
      const std::string diagnosis =
          "region_" + std::to_string(id) + ": " +
          region.status().ToString();
      PSTORM_LOG(Warning) << "htable " << root_path_
                          << ": recovering unreadable region empty ("
                          << diagnosis << ")";
      if (auto files = env_->ListDir(region_path); files.ok()) {
        for (const std::string& name : files.value()) {
          (void)env_->RenameFile(
              storage::JoinPath(region_path, name),
              storage::JoinPath(region_path, name + ".quarantine"));
        }
      }
      region_open_errors_.push_back(diagnosis);
      obs::MetricsRegistry::Global()
          .GetCounter("pstorm_hstore_regions_recovered_total")
          .Increment();
      region = internal::Region::Open(env_, region_path, start_key, id,
                                      options_.db_options);
    }
    if (!region.ok()) return region.status();
    regions_.push_back(std::move(region).value());
  }
  // The meta's clock may be stale (it is only rewritten on region changes);
  // re-derive it from the newest stored timestamp so versions keep moving
  // forward after a reopen.
  uint64_t clock = logical_clock_.load();
  for (const auto& region : regions_) {
    auto it = region->db()->NewIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      uint64_t timestamp;
      std::string_view value;
      if (DecodeCellValue(it->value(), &timestamp, &value)) {
        clock = std::max(clock, timestamp);
      }
    }
    PSTORM_RETURN_IF_ERROR(it->status());
  }
  logical_clock_ = clock;
  return Status::OK();
}

internal::Region* HTable::RegionForLocked(std::string_view row) const {
  PSTORM_CHECK(!regions_.empty());
  // Last region whose start_key <= row.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), row,
      [](std::string_view r, const std::unique_ptr<internal::Region>& region) {
        return r < std::string_view(region->start_key());
      });
  PSTORM_CHECK(it != regions_.begin());
  return std::prev(it)->get();
}

Status HTable::ValidateKeyParts(const PutOp& put) const {
  if (put.row().empty()) return Status::InvalidArgument("empty row key");
  if (ContainsNul(put.row())) {
    return Status::InvalidArgument("row key must not contain NUL");
  }
  for (const Cell& cell : put.cells()) {
    if (ContainsNul(cell.family) || ContainsNul(cell.qualifier)) {
      return Status::InvalidArgument("family/qualifier must not contain NUL");
    }
    if (std::find(schema_.families.begin(), schema_.families.end(),
                  cell.family) == schema_.families.end()) {
      return Status::InvalidArgument("unknown column family: " + cell.family);
    }
  }
  return Status::OK();
}

Status HTable::Put(const PutOp& put, bool sync) {
  if (options_.read_only) {
    return Status::FailedPrecondition(
        "htable is a read-only replica; writes go to the primary");
  }
  PSTORM_RETURN_IF_ERROR(ValidateKeyParts(put));
  // The whole row is one batch: one WAL append and at most one sync, seen
  // by readers all-or-nothing.
  const uint64_t timestamp = logical_clock_.fetch_add(1) + 1;
  storage::WriteBatch batch;
  for (const Cell& cell : put.cells()) {
    batch.Put(EncodeCellKey(put.row(), cell.family, cell.qualifier),
              EncodeCellValue(timestamp, cell.value));
  }
  bool over_split_threshold = false;
  {
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    internal::Region* region = RegionForLocked(put.row());
    {
      std::lock_guard<std::mutex> stripe(region->write_mu());
      PSTORM_RETURN_IF_ERROR(region->db()->Write(batch, sync));
    }
    over_split_threshold = region->db()->ApproximateSizeBytes() >=
                           options_.region_split_bytes;
  }
  if (over_split_threshold) return MaybeSplit(put.row());
  return Status::OK();
}

Result<RowResult> HTable::Get(std::string_view row) const {
  const std::string prefix = std::string(row) + kSep;
  std::unique_ptr<storage::Iterator> it;
  {
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    // The prefix is row + separator — exactly the shape the sstables'
    // prefix bloom filters index — so tables without this row are skipped
    // outright, and only the row's memtable records are copied. The
    // StartsWith bound below keeps the scan inside the range where the
    // pruned merge is coherent.
    it = RegionForLocked(row)->db()->NewPrefixIterator(prefix);
  }
  RowResult result{std::string(row)};
  for (it->Seek(prefix); it->Valid() && StartsWith(it->key(), prefix);
       it->Next()) {
    std::string_view r, family, qualifier;
    if (!DecodeCellKey(it->key(), &r, &family, &qualifier)) {
      return Status::Corruption("bad cell key");
    }
    uint64_t timestamp;
    std::string_view value;
    if (!DecodeCellValue(it->value(), &timestamp, &value)) {
      return Status::Corruption("bad cell value");
    }
    result.AddCell(Cell{std::string(family), std::string(qualifier),
                        std::string(value), timestamp});
  }
  PSTORM_RETURN_IF_ERROR(it->status());
  if (result.empty()) return Status::NotFound("no such row");
  return result;
}

Status HTable::DeleteRow(std::string_view row) {
  if (options_.read_only) {
    return Status::FailedPrecondition(
        "htable is a read-only replica; writes go to the primary");
  }
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  internal::Region* region = RegionForLocked(row);
  const std::string prefix = std::string(row) + kSep;
  // The stripe covers collect + delete, so no other write to the region
  // lands in between; the deletes commit as one batch, so the row
  // disappears atomically as seen by concurrent snapshot readers.
  std::lock_guard<std::mutex> stripe(region->write_mu());
  storage::WriteBatch batch;
  {
    auto it = region->db()->NewPrefixIterator(prefix);
    for (it->Seek(prefix); it->Valid() && StartsWith(it->key(), prefix);
         it->Next()) {
      batch.Delete(it->key());
    }
    PSTORM_RETURN_IF_ERROR(it->status());
  }
  return region->db()->Write(batch);
}

storage::DbStats HTable::AggregatedDbStats() const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  storage::DbStats total;
  for (const auto& region : regions_) {
    const storage::DbStats s = region->db()->stats();
    total.flushes += s.flushes;
    total.compactions += s.compactions;
    total.bytes_flushed += s.bytes_flushed;
    total.bytes_compacted += s.bytes_compacted;
    total.wal_appends += s.wal_appends;
    total.wal_syncs += s.wal_syncs;
    total.wal_records_replayed += s.wal_records_replayed;
    total.wal_tail_truncated += s.wal_tail_truncated;
    total.quarantined_files += s.quarantined_files;
    total.orphans_removed += s.orphans_removed;
    total.replicated_batches += s.replicated_batches;
    total.replicated_records += s.replicated_records;
    total.fence_rejections += s.fence_rejections;
    total.checkpoints_created += s.checkpoints_created;
    total.last_sequence += s.last_sequence;
    total.flushed_sequence += s.flushed_sequence;
    // Epoch is a per-region fence, not additive; surface the highest one.
    total.epoch = std::max(total.epoch, s.epoch);
    total.is_replica = total.is_replica != 0 || s.is_replica != 0 ? 1 : 0;
  }
  return total;
}

HTable::ReplicationSnapshot HTable::GetReplicationSnapshot() const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  ReplicationSnapshot snap;
  snap.table_meta = SerializeTableMetaLocked();
  snap.regions.reserve(regions_.size());
  for (const auto& region : regions_) {
    snap.regions.push_back(ReplicationSnapshot::RegionRef{
        "region_" + std::to_string(region->id()), region->db()});
  }
  return snap;
}

Result<std::vector<RowResult>> HTable::Scan(const ScanSpec& spec,
                                            ScanStats* stats) const {
  // A bound holding the separator would cut through a row's cell keys
  // (row "ab" sorts below stop row "ab\0", its cell "ab\0fam\0q" does
  // not), so the memtable range copied below would miss cells of a row
  // the scan returns.
  if (ContainsNul(spec.start_row) || ContainsNul(spec.stop_row)) {
    return Status::InvalidArgument("scan bounds must not contain NUL");
  }
  // Work on a local accumulator and publish once on exit, so a caller
  // handing the same ScanStats object to a reader thread never observes a
  // half-updated struct from a completed scan. Publishing is RAII because
  // the corruption early-returns below must still report the work done (and
  // regions_recovered_empty) up to the failure point — a scan that dies on a
  // bad cell used to leave the caller's stats untouched.
  ScanStats local;
  struct PublishOnExit {
    ScanStats* out;
    const ScanStats* local;
    ~PublishOnExit() {
      if (out != nullptr) *out = *local;
      static obs::Counter& scans = obs::MetricsRegistry::Global().GetCounter(
          "pstorm_hstore_scans_total");
      static obs::Counter& rows_scanned =
          obs::MetricsRegistry::Global().GetCounter(
              "pstorm_hstore_rows_scanned_total");
      static obs::Counter& rows_returned =
          obs::MetricsRegistry::Global().GetCounter(
              "pstorm_hstore_rows_returned_total");
      scans.Increment();
      rows_scanned.Add(local->rows_scanned);
      rows_returned.Add(local->rows_returned);
    }
  } publish{stats, &local};

  // Pin a snapshot iterator per visited region while holding the table
  // lock shared: a concurrent split (exclusive) can only run entirely
  // before or entirely after this block, so the scan sees an atomic
  // region layout; the iteration below then runs with no locks at all.
  // Each snapshot copies only the memtable records in [start_row,
  // stop_row): with NUL-free bounds a cell key sorts below stop_row
  // exactly when its row does.
  struct RegionScan {
    std::unique_ptr<storage::Iterator> it;
  };
  std::vector<RegionScan> pinned;
  {
    std::shared_lock<std::shared_mutex> lock(table_mu_);
    local.regions_recovered_empty = region_open_errors_.size();
    for (const auto& region : regions_) {
      // Skip regions entirely past the stop row.
      if (!spec.stop_row.empty() && region->start_key() >= spec.stop_row) {
        break;
      }
      pinned.push_back(RegionScan{
          region->db()->NewIterator(spec.start_row, spec.stop_row)});
    }
  }

  std::vector<RowResult> out;
  for (RegionScan& scan : pinned) {
    ++local.regions_visited;

    storage::Iterator* it = scan.it.get();
    if (spec.start_row.empty()) {
      it->SeekToFirst();
    } else {
      it->Seek(spec.start_row);
    }

    RowResult current;
    auto finish_row = [&]() {
      if (current.empty()) return;
      ++local.rows_scanned;
      const bool matches =
          spec.filter == nullptr || spec.filter->Matches(current);
      if (spec.server_side_filtering) {
        // Only matching rows cross the region boundary.
        if (matches) {
          ++local.rows_transferred;
          local.bytes_transferred += current.PayloadBytes();
          ++local.rows_returned;
          out.push_back(std::move(current));
        }
      } else {
        // Everything is shipped to the client, which filters locally.
        ++local.rows_transferred;
        local.bytes_transferred += current.PayloadBytes();
        if (matches) {
          ++local.rows_returned;
          out.push_back(std::move(current));
        }
      }
      current = RowResult();
    };

    for (; it->Valid(); it->Next()) {
      std::string_view row, family, qualifier;
      if (!DecodeCellKey(it->key(), &row, &family, &qualifier)) {
        return Status::Corruption("bad cell key");
      }
      if (!spec.stop_row.empty() && row >= std::string_view(spec.stop_row)) {
        break;
      }
      if (current.row() != row) {
        finish_row();
        current = RowResult(std::string(row));
      }
      if (!spec.families.empty() &&
          std::find(spec.families.begin(), spec.families.end(), family) ==
              spec.families.end()) {
        continue;
      }
      uint64_t timestamp;
      std::string_view value;
      if (!DecodeCellValue(it->value(), &timestamp, &value)) {
        return Status::Corruption("bad cell value");
      }
      current.AddCell(Cell{std::string(family), std::string(qualifier),
                           std::string(value), timestamp});
    }
    PSTORM_RETURN_IF_ERROR(it->status());
    finish_row();
  }
  return out;
}

Status HTable::Flush() {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  for (const auto& region : regions_) {
    PSTORM_RETURN_IF_ERROR(region->db()->Flush());
  }
  return Status::OK();
}

std::vector<std::string> HTable::MetaEntries() const {
  std::shared_lock<std::shared_mutex> lock(table_mu_);
  std::vector<std::string> out;
  out.reserve(regions_.size());
  for (const auto& region : regions_) {
    out.push_back(schema_.name + "," + region->start_key() + "," +
                  "region_" + std::to_string(region->id()));
  }
  return out;
}

Status HTable::MaybeSplit(std::string_view row) {
  if (options_.read_only) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(table_mu_);
  // Re-find and re-check under the exclusive lock: another thread may
  // have split this key range while we were acquiring it.
  internal::Region* region = RegionForLocked(row);
  if (region->db()->ApproximateSizeBytes() < options_.region_split_bytes) {
    return Status::OK();
  }
  // The exclusive table lock excludes every writer and every *new* scan;
  // in-flight scans hold pinned snapshots and are unaffected by the data
  // movement below.

  // Find the median distinct row to split at.
  std::vector<std::string> rows;
  {
    auto it = region->db()->NewIterator();
    std::string last_row;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      std::string_view r, family, qualifier;
      if (!DecodeCellKey(it->key(), &r, &family, &qualifier)) {
        return Status::Corruption("bad cell key");
      }
      if (r != std::string_view(last_row)) {
        last_row.assign(r);
        rows.push_back(last_row);
      }
    }
    PSTORM_RETURN_IF_ERROR(it->status());
  }
  if (rows.size() < 2) return Status::OK();  // Nothing to split.
  const std::string& split_row = rows[rows.size() / 2];

  // Create the right-hand region and move everything >= split_row into it.
  const uint64_t new_id = next_region_id_++;
  PSTORM_ASSIGN_OR_RETURN(
      auto new_region,
      internal::Region::Open(
          env_,
          storage::JoinPath(root_path_, "region_" + std::to_string(new_id)),
          split_row, new_id, options_.db_options));

  // One batch each way, so the move costs two log syncs, not two per cell.
  storage::WriteBatch moved;
  storage::WriteBatch removed;
  {
    auto it = region->db()->NewIterator(split_row);
    for (it->Seek(split_row); it->Valid(); it->Next()) {
      moved.Put(it->key(), it->value());
      removed.Delete(it->key());
    }
    PSTORM_RETURN_IF_ERROR(it->status());
  }
  PSTORM_RETURN_IF_ERROR(new_region->db()->Write(moved));
  PSTORM_RETURN_IF_ERROR(region->db()->Write(removed));
  PSTORM_RETURN_IF_ERROR(region->db()->CompactAll());
  PSTORM_RETURN_IF_ERROR(new_region->db()->Flush());

  // Insert in start-key order.
  auto pos = std::upper_bound(
      regions_.begin(), regions_.end(), new_region->start_key(),
      [](const std::string& key,
         const std::unique_ptr<internal::Region>& r) {
        return key < r->start_key();
      });
  regions_.insert(pos, std::move(new_region));
  obs::MetricsRegistry::Global()
      .GetCounter("pstorm_hstore_region_splits_total")
      .Increment();
  return WriteTableMetaLocked();
}

}  // namespace pstorm::hstore
