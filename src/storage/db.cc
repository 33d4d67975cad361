#include "storage/db.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "storage/merging_iterator.h"

namespace pstorm::storage {

namespace {

// Process-global mirrors of the per-Db AtomicDbStats, summed across every Db
// in the process for the metrics dump. The per-Db stats stay authoritative
// (tests and callers read those); these exist so one Dump() shows storage
// effort without walking the live Db set.
obs::Counter& WalAppends() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pstorm_db_wal_appends_total");
  return c;
}
/// Log syncs, one per batch; group commit and multi-record batches make
/// this lag pstorm_db_wal_appends_total.
obs::Counter& WalSyncs() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pstorm_db_wal_syncs_total");
  return c;
}
obs::Counter& WalRecordsReplayed() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_wal_records_replayed_total");
  return c;
}
obs::Counter& WalTailTruncations() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_wal_tail_truncations_total");
  return c;
}
obs::Counter& Flushes() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pstorm_db_flushes_total");
  return c;
}
obs::Counter& BytesFlushed() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_bytes_flushed_total");
  return c;
}
obs::Counter& Compactions() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pstorm_db_compactions_total");
  return c;
}
obs::Counter& BytesCompacted() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_bytes_compacted_total");
  return c;
}
obs::Counter& QuarantinedFiles() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_quarantined_files_total");
  return c;
}
obs::Counter& OrphansRemoved() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_orphans_removed_total");
  return c;
}
obs::Counter& VersionPins() {
  static obs::Counter& c =
      obs::MetricsRegistry::Global().GetCounter("pstorm_db_version_pins_total");
  return c;
}
/// Writes/batches rejected by epoch fencing or replica read-only mode.
obs::Counter& FenceRejections() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_fence_rejections_total");
  return c;
}
obs::Counter& ReplicatedBatches() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_replicated_batches_total");
  return c;
}
obs::Counter& ReplicatedRecords() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_replicated_records_total");
  return c;
}
obs::Counter& CheckpointsCreated() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_db_checkpoints_total");
  return c;
}
constexpr char kManifestName[] = "MANIFEST";
constexpr char kManifestHeader[] = "pstorm-manifest-v1";
constexpr char kWalName[] = "WAL";
/// The rotated log an earlier build left during a flush (see Open); only
/// recovery and InstallCheckpoint touch it now.
constexpr char kWalImmName[] = "WAL.imm";
constexpr char kQuarantineSuffix[] = ".quarantine";

/// The smallest key above every key that starts with `prefix`; empty (no
/// bound) when there is none, i.e. when every byte is 0xff.
std::string PrefixSuccessor(std::string_view prefix) {
  std::string out(prefix);
  while (!out.empty()) {
    const auto last = static_cast<unsigned char>(out.back());
    if (last != 0xff) {
      out.back() = static_cast<char>(last + 1);
      return out;
    }
    out.pop_back();
  }
  return out;
}

/// Forwards to a wrapped iterator while pinning the snapshot it reads:
/// the memtable copy and the Version (and through it every sstable
/// handle). Keeps the iterator valid across concurrent flushes and
/// compactions.
class PinnedIterator final : public Iterator {
 public:
  PinnedIterator(std::unique_ptr<Iterator> base,
                 std::shared_ptr<const Memtable> memtable,
                 std::shared_ptr<const Version> version)
      : base_(std::move(base)),
        memtable_(std::move(memtable)),
        version_(std::move(version)) {}

  bool Valid() const override { return base_->Valid(); }
  void SeekToFirst() override { base_->SeekToFirst(); }
  void Seek(std::string_view target) override { base_->Seek(target); }
  void Next() override { base_->Next(); }
  std::string_view key() const override { return base_->key(); }
  std::string_view value() const override { return base_->value(); }
  EntryType type() const override { return base_->type(); }
  Status status() const override { return base_->status(); }

 private:
  std::unique_ptr<Iterator> base_;
  std::shared_ptr<const Memtable> memtable_;
  std::shared_ptr<const Version> version_;
};

}  // namespace

Db::Db(Env* env, std::string path, DbOptions options)
    : env_(env),
      path_(std::move(path)),
      options_(std::move(options)),
      wal_(env, JoinPath(path_, kWalName)) {}

Result<std::unique_ptr<Db>> Db::Open(Env* env, std::string path,
                                     DbOptions options) {
  PSTORM_CHECK(env != nullptr);
  auto db = std::unique_ptr<Db>(new Db(env, std::move(path), options));
  // The cache must exist before LoadManifest opens any table.
  if (options.block_cache != nullptr) {
    db->block_cache_ = options.block_cache;
  } else if (options.block_cache_bytes > 0) {
    db->block_cache_ = std::make_shared<BlockCache>(options.block_cache_bytes);
  }
  db->current_ = std::make_shared<const Version>();
  PSTORM_RETURN_IF_ERROR(env->CreateDir(db->path_));
  db->replica_.store(options.read_only_replica, std::memory_order_release);
  if (env->FileExists(JoinPath(db->path_, kManifestName))) {
    PSTORM_RETURN_IF_ERROR(db->LoadManifest());
  } else {
    PSTORM_RETURN_IF_ERROR(db->WriteManifest(*db->current_, 0));
  }

  // Recover acked-but-unflushed mutations. An earlier build could run
  // flushes on a background pool, which rotated the log to WAL.imm for
  // the memtable being flushed, so a store it wrote may still hold one.
  // That rotated log holds the older records: replay it first so the
  // active log's records win, exactly as they did in memtable order before
  // the crash. The logs stay in place until consolidated or truncated
  // below, so a crash during recovery just replays again (replay is
  // idempotent: last write per key wins).
  const std::string& wal_path = db->wal_.path();
  const std::string wal_imm_path = JoinPath(db->path_, kWalImmName);
  const bool had_rotated_wal = env->FileExists(wal_imm_path);
  uint64_t records_replayed = 0;
  uint64_t replayed_last_sequence = 0;
  bool tail_truncated = false;
  if (had_rotated_wal) {
    PSTORM_ASSIGN_OR_RETURN(WalReplayResult imm_replay,
                            ReplayWal(*env, wal_imm_path, &db->memtable_));
    records_replayed += imm_replay.records_applied;
    replayed_last_sequence =
        std::max(replayed_last_sequence, imm_replay.last_sequence);
    tail_truncated |= imm_replay.truncated_tail;
  }
  PSTORM_ASSIGN_OR_RETURN(WalReplayResult replay,
                          ReplayWal(*env, wal_path, &db->memtable_));
  records_replayed += replay.records_applied;
  replayed_last_sequence =
      std::max(replayed_last_sequence, replay.last_sequence);
  tail_truncated |= replay.truncated_tail;
  db->last_sequence_.store(
      std::max(db->flushed_sequence_.load(), replayed_last_sequence),
      std::memory_order_release);
  db->stats_.wal_records_replayed = records_replayed;
  db->stats_.wal_tail_truncated = tail_truncated ? 1 : 0;
  WalRecordsReplayed().Add(records_replayed);
  if (tail_truncated) {
    WalTailTruncations().Increment();
    PSTORM_LOG(Warning) << "db " << db->path_ << ": WAL tail torn after "
                        << records_replayed
                        << " records; dropping the damaged suffix";
  }
  if (had_rotated_wal || tail_truncated) {
    // Rewrite the active log as the byte-identical concatenation of the
    // intact framed prefixes (rotated log first — its records are older),
    // then drop the rotated one. This both consolidates a leftover WAL.imm
    // into the single log and amputates a torn tail: leaving the tear in
    // place would let later appends land *behind* garbage, where replay
    // can never reach them. Every step is crash-safe: the rewrite is
    // atomic (tmp+rename), and dying before the delete just means the
    // next open replays the rotated log redundantly (idempotent).
    std::string consolidated;
    if (had_rotated_wal) {
      PSTORM_ASSIGN_OR_RETURN(WalSegment imm_segment,
                              ReadWalSegment(*env, wal_imm_path, 0));
      consolidated += imm_segment.raw;
    }
    PSTORM_ASSIGN_OR_RETURN(WalSegment wal_segment,
                            ReadWalSegment(*env, wal_path, 0));
    consolidated += wal_segment.raw;
    PSTORM_RETURN_IF_ERROR(env->WriteFile(wal_path, consolidated));
    if (had_rotated_wal) {
      PSTORM_RETURN_IF_ERROR(env->DeleteFile(wal_imm_path));
    }
  }

  PSTORM_RETURN_IF_ERROR(db->RemoveOrphans());
  if (db->stats_.quarantined_files.load() > 0) {
    // Drop the quarantined tables from the manifest so the next open does
    // not trip over them again.
    PSTORM_RETURN_IF_ERROR(
        db->WriteManifest(*db->current_, db->flushed_sequence_.load()));
  }
  return db;
}

Status Db::RemoveOrphans() {
  PSTORM_ASSIGN_OR_RETURN(std::vector<std::string> names,
                          env_->ListDir(path_));
  std::vector<std::string> live = {kManifestName, kWalName, kWalImmName};
  for (const auto& handle : current_->l0) live.push_back(handle->name());
  for (const auto& handle : current_->l1) live.push_back(handle->name());
  for (const std::string& name : names) {
    if (std::find(live.begin(), live.end(), name) != live.end()) continue;
    if (EndsWith(name, kQuarantineSuffix)) continue;  // Kept for forensics.
    // Anything else is debris from a crashed flush, compaction, or staged
    // write (.tmp): unreferenced, so deleting it cannot lose data.
    const Status s = env_->DeleteFile(JoinPath(path_, name));
    if (s.ok()) {
      ++stats_.orphans_removed;
      OrphansRemoved().Increment();
      PSTORM_LOG(Info) << "db " << path_ << ": removed orphaned file "
                       << name;
    } else {
      PSTORM_LOG(Warning) << "db " << path_ << ": could not remove orphan "
                          << name << ": " << s.ToString();
    }
  }
  return Status::OK();
}

Status Db::Put(std::string_view key, std::string_view value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(batch);
}

Status Db::Delete(std::string_view key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(batch);
}

Status Db::Write(const WriteBatch& batch, bool sync) {
  for (const WriteBatch::Op& op : batch.ops_) {
    if (op.key.empty()) return Status::InvalidArgument("empty key");
  }
  if (batch.ops_.empty()) return Status::OK();
  Writer w;
  w.batch = &batch;
  w.sync = sync;

  std::unique_lock<std::mutex> writer_lock(writer_mu_);
  if (replica_.load(std::memory_order_relaxed)) {
    // Replica fence: a standby only mutates through ApplyReplicated. This
    // is also what a deposed primary's clients see after failover.
    ++stats_.fence_rejections;
    FenceRejections().Increment();
    return Status::FailedPrecondition(
        "db is a read-only replica; writes go to the primary");
  }
  if (!write_error_.ok()) return write_error_;
  writers_.push_back(&w);
  writers_cv_.wait(writer_lock, [&] {
    return w.done || (!batch_in_flight_ && writers_.front() == &w);
  });
  if (w.done) return w.status;  // A leader committed this write for us.

  // Leader. Every batch queued right now rides in this group. Writers
  // arriving during the WAL IO below queue behind it for the next leader.
  const size_t group_size = writers_.size();
  if (!write_error_.ok()) {
    // The group ahead failed its log write while this one queued.
    const Status failed = write_error_;
    AckGroupLocked(group_size, failed);
    return failed;
  }
  // The leader stamps commit sequences base+1, base+2, ... over the
  // records of the queued batches in queue order. Only the (serialized)
  // leader advances last_sequence_, and only once the records are in the
  // log; a failed append latches write_error_, so its range is never
  // reused.
  const uint64_t base_sequence =
      last_sequence_.load(std::memory_order_relaxed);
  // Log before memtable: a mutation is acked only once its record has
  // been appended and (when any writer of the group asks) synced, so it
  // survives a power loss. The whole group goes down in one append and at
  // most one sync, the point of the group commit.
  std::string group;
  bool group_sync = false;
  uint64_t sequence = base_sequence;
  for (size_t i = 0; i < group_size; ++i) {
    group_sync |= writers_[i]->sync;
    for (const WriteBatch::Op& op : writers_[i]->batch->ops_) {
      group += EncodeWalRecord(++sequence, op.type, op.key, op.value);
    }
  }
  batch_in_flight_ = true;
  writer_lock.unlock();
  Status s = wal_.AppendBatch(group, group_sync);
  writer_lock.lock();
  batch_in_flight_ = false;
  if (!s.ok()) {
    s = SetWriteErrorLocked(s);
    AckGroupLocked(group_size, s);
    return s;
  }
  const uint64_t records = sequence - base_sequence;
  stats_.wal_appends += records;
  WalAppends().Add(records);
  if (group_sync) {
    ++stats_.wal_syncs;
    WalSyncs().Increment();
  }
  {
    std::unique_lock<std::shared_mutex> state_lock(state_mu_);
    for (size_t i = 0; i < group_size; ++i) {
      for (const WriteBatch::Op& op : writers_[i]->batch->ops_) {
        if (op.type == EntryType::kValue) {
          memtable_.Put(op.key, op.value);
        } else {
          memtable_.Delete(op.key);
        }
      }
    }
  }
  last_sequence_.store(sequence, std::memory_order_release);
  AckGroupLocked(group_size, Status::OK());
  return MaybeFlushLocked();
}

void Db::AckGroupLocked(size_t group_size, const Status& status) {
  for (size_t i = 0; i < group_size; ++i) {
    Writer* writer = writers_.front();
    writers_.pop_front();
    writer->status = status;
    writer->done = true;
  }
  writers_cv_.notify_all();
}

Status Db::SetWriteErrorLocked(Status status) {
  write_error_ = status;
  PSTORM_LOG(Error) << "db " << path_ << ": WAL write failed ("
                    << status.ToString()
                    << "); refusing writes until the db is reopened";
  return status;
}

std::unique_lock<std::mutex> Db::LockWriterForMaintenance() {
  std::unique_lock<std::mutex> lock(writer_mu_);
  writers_cv_.wait(lock, [this] { return !batch_in_flight_; });
  return lock;
}

Status Db::MaybeFlushLocked() {
  // Reading the memtable without state_mu_ is safe here: writer_mu_ is
  // held, so no one else can be mutating it.
  if (memtable_.ApproximateBytes() < options_.memtable_flush_bytes) {
    return Status::OK();
  }
  return FlushLocked();
}

std::shared_ptr<const Version> Db::PinVersion() const {
  VersionPins().Increment();
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return current_;
}

Result<std::string> Db::Get(std::string_view key) const {
  std::shared_ptr<const Version> version;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    if (auto entry = memtable_.Get(key); entry.has_value()) {
      if (entry->type == EntryType::kTombstone) {
        return Status::NotFound("deleted");
      }
      return entry->value;
    }
    version = current_;
  }
  // The sstable search runs lock-free on the pinned version.
  PSTORM_ASSIGN_OR_RETURN(auto hit, version->Get(key));
  if (hit.has_value()) {
    if (hit->type == EntryType::kTombstone) {
      return Status::NotFound("deleted");
    }
    return std::move(hit->value);
  }
  return Status::NotFound("no such key");
}

size_t Db::num_level0_tables() const { return PinVersion()->l0.size(); }

size_t Db::num_level1_tables() const { return PinVersion()->l1.size(); }

size_t Db::memtable_entries() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return memtable_.num_entries();
}

size_t Db::ApproximateSizeBytes() const {
  std::shared_lock<std::shared_mutex> lock(state_mu_);
  return memtable_.ApproximateBytes() + current_->TotalTableBytes();
}

DbStats Db::stats() const {
  DbStats out;
  out.flushes = stats_.flushes.load();
  out.compactions = stats_.compactions.load();
  out.bytes_flushed = stats_.bytes_flushed.load();
  out.bytes_compacted = stats_.bytes_compacted.load();
  out.wal_appends = stats_.wal_appends.load();
  out.wal_syncs = stats_.wal_syncs.load();
  out.wal_records_replayed = stats_.wal_records_replayed.load();
  out.wal_tail_truncated = stats_.wal_tail_truncated.load();
  out.quarantined_files = stats_.quarantined_files.load();
  out.orphans_removed = stats_.orphans_removed.load();
  out.replicated_batches = stats_.replicated_batches.load();
  out.replicated_records = stats_.replicated_records.load();
  out.fence_rejections = stats_.fence_rejections.load();
  out.checkpoints_created = stats_.checkpoints_created.load();
  out.epoch = epoch_.load(std::memory_order_acquire);
  out.last_sequence = last_sequence_.load(std::memory_order_acquire);
  out.flushed_sequence = flushed_sequence_.load(std::memory_order_acquire);
  out.is_replica = replica_.load(std::memory_order_acquire) ? 1 : 0;
  return out;
}

std::unique_ptr<Iterator> Db::NewIterator(std::string_view lower,
                                          std::string_view upper) const {
  return NewSnapshotIterator(lower, upper, /*prune_by_prefix=*/false);
}

std::unique_ptr<Iterator> Db::NewPrefixIterator(
    std::string_view prefix) const {
  return NewSnapshotIterator(prefix, PrefixSuccessor(prefix),
                             /*prune_by_prefix=*/true);
}

std::unique_ptr<Iterator> Db::NewSnapshotIterator(std::string_view lower,
                                                  std::string_view upper,
                                                  bool prune_by_prefix) const {
  std::shared_ptr<const Memtable> memtable;
  std::shared_ptr<const Version> version;
  {
    std::shared_lock<std::shared_mutex> lock(state_mu_);
    memtable =
        std::make_shared<const Memtable>(memtable_.CopyRange(lower, upper));
    version = current_;
  }
  // Newest source first: the merging iterator resolves duplicate keys in
  // child order (memtable shadows tables). Prefix pruning drops every
  // table whose prefix bloom filter rejects the prefix; the memtable
  // always participates (no filter covers it).
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(memtable->NewIterator());
  if (prune_by_prefix) {
    version->AppendIteratorsForPrefix(lower, &children);
  } else {
    version->AppendIterators(&children);
  }
  return std::make_unique<PinnedIterator>(
      NewLiveRecordIterator(NewMergingIterator(std::move(children))),
      std::move(memtable), std::move(version));
}

std::string Db::NewFileName() {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%06llu.sst",
                static_cast<unsigned long long>(next_file_number_++));
  return buf;
}

Result<std::shared_ptr<TableHandle>> Db::BuildTableFromMemtable(
    const Memtable& memtable, size_t* bytes) {
  TableBuilder builder(options_.table_options);
  auto iter = memtable.NewIterator();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    builder.Add(iter->key(), iter->value(), iter->type());
  }
  const std::string contents = builder.Finish();
  const std::string name = NewFileName();
  PSTORM_RETURN_IF_ERROR(env_->WriteFile(JoinPath(path_, name), contents));
  PSTORM_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                          Table::Open(contents, block_cache_));
  *bytes = contents.size();
  return std::make_shared<TableHandle>(env_, path_, name, std::move(table));
}

Status Db::Flush() {
  std::unique_lock<std::mutex> writer_lock = LockWriterForMaintenance();
  PSTORM_RETURN_IF_ERROR(write_error_);
  return FlushLocked();
}

Status Db::FlushLocked() {
  // writer_mu_ is held: the memtable cannot be mutated underneath us, and
  // concurrent readers only read it, so building the table needs no lock.
  if (memtable_.empty()) return Status::OK();
  size_t bytes = 0;
  PSTORM_ASSIGN_OR_RETURN(std::shared_ptr<TableHandle> handle,
                          BuildTableFromMemtable(memtable_, &bytes));
  auto next = std::make_shared<Version>();
  next->l0.push_back(std::move(handle));
  next->l0.insert(next->l0.end(), current_->l0.begin(), current_->l0.end());
  next->l1 = current_->l1;
  {
    std::unique_lock<std::shared_mutex> state_lock(state_mu_);
    current_ = std::move(next);
    memtable_ = Memtable();
  }
  ++stats_.flushes;
  stats_.bytes_flushed += bytes;
  Flushes().Increment();
  BytesFlushed().Add(bytes);
  // writer_mu_ is held with no batch in flight, so last_sequence_ covers
  // exactly what the table just absorbed.
  const uint64_t durable_sequence =
      last_sequence_.load(std::memory_order_acquire);
  PSTORM_RETURN_IF_ERROR(WriteManifest(*current_, durable_sequence));
  flushed_sequence_.store(durable_sequence, std::memory_order_release);
  // The flushed records are durable in the sstable now; the log restarts
  // empty. Ordering matters: truncating before the manifest lands would
  // open a window where a crash loses the flushed-but-unreferenced data.
  PSTORM_RETURN_IF_ERROR(wal_.Truncate());
  if (static_cast<int>(current_->l0.size()) >=
      options_.l0_compaction_trigger) {
    return CompactAllLocked();
  }
  return Status::OK();
}

Status Db::CompactAll() {
  std::unique_lock<std::mutex> writer_lock = LockWriterForMaintenance();
  PSTORM_RETURN_IF_ERROR(write_error_);
  return CompactAllLocked();
}

Status Db::CompactAllLocked() {
  PSTORM_RETURN_IF_ERROR(FlushLocked());  // Fold any buffered writes in too.
  // current_ is stable while writer_mu_ is held; keep a pin for the merge.
  const std::shared_ptr<const Version> base = current_;
  if (base->l0.empty() && base->l1.size() <= 1) return Status::OK();
  size_t bytes = 0;
  PSTORM_ASSIGN_OR_RETURN(std::shared_ptr<Version> next,
                          BuildCompactedVersion(*base, &bytes));
  {
    std::unique_lock<std::shared_mutex> state_lock(state_mu_);
    current_ = next;
  }
  ++stats_.compactions;
  Compactions().Increment();
  PSTORM_RETURN_IF_ERROR(WriteManifest(*next, flushed_sequence_.load()));

  // The superseded files stay on disk while any reader still pins them;
  // each is deleted when its last pinning Version is released (see
  // TableHandle). With no readers that is right now, as `base` drops.
  base->MarkAllObsolete();
  return Status::OK();
}

Result<std::shared_ptr<Version>> Db::BuildCompactedVersion(
    const Version& base, size_t* bytes) {
  // Merge every table. Any memtable contents are strictly newer than the
  // tables and stay out of the merge, so dropping a tombstone here cannot
  // resurrect anything: the merge covers every record the tombstone could
  // ever have shadowed.
  std::vector<std::unique_ptr<Iterator>> children;
  base.AppendIterators(&children);
  auto merged = NewMergingIterator(std::move(children));

  auto next = std::make_shared<Version>();
  TableBuilder builder(options_.table_options);
  size_t built_bytes = 0;
  size_t total_bytes = 0;
  auto emit_table = [&]() -> Status {
    if (builder.num_entries() == 0) return Status::OK();
    const std::string contents = builder.Finish();
    const std::string name = NewFileName();
    PSTORM_RETURN_IF_ERROR(env_->WriteFile(JoinPath(path_, name), contents));
    PSTORM_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                            Table::Open(contents, block_cache_));
    next->l1.push_back(std::make_shared<TableHandle>(env_, path_, name,
                                                     std::move(table)));
    stats_.bytes_compacted += contents.size();
    BytesCompacted().Add(contents.size());
    total_bytes += contents.size();
    built_bytes = 0;
    return Status::OK();
  };

  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    // Full-database compaction: tombstones have shadowed everything they
    // ever will, so drop them.
    if (merged->type() == EntryType::kTombstone) continue;
    builder.Add(merged->key(), merged->value(), EntryType::kValue);
    built_bytes += merged->key().size() + merged->value().size();
    if (built_bytes >= options_.target_file_bytes) {
      PSTORM_RETURN_IF_ERROR(emit_table());
    }
  }
  PSTORM_RETURN_IF_ERROR(merged->status());
  PSTORM_RETURN_IF_ERROR(emit_table());
  *bytes = total_bytes;
  return next;
}

Status Db::WriteManifest(const Version& version, uint64_t flushed_seq) {
  std::string out(kManifestHeader);
  out += "\n";
  out += "next_file " + std::to_string(next_file_number_) + "\n";
  out += "last_seq " + std::to_string(flushed_seq) + "\n";
  // The fenced epoch record: a manifest carrying epoch E rejects shipped
  // batches from any primary announcing an epoch < E after reopen.
  out += "epoch " + std::to_string(epoch_.load()) + "\n";
  for (const auto& handle : version.l0) out += "l0 " + handle->name() + "\n";
  for (const auto& handle : version.l1) out += "l1 " + handle->name() + "\n";
  const std::string tmp = JoinPath(path_, std::string(kManifestName) + ".tmp");
  PSTORM_RETURN_IF_ERROR(env_->WriteFile(tmp, out));
  return env_->RenameFile(tmp, JoinPath(path_, kManifestName));
}

Result<std::shared_ptr<Table>> Db::LoadTable(const std::string& file_name) {
  PSTORM_ASSIGN_OR_RETURN(std::string contents,
                          env_->ReadFile(JoinPath(path_, file_name)));
  return Table::Open(std::move(contents), block_cache_);
}

Status Db::LoadManifest() {
  PSTORM_ASSIGN_OR_RETURN(std::string manifest,
                          env_->ReadFile(JoinPath(path_, kManifestName)));
  std::vector<std::string> lines = StrSplit(manifest, '\n');
  if (lines.empty() || lines[0] != kManifestHeader) {
    return Status::Corruption("bad manifest header");
  }
  auto loaded = std::make_shared<Version>();
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::vector<std::string> parts = StrSplit(lines[i], ' ');
    if (parts.size() != 2) return Status::Corruption("bad manifest line");
    if (parts[0] == "next_file" || parts[0] == "last_seq" ||
        parts[0] == "epoch") {
      char* end = nullptr;
      const uint64_t value = std::strtoull(parts[1].c_str(), &end, 10);
      if (end == parts[1].c_str() || *end != '\0') {
        return Status::Corruption("bad " + parts[0] + " value");
      }
      if (parts[0] == "next_file") {
        next_file_number_ = value;
      } else if (parts[0] == "last_seq") {
        flushed_sequence_.store(value, std::memory_order_release);
      } else {
        // A pre-replication manifest has no epoch line; the member default
        // (epoch 1) covers it.
        epoch_.store(value, std::memory_order_release);
      }
    } else if (parts[0] == "l0" || parts[0] == "l1") {
      Result<std::shared_ptr<Table>> table = LoadTable(parts[1]);
      if (!table.ok()) {
        // Graceful degradation: one rotten table must not take the whole
        // store down. Rename it aside (keeping the bytes for forensics),
        // count it, and serve what is left — the layers above turn the
        // missing rows into No Match Found.
        PSTORM_LOG(Warning) << "db " << path_ << ": quarantining sstable "
                            << parts[1] << ": " << table.status().ToString();
        const Status rename = env_->RenameFile(
            JoinPath(path_, parts[1]),
            JoinPath(path_, parts[1] + kQuarantineSuffix));
        if (!rename.ok()) {
          PSTORM_LOG(Warning) << "db " << path_ << ": quarantine rename of "
                              << parts[1] << " failed: " << rename.ToString();
        }
        ++stats_.quarantined_files;
        QuarantinedFiles().Increment();
        continue;
      }
      auto& level = parts[0] == "l0" ? loaded->l0 : loaded->l1;
      level.push_back(std::make_shared<TableHandle>(
          env_, path_, parts[1], std::move(table).value()));
    } else {
      return Status::Corruption("unknown manifest tag: " + parts[0]);
    }
  }
  current_ = std::move(loaded);
  return Status::OK();
}

// --- Replication ----------------------------------------------------------

Result<Db::ShipBatch> Db::FetchWalSince(uint64_t from_sequence) {
  // writer_mu_ with no batch in flight: no append, flush or truncate can
  // touch the log while it is read.
  std::unique_lock<std::mutex> writer_lock = LockWriterForMaintenance();
  ShipBatch out;
  out.epoch = epoch_.load(std::memory_order_acquire);
  if (from_sequence <= flushed_sequence_.load(std::memory_order_acquire)) {
    // The log no longer reaches back that far — a flush truncated the
    // records away. The follower must bootstrap from a checkpoint.
    out.need_checkpoint = true;
    return out;
  }
  PSTORM_ASSIGN_OR_RETURN(
      WalSegment segment,
      ReadWalSegment(*env_, wal_.path(), from_sequence));
  // Contiguity paranoia: the follower applies strictly sequential records,
  // so hand it either a gap-free run starting exactly at from_sequence or
  // a checkpoint order.
  bool contiguous =
      segment.empty() || segment.first_sequence() == from_sequence;
  for (size_t i = 1; contiguous && i < segment.records.size(); ++i) {
    contiguous =
        segment.records[i].sequence == segment.records[i - 1].sequence + 1;
  }
  if (!contiguous) {
    out.need_checkpoint = true;
    return out;
  }
  out.segment = std::move(segment);
  return out;
}

Result<DbCheckpoint> Db::Checkpoint() {
  // The writer lock keeps writes, flushes and compactions out, so
  // current_, flushed_sequence_ and the log are stable while they are
  // copied.
  std::unique_lock<std::mutex> writer_lock = LockWriterForMaintenance();

  DbCheckpoint checkpoint;
  checkpoint.epoch = epoch_.load(std::memory_order_acquire);
  checkpoint.flushed_sequence =
      flushed_sequence_.load(std::memory_order_acquire);
  checkpoint.last_sequence = last_sequence_.load(std::memory_order_acquire);
  checkpoint.next_file_number = next_file_number_;

  const std::shared_ptr<const Version> version = PinVersion();
  auto copy_level = [&](const std::vector<std::shared_ptr<TableHandle>>& in,
                        std::vector<DbCheckpoint::TableFile>* out) -> Status {
    for (const auto& handle : in) {
      PSTORM_ASSIGN_OR_RETURN(std::string contents,
                              env_->ReadFile(JoinPath(path_, handle->name())));
      out->push_back(DbCheckpoint::TableFile{handle->name(),
                                             std::move(contents)});
    }
    return Status::OK();
  };
  PSTORM_RETURN_IF_ERROR(copy_level(version->l0, &checkpoint.l0));
  PSTORM_RETURN_IF_ERROR(copy_level(version->l1, &checkpoint.l1));

  PSTORM_ASSIGN_OR_RETURN(
      WalSegment tail,
      ReadWalSegment(*env_, wal_.path(), checkpoint.flushed_sequence + 1));
  checkpoint.wal_tail = std::move(tail.raw);
  ++stats_.checkpoints_created;
  CheckpointsCreated().Increment();
  return checkpoint;
}

Status Db::InstallCheckpoint(Env* env, const std::string& path,
                             const DbCheckpoint& checkpoint) {
  PSTORM_CHECK(env != nullptr);
  PSTORM_RETURN_IF_ERROR(env->CreateDir(path));
  // Tear down the previous incarnation in crash-safe order: logs first,
  // manifest last. A crash after the WAL deletes but before the manifest's
  // leaves the old *flushed prefix* — consistent, just stale; a crash
  // after the manifest delete leaves a clean empty Db (the old sstables
  // become unreferenced orphans). Deleting the manifest first would leave
  // a WAL-only directory whose records replay onto the wrong base. A
  // WAL.imm left by an earlier build goes too: Open would replay it onto
  // the checkpoint.
  for (const char* name : {kWalName, kWalImmName, kManifestName}) {
    const std::string file = JoinPath(path, name);
    if (env->FileExists(file)) {
      PSTORM_RETURN_IF_ERROR(env->DeleteFile(file));
    }
  }
  // Epoch-prefixed table names cannot collide with the previous
  // incarnation's files (swept as orphans at the next open) or with
  // NewFileName()-produced ones after the follower reopens.
  auto shipped_name = [&checkpoint](const std::string& name) {
    std::string shipped = "r";
    shipped += std::to_string(checkpoint.epoch);
    shipped += "-";
    shipped += name;
    return shipped;
  };
  std::string manifest(kManifestHeader);
  manifest += "\n";
  manifest +=
      "next_file " + std::to_string(checkpoint.next_file_number) + "\n";
  manifest +=
      "last_seq " + std::to_string(checkpoint.flushed_sequence) + "\n";
  manifest += "epoch " + std::to_string(checkpoint.epoch) + "\n";
  for (const auto& table : checkpoint.l0) {
    PSTORM_RETURN_IF_ERROR(env->WriteFile(
        JoinPath(path, shipped_name(table.name)), table.contents));
    manifest += "l0 " + shipped_name(table.name) + "\n";
  }
  for (const auto& table : checkpoint.l1) {
    PSTORM_RETURN_IF_ERROR(env->WriteFile(
        JoinPath(path, shipped_name(table.name)), table.contents));
    manifest += "l1 " + shipped_name(table.name) + "\n";
  }
  const std::string tmp = JoinPath(path, std::string(kManifestName) + ".tmp");
  PSTORM_RETURN_IF_ERROR(env->WriteFile(tmp, manifest));
  PSTORM_RETURN_IF_ERROR(env->RenameFile(tmp, JoinPath(path, kManifestName)));
  // The WAL tail lands last, written whole and durable (the old log is
  // gone, so nothing is appended to): until here a crash leaves the
  // flushed prefix.
  if (!checkpoint.wal_tail.empty()) {
    PSTORM_RETURN_IF_ERROR(
        env->WriteFile(JoinPath(path, kWalName), checkpoint.wal_tail));
  }
  return Status::OK();
}

Status Db::AdoptEpochLocked(uint64_t new_epoch) {
  // writer_mu_ is held, so no flush can overwrite the fence with a
  // manifest carrying the old epoch.
  const std::shared_ptr<const Version> version = PinVersion();
  const uint64_t old_epoch = epoch_.load(std::memory_order_acquire);
  epoch_.store(new_epoch, std::memory_order_release);
  const Status persisted =
      WriteManifest(*version, flushed_sequence_.load());
  if (!persisted.ok()) {
    epoch_.store(old_epoch, std::memory_order_release);
    return persisted;
  }
  PSTORM_LOG(Info) << "db " << path_ << ": adopted epoch " << new_epoch
                   << " (was " << old_epoch << ")";
  return Status::OK();
}

Status Db::ApplyReplicated(uint64_t primary_epoch, const WalSegment& segment) {
  std::unique_lock<std::mutex> writer_lock = LockWriterForMaintenance();
  if (!replica_.load(std::memory_order_acquire)) {
    // This Db was promoted (or never was a replica): the sender is a
    // deposed primary, or confused. Fence it.
    ++stats_.fence_rejections;
    FenceRejections().Increment();
    return Status::FailedPrecondition(
        "not a replica: shipped batch fenced (target epoch " +
        std::to_string(epoch_.load()) + ")");
  }
  if (primary_epoch < epoch_.load(std::memory_order_acquire)) {
    ++stats_.fence_rejections;
    FenceRejections().Increment();
    return Status::FailedPrecondition(
        "stale epoch " + std::to_string(primary_epoch) + " < " +
        std::to_string(epoch_.load()) + ": shipped batch fenced");
  }
  PSTORM_RETURN_IF_ERROR(write_error_);
  if (primary_epoch > epoch_.load(std::memory_order_acquire)) {
    // Persist the fence *before* applying any record of the new epoch: a
    // crash right after must still reject the old primary on reopen.
    PSTORM_RETURN_IF_ERROR(AdoptEpochLocked(primary_epoch));
  }
  if (segment.raw.empty()) return Status::OK();  // Heartbeat / pure fencing.

  PSTORM_ASSIGN_OR_RETURN(std::vector<WalRecord> records,
                          DecodeWalRecords(segment.raw));
  const uint64_t expected =
      last_sequence_.load(std::memory_order_acquire) + 1;
  if (records.front().sequence != expected) {
    return Status::InvalidArgument(
        "replication gap: batch starts at " +
        std::to_string(records.front().sequence) + ", expected " +
        std::to_string(expected));
  }
  for (size_t i = 1; i < records.size(); ++i) {
    if (records[i].sequence != records[i - 1].sequence + 1) {
      return Status::InvalidArgument("non-contiguous shipped batch");
    }
  }
  // Byte-identical append and one sync: the replica's log carries the
  // primary's exact frames (sequences and checksums included), which is
  // what makes divergence detectable and a promoted replica's log
  // shippable onward. A failed append or sync latches write_error_, as in
  // Write.
  const Status s = wal_.AppendBatch(segment.raw, /*sync=*/true);
  if (!s.ok()) return SetWriteErrorLocked(s);
  stats_.wal_appends += records.size();
  WalAppends().Add(records.size());
  ++stats_.wal_syncs;
  WalSyncs().Increment();
  {
    std::unique_lock<std::shared_mutex> state_lock(state_mu_);
    for (const WalRecord& record : records) {
      if (record.type == EntryType::kValue) {
        memtable_.Put(record.key, record.value);
      } else {
        memtable_.Delete(record.key);
      }
    }
  }
  last_sequence_.store(records.back().sequence, std::memory_order_release);
  ++stats_.replicated_batches;
  stats_.replicated_records += records.size();
  ReplicatedBatches().Increment();
  ReplicatedRecords().Add(records.size());
  return MaybeFlushLocked();
}

Status Db::PromoteToPrimary() {
  std::unique_lock<std::mutex> writer_lock = LockWriterForMaintenance();
  if (!replica_.load(std::memory_order_acquire)) return Status::OK();
  const std::shared_ptr<const Version> version = PinVersion();
  const uint64_t old_epoch = epoch_.load(std::memory_order_acquire);
  epoch_.store(old_epoch + 1, std::memory_order_release);
  // The promotion *is* the manifest write: only once the bumped epoch is
  // durable may this Db accept writes, or a crash could resurrect it as a
  // replica that already diverged from the old primary.
  const Status persisted =
      WriteManifest(*version, flushed_sequence_.load());
  if (!persisted.ok()) {
    epoch_.store(old_epoch, std::memory_order_release);
    return persisted;  // Still a replica at the old epoch; retry is safe.
  }
  replica_.store(false, std::memory_order_release);
  PSTORM_LOG(Info) << "db " << path_ << ": promoted to primary at epoch "
                   << (old_epoch + 1);
  return Status::OK();
}

}  // namespace pstorm::storage
