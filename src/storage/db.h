#ifndef PSTORM_STORAGE_DB_H_
#define PSTORM_STORAGE_DB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/iterator.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/version.h"
#include "storage/wal.h"

namespace pstorm::storage {

struct DbOptions {
  /// Memtable payload size that triggers a flush to a level-0 table.
  size_t memtable_flush_bytes = 1 << 20;
  /// Number of level-0 tables that triggers a full compaction into level 1.
  int l0_compaction_trigger = 4;
  /// Target size of each level-1 table produced by compaction.
  size_t target_file_bytes = 2 << 20;
  /// Decoded-block budget of the block cache every sstable read consults
  /// before re-inflating a block. 0 disables caching. Ignored when
  /// `block_cache` is set.
  size_t block_cache_bytes = 4 << 20;
  /// Share one cache across Dbs (hstore gives all regions of a table the
  /// same one). When null, Open creates a private cache of
  /// `block_cache_bytes` (unless that is 0).
  std::shared_ptr<BlockCache> block_cache;
  /// Per-table format knobs, including the per-block compression codec
  /// (`table_options.codec`) and the prefix-bloom delimiter.
  TableBuilder::Options table_options;
  /// Open the Db as a read-only replica: client Put/Delete are rejected
  /// with FailedPrecondition, and mutations arrive only through
  /// ApplyReplicated — the WAL-shipping path (storage/replication.h).
  /// Reads stay fully available (snapshot-isolated, as always).
  /// PromoteToPrimary() flips the Db writable and bumps the fencing epoch.
  bool read_only_replica = false;
};

/// Mutations committed together (Db::Write): one WAL append and one sync,
/// applied to the memtable in order under one lock, so readers see all of
/// them or none. hstore writes each row as one batch.
class WriteBatch {
 public:
  void Put(std::string_view key, std::string_view value) {
    ops_.push_back(Op{EntryType::kValue, std::string(key), std::string(value)});
  }
  void Delete(std::string_view key) {
    ops_.push_back(Op{EntryType::kTombstone, std::string(key), {}});
  }

 private:
  friend class Db;
  struct Op {
    EntryType type;
    std::string key;
    std::string value;
  };
  std::vector<Op> ops_;
};

/// Counters exposed for observability and the micro-benchmarks.
struct DbStats {
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t bytes_flushed = 0;
  uint64_t bytes_compacted = 0;
  /// Mutations appended to the write-ahead log.
  uint64_t wal_appends = 0;
  /// Log syncs (an fdatasync on PosixEnv): one per group-commit batch and
  /// per replicated batch, each covering one append. Group commit and
  /// multi-record batches make this less than wal_appends. A write is
  /// acked only after its sync, so it survives a power loss.
  uint64_t wal_syncs = 0;
  /// Records recovered from the log by the last Open.
  uint64_t wal_records_replayed = 0;
  /// 1 when that replay stopped at a torn/corrupt tail record.
  uint64_t wal_tail_truncated = 0;
  /// Unreadable sstables renamed aside (not loaded) by Open.
  uint64_t quarantined_files = 0;
  /// Unreferenced leftovers (crashed flush/compaction debris) deleted by
  /// Open.
  uint64_t orphans_removed = 0;
  /// Always 0: no write is ever delayed or blocked for maintenance. A flush
  /// or compaction runs inline on the writer whose batch fills the
  /// memtable, so its cost shows in that write's latency. Kept because
  /// perfbench reports it as `storage.stall_ms`.
  uint64_t stall_micros = 0;
  /// Replication batches accepted through ApplyReplicated.
  uint64_t replicated_batches = 0;
  /// Individual records applied through ApplyReplicated.
  uint64_t replicated_records = 0;
  /// Writes/batches rejected by epoch fencing or replica read-only mode.
  uint64_t fence_rejections = 0;
  /// Consistent snapshots produced by Checkpoint().
  uint64_t checkpoints_created = 0;
  /// Current fencing epoch (monotonic, persisted in the manifest).
  uint64_t epoch = 0;
  /// Highest committed sequence number (WAL + memtable).
  uint64_t last_sequence = 0;
  /// Highest sequence number durable in sstables (manifest `last_seq`).
  uint64_t flushed_sequence = 0;
  /// 1 when the Db is a read-only replica, 0 when primary.
  uint64_t is_replica = 0;
};

/// A small embedded LSM key-value store: one memtable, a newest-first list
/// of level-0 tables, and a level-1 run of key-disjoint tables. This is the
/// storage engine underneath the hstore table layer (the repository's HBase
/// stand-in).
///
/// Thread-safety contract (snapshot isolation, LevelDB-style):
///  * Readers (`Get`, `NewIterator`, the size accessors) may run from any
///    number of threads concurrently with each other and with writers.
///    They take the state mutex shared just long enough to probe the
///    memtable and pin the current Version (an immutable, refcounted
///    {sstable list} snapshot — see storage/version.h), then search it
///    lock-free.
///  * Writers (`Put`, `Delete`, `Write`, `Flush`, `CompactAll`) serialize
///    on an internal writer mutex (WAL append order == memtable order ==
///    manifest order) and publish memtable edits under a brief exclusive
///    lock of the state mutex. Concurrent Put/Delete/Write calls
///    group-commit: each enqueues itself, the front writer becomes the
///    leader, drains the queue into one WAL append and at most one sync
///    (releasing the writer mutex for the IO), applies the batches to the
///    memtable in queue order, and wakes the followers with their status.
///  * Flushes and compactions run inline under the writer mutex: on the
///    leader whose batch fills the memtable, or in an explicit Flush /
///    CompactAll. So flush, compaction and manifest writes never race each
///    other or a WAL append.
///  * Obsolete sstables are deleted only when the last Version pinning
///    them is released, so an iterator keeps serving from compacted-away
///    tables.
///
/// A consistent point-in-time image of a Db — the bootstrap payload the
/// replication layer ships to a fresh or diverged follower: every live
/// sstable (by content), the manifest fields needed to rebuild it, and the
/// intact WAL tail covering sequences past the flushed prefix.
struct DbCheckpoint {
  uint64_t epoch = 0;
  /// Sequence durable in the shipped sstables.
  uint64_t flushed_sequence = 0;
  /// Highest sequence in the checkpoint overall (sstables + wal_tail).
  uint64_t last_sequence = 0;
  uint64_t next_file_number = 0;
  struct TableFile {
    std::string name;
    std::string contents;
  };
  std::vector<TableFile> l0;  // Newest first, matching manifest order.
  std::vector<TableFile> l1;
  /// Framed WAL records for sequences > flushed_sequence, verbatim.
  std::string wal_tail;
};

/// Lock order: writer_mu_ -> state_mu_ (never the reverse).
class Db {
 public:
  /// Observes every committed write batch, synchronously, from the
  /// committing (group-commit leader) thread — the hook sync replication
  /// uses to ship a batch before the writer is acked. Called once the
  /// batch is appended to the local WAL and the sync has returned, with
  /// writer_mu_ *released* but the batch still logically in flight (it is
  /// applied to the memtable and last_sequence advanced right after,
  /// regardless of the listener's verdict): the callback must not call
  /// back into this Db's write or maintenance API (Put, Flush,
  /// FetchWalSince, ...) or it deadlocks. A non-OK return is propagated to
  /// every writer in the batch — the records remain in the local log; see
  /// DESIGN.md §11 on this ambiguity window.
  class CommitListener {
   public:
    virtual ~CommitListener() = default;
    virtual Status OnCommit(uint64_t epoch, const WalSegment& batch) = 0;
  };

  /// Opens (or creates) a database rooted at `path` inside `env`, which
  /// must outlive the Db. Recovery sequence: load the manifest
  /// (quarantining any unreadable sstable instead of failing the open),
  /// replay the write-ahead log into the memtable, stopping cleanly at a
  /// torn tail (a `WAL.imm` that an earlier build left beside it is
  /// replayed first and folded into the one log), then sweep files the
  /// manifest no longer references. A corrupt manifest itself still
  /// fails the open — the layer above (hstore) decides whether to
  /// sacrifice the region.
  static Result<std::unique_ptr<Db>> Open(Env* env, std::string path,
                                          DbOptions options = {});

  Db(const Db&) = delete;
  Db& operator=(const Db&) = delete;

  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);
  /// Commits every mutation of `batch`, in order, with one WAL append and,
  /// when `sync` is set, one sync. InvalidArgument, writing nothing, when a
  /// key is empty. Without `sync` an acked batch survives a process crash
  /// but a power loss only once a later synced write or a Flush has made
  /// the log durable (a bulk load's contract; a group syncs when any of
  /// its batches asks to). If the append or the sync fails, the batch is
  /// not applied and the Db refuses every later Write, ApplyReplicated,
  /// Flush and CompactAll with that error until it is reopened: the log
  /// may end in a torn frame, and a record appended behind it would be
  /// lost to replay. A commit listener's error still applies the batch
  /// (it is in the synced log) and leaves the Db writable.
  Status Write(const WriteBatch& batch, bool sync = true);

  /// NotFound if the key is absent or deleted. Safe to call concurrently
  /// with writers; observes a point-in-time snapshot.
  Result<std::string> Get(std::string_view key) const;

  /// Iterates live records (no tombstones) in key order. The iterator
  /// observes a point-in-time snapshot: writes, flushes, and compactions
  /// that happen after creation are invisible to it, and it stays valid
  /// across them (it pins the tables it reads). It must not outlive the
  /// Db. Creation copies the memtable's records in [lower, upper) (an
  /// empty `upper` means no upper bound; the defaults copy it all, at most
  /// DbOptions::memtable_flush_bytes of payload). The sstables are not
  /// cut to the range, so the iterator is only coherent *within* it:
  /// callers must not seek below `lower` nor read at or past `upper`,
  /// where a table's stale record could show through.
  std::unique_ptr<Iterator> NewIterator(std::string_view lower = {},
                                        std::string_view upper = {}) const;

  /// Like NewIterator over the keys starting with `prefix`, and sstables
  /// whose prefix bloom filter proves they hold no such key are skipped
  /// entirely. Callers must stop consuming once keys no longer start with
  /// `prefix` (as hstore's row scans do).
  std::unique_ptr<Iterator> NewPrefixIterator(std::string_view prefix) const;

  /// Persists the memtable as a level-0 table (no-op when empty), then
  /// runs a compaction if level 0 is at the trigger.
  Status Flush();

  /// Merges everything into a fresh level-1 run, dropping tombstones.
  Status CompactAll();

  size_t num_level0_tables() const;
  size_t num_level1_tables() const;
  size_t memtable_entries() const;
  /// The block cache this Db's tables read through; null when caching is
  /// disabled. Possibly shared with other Dbs (see DbOptions::block_cache).
  const std::shared_ptr<BlockCache>& block_cache() const {
    return block_cache_;
  }
  /// Rough resident payload: memtable bytes plus serialized table bytes.
  size_t ApproximateSizeBytes() const;
  /// A consistent snapshot of the counters.
  DbStats stats() const;

  // --- Replication (see storage/replication.h for the shipping layer). ---

  /// Every intact WAL record with sequence >= `from_sequence`, in order —
  /// the shipper's pull primitive. `need_checkpoint` is set (with an empty
  /// segment) when the log no longer reaches back to `from_sequence`
  /// because a flush truncated it; the follower must bootstrap from
  /// Checkpoint() instead.
  struct ShipBatch {
    uint64_t epoch = 0;
    bool need_checkpoint = false;
    WalSegment segment;
  };
  Result<ShipBatch> FetchWalSince(uint64_t from_sequence);

  /// A consistent snapshot for follower bootstrap: holds the writer mutex
  /// (no write, flush or compaction runs meanwhile), pins the current
  /// Version, and copies every live sstable plus the WAL tail past the
  /// flushed prefix.
  Result<DbCheckpoint> Checkpoint();

  /// Materializes `checkpoint` as a fresh Db directory at `path` (crash
  /// safe: any interrupted install is either a consistent flushed prefix
  /// or re-bootstrappable). The target Db must be closed.
  static Status InstallCheckpoint(Env* env, const std::string& path,
                                  const DbCheckpoint& checkpoint);

  /// Applies a shipped batch on a replica: verifies framing + CRC, rejects
  /// stale epochs and non-replica targets with FailedPrecondition (fence),
  /// adopts (persists) a newer epoch before applying its records, requires
  /// exact sequence contiguity (first == last_sequence()+1, else
  /// InvalidArgument — the applier re-fetches), appends the frames
  /// byte-identical to the local WAL, syncs, and applies them to the
  /// memtable. A failed append or sync refuses every later write until
  /// reopen, as in Write.
  Status ApplyReplicated(uint64_t primary_epoch, const WalSegment& segment);

  /// Fences the old primary and makes this Db writable: persists epoch+1
  /// in the manifest, then drops replica mode. Idempotent on a primary.
  /// On failure the Db stays a replica at its old epoch (safe to retry).
  Status PromoteToPrimary();

  /// Registers (or, with nullptr, removes) the commit hook. Waits out any
  /// in-flight batch, so after return the old listener is never called
  /// again and the new one sees every subsequent batch. One listener at a
  /// time.
  Status SetCommitListener(CommitListener* listener);

  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  uint64_t last_sequence() const {
    return last_sequence_.load(std::memory_order_acquire);
  }
  uint64_t flushed_sequence() const {
    return flushed_sequence_.load(std::memory_order_acquire);
  }
  bool is_replica() const { return replica_.load(std::memory_order_acquire); }

 private:
  /// DbStats with every counter atomic, so writers on different threads
  /// (and readers snapshotting) never race. stats() flattens it.
  struct AtomicDbStats {
    std::atomic<uint64_t> flushes{0};
    std::atomic<uint64_t> compactions{0};
    std::atomic<uint64_t> bytes_flushed{0};
    std::atomic<uint64_t> bytes_compacted{0};
    std::atomic<uint64_t> wal_appends{0};
    std::atomic<uint64_t> wal_syncs{0};
    std::atomic<uint64_t> wal_records_replayed{0};
    std::atomic<uint64_t> wal_tail_truncated{0};
    std::atomic<uint64_t> quarantined_files{0};
    std::atomic<uint64_t> orphans_removed{0};
    std::atomic<uint64_t> replicated_batches{0};
    std::atomic<uint64_t> replicated_records{0};
    std::atomic<uint64_t> fence_rejections{0};
    std::atomic<uint64_t> checkpoints_created{0};
  };

  Db(Env* env, std::string path, DbOptions options);

  /// One queued batch in the group-commit protocol. Lives on its writer's
  /// stack; `batch` stays valid because that thread blocks until `done`.
  struct Writer {
    const WriteBatch* batch = nullptr;
    bool sync = true;
    Status status;
    bool done = false;
  };

  /// Pops the group's `group_size` writers off the queue, hands each
  /// `status`, and wakes them. writer_mu_ must be held.
  void AckGroupLocked(size_t group_size, const Status& status);
  /// Latches `status`, a failed WAL append or sync, into write_error_ and
  /// returns it. writer_mu_ must be held.
  Status SetWriteErrorLocked(Status status);

  /// The snapshot behind both public iterators: a copy of the memtable's
  /// [lower, upper) records merged with the pinned current Version, whose
  /// tables are pruned by prefix bloom when `prune_by_prefix` is set
  /// (`lower` is then the prefix).
  std::unique_ptr<Iterator> NewSnapshotIterator(std::string_view lower,
                                                std::string_view upper,
                                                bool prune_by_prefix) const;

  /// Acquires writer_mu_ for Flush/CompactAll, waiting out any batch whose
  /// WAL append is in flight with the mutex released — the memtable and
  /// log must not be touched until that batch has been applied.
  std::unique_lock<std::mutex> LockWriterForMaintenance();

  /// The *Locked variants require writer_mu_ held.
  Status MaybeFlushLocked();
  Status FlushLocked();
  Status CompactAllLocked();

  /// Serializes `memtable` into a new level-0 sstable file and returns a
  /// handle to it; `*bytes` gets the serialized size. writer_mu_ must be
  /// held, so the memtable is not mutated meanwhile.
  Result<std::shared_ptr<TableHandle>> BuildTableFromMemtable(
      const Memtable& memtable, size_t* bytes);
  /// Merges every table of `base` into a fresh level-1 run (tombstones
  /// dropped), writing the new files; `*bytes` gets the total written.
  /// Does not publish or write the manifest — callers do.
  Result<std::shared_ptr<Version>> BuildCompactedVersion(const Version& base,
                                                         size_t* bytes);

  /// Writes `version` plus the durability watermark (`last_seq` tag) and
  /// the current fencing epoch to the manifest. Serialized by writer_mu_
  /// (or run by the single-threaded Open). Callers must only pass a
  /// `flushed_seq` actually durable in `version`'s sstables.
  Status WriteManifest(const Version& version, uint64_t flushed_seq);
  /// Persists and adopts a higher epoch announced by the current primary
  /// (replica side; writer_mu_ held, so no flush's manifest write races
  /// this one).
  Status AdoptEpochLocked(uint64_t new_epoch);
  /// Open-time only (single-threaded).
  Status LoadManifest();
  /// Deletes files in the db directory that are neither live (manifest,
  /// WALs, referenced tables) nor quarantined — the debris of a crashed
  /// flush or compaction.
  Status RemoveOrphans();
  Result<std::shared_ptr<Table>> LoadTable(const std::string& file_name);
  std::string NewFileName();
  /// Pins the current version (shared state lock).
  std::shared_ptr<const Version> PinVersion() const;

  Env* env_;
  std::string path_;
  DbOptions options_;
  WalWriter wal_;
  std::shared_ptr<BlockCache> block_cache_;

  /// Serializes every mutation entry point: WAL appends, memtable writes,
  /// flushes, compactions and manifest writes.
  std::mutex writer_mu_;
  /// The first failed WAL append or sync, never cleared (LevelDB's
  /// bg_error_). Guarded by writer_mu_. Once set, every Write,
  /// ApplyReplicated, Flush and CompactAll returns it: the log may end in
  /// a torn frame or in pages a failed fdatasync left unwritten, which
  /// replay stops at, so anything appended or acked behind it would be
  /// lost. Reopening cuts the log back to its intact prefix.
  Status write_error_;
  /// Group-commit state, guarded by writer_mu_. The front writer is the
  /// leader; batch_in_flight_ is true while it has writer_mu_ released for
  /// the batch's WAL append, sync and commit listener — Flush/CompactAll
  /// must wait it out before touching the memtable or truncating the log,
  /// or an acked-but-unapplied batch could be lost.
  std::deque<Writer*> writers_;
  std::condition_variable writers_cv_;
  bool batch_in_flight_ = false;
  /// Guarded by writer_mu_ (or touched by the single-threaded Open).
  uint64_t next_file_number_ = 1;
  /// Highest committed sequence number; advanced only by the group-commit
  /// leader (under the in-flight window) and by ApplyReplicated, both
  /// serialized through writer_mu_. Atomic so readers/shippers can load it
  /// without the lock.
  std::atomic<uint64_t> last_sequence_{0};
  /// Highest sequence durable in sstables (== manifest `last_seq`).
  /// Written only after the manifest recording it has been persisted.
  std::atomic<uint64_t> flushed_sequence_{0};
  /// Fencing epoch; changes only under writer_mu_ (promote / epoch
  /// adoption), after the manifest persisting it succeeded.
  std::atomic<uint64_t> epoch_{1};
  /// True while in replica mode (client writes fenced).
  std::atomic<bool> replica_{false};
  /// Guarded by writer_mu_; the leader copies it to a local before
  /// releasing the mutex for the batch IO, and SetCommitListener waits out
  /// in-flight batches, so the pointee outlives every call.
  CommitListener* commit_listener_ = nullptr;

  /// Guards the reader-visible state below. Readers hold it shared only
  /// while probing the memtable and pinning current_; writers hold it
  /// exclusive only while applying a memtable edit or swapping state.
  mutable std::shared_mutex state_mu_;
  Memtable memtable_;
  std::shared_ptr<const Version> current_;

  AtomicDbStats stats_;
};

}  // namespace pstorm::storage

#endif  // PSTORM_STORAGE_DB_H_
