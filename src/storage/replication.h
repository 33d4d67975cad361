#ifndef PSTORM_STORAGE_REPLICATION_H_
#define PSTORM_STORAGE_REPLICATION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/db.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace pstorm::storage {

/// WAL-shipping replication: a primary Db streams its framed, CRC-verified,
/// sequence-numbered log records to a warm-standby follower Db that replays
/// them into its own WAL + memtable — the primary/mirror shape of
/// PostgreSQL/Greenplum WAL replication, scaled to this repo's
/// whole-file-Env world.
///
/// Protocol (pull-based, per ship round):
///   1. The shipper asks the primary for records after the follower's last
///      applied sequence (Db::FetchWalSince). The primary answers with a
///      byte-identical segment of its log, or with `need_checkpoint` when a
///      flush already truncated those records away.
///   2. The applier hands the segment to the follower's ApplyReplicated:
///      epoch-fenced, contiguity-checked, appended verbatim to the
///      follower's WAL, applied to its memtable.
///   3. On `need_checkpoint`, the session bootstraps: Db::Checkpoint() on
///      the primary (consistent pinned-Version snapshot + WAL tail),
///      Db::InstallCheckpoint on the follower's directory, reopen.
///
/// Epoch fencing: every shipped batch carries the primary's epoch; the
/// follower persists the highest epoch it has seen in its manifest before
/// applying that epoch's records, and rejects anything older with
/// FailedPrecondition. PromoteToPrimary() bumps the epoch durably, so a
/// deposed primary (or its shipper) is fenced by every surviving replica.
///
/// Divergence: the applier remembers the frame checksum of recently applied
/// sequences; a re-shipped sequence whose checksum differs is a fork of
/// history and surfaces as Status::Corruption — never silently overwritten.
///
/// Sync vs async:
///   * Async (default): ShipOnce/CatchUp/StartTailing move records after
///     commit; `max_lag_records` bounds how far the follower may trail.
///   * Sync: a Db::CommitListener forwards every committed batch to the
///     applier before the primary's writers are acked (ack-before-commit
///     from the client's perspective). See ReplicaSession::EnableSyncCommit
///     for the ordering rules that make this deadlock-free.

enum class ReplicationMode {
  kAsync,
  kSync,
};

/// Interruptible stop latch for retry/backoff and polling loops: Stop()
/// wakes every waiter immediately and makes all later waits return without
/// sleeping, so teardown never rides out a jittered backoff (which can be
/// retry_backoff_max_micros long). Reset() re-arms the latch for reuse
/// (e.g. StartTailing after a StopTailing).
class StopLatch {
 public:
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped_ = true;
    }
    cv_.notify_all();
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = false;
  }

  /// Sleeps up to `micros`; returns true when the latch stopped (callers
  /// abandon their retry loop instead of finishing the wait).
  bool WaitFor(uint64_t micros) const {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::microseconds(micros),
                        [this] { return stopped_; });
  }

  bool stopped() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stopped_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool stopped_ = false;
};

struct ReplicationOptions {
  ReplicationMode mode = ReplicationMode::kAsync;
  /// Largest number of records one ship round moves (bounds memory and the
  /// follower's per-batch apply latency).
  size_t max_batch_records = 1024;
  /// Async mode: CatchUp() keeps shipping until the follower trails the
  /// primary by at most this many records.
  uint64_t max_lag_records = 0;
  /// Transient-IoError retry policy for the shipping loop: up to
  /// `max_retries` attempts with jittered exponential backoff from
  /// `retry_backoff_micros`, capped at `retry_backoff_max_micros`.
  int max_retries = 5;
  uint64_t retry_backoff_micros = 200;
  uint64_t retry_backoff_max_micros = 50000;
  uint64_t retry_seed = 0;
  /// How many recently applied (sequence, checksum) pairs the applier keeps
  /// for divergence detection on overlapping re-ships.
  size_t divergence_window = 1024;
};

struct ReplicationStats {
  uint64_t ship_rounds = 0;
  uint64_t shipped_batches = 0;
  uint64_t shipped_records = 0;
  uint64_t shipped_bytes = 0;
  uint64_t checkpoint_ships = 0;
  uint64_t applied_batches = 0;
  uint64_t applied_records = 0;
  /// Re-shipped records that were already applied (verified identical by
  /// checksum, then skipped).
  uint64_t overlap_records_skipped = 0;
  uint64_t retries = 0;
  uint64_t fence_rejections = 0;
  uint64_t divergences = 0;
};

/// Applies shipped segments to a follower Db, tracking what has been
/// applied and guarding against forks. Thread-safe (one internal mutex):
/// the sync-commit forwarder and an async CatchUp may race, and the loser
/// of the race sees its records as already-applied overlap.
class WalApplier {
 public:
  /// `follower` must outlive the applier; seeds the applied watermark from
  /// the follower's recovered last_sequence().
  explicit WalApplier(Db* follower, size_t divergence_window = 1024);

  /// Applies the segment (epoch-fenced through Db::ApplyReplicated).
  /// Overlapping prefixes — sequences at or below the applied watermark —
  /// are checksum-verified against the divergence ring and skipped;
  /// a mismatch is Status::Corruption ("replication fork"). A gap (first
  /// shipped sequence beyond watermark+1) is InvalidArgument: the caller
  /// re-fetches further back or bootstraps.
  Status Apply(uint64_t primary_epoch, const WalSegment& segment);

  /// Highest sequence applied to the follower.
  uint64_t applied_sequence() const;
  uint64_t overlap_records_skipped() const;
  uint64_t divergences() const;
  uint64_t fence_rejections() const;
  Db* follower() const { return follower_; }

 private:
  Db* follower_;
  const size_t divergence_window_;
  mutable std::mutex mu_;
  /// Ring of (sequence, frame checksum) for the last `divergence_window_`
  /// applied records, newest at the back; consecutive sequences.
  std::deque<WalRecordRef> recent_;
  std::atomic<uint64_t> overlap_records_skipped_{0};
  std::atomic<uint64_t> divergences_{0};
  std::atomic<uint64_t> fence_rejections_{0};
};

/// Pulls log segments from the primary and pushes them through a
/// WalApplier, with bounded retry on transient (IoError) fetch failures.
/// Not internally synchronized: callers (ReplicaSession) serialize ship
/// rounds.
class WalShipper {
 public:
  struct ShipOutcome {
    /// Records moved this round (0 = follower already caught up).
    uint64_t shipped_records = 0;
    /// Set when the primary demanded a checkpoint bootstrap; nothing was
    /// shipped and the session must rebuild the follower.
    bool need_checkpoint = false;
    /// Primary last_sequence - follower applied_sequence after the round.
    uint64_t lag = 0;
  };

  /// `primary` and `applier` must outlive the shipper. `stop` (optional)
  /// is the latch the retry backoff waits on; when null the shipper uses
  /// an internal one. An external latch lets one owner (ReplicaSession)
  /// fence every loop it spawned with a single Stop(), without touching
  /// shipper instances that a concurrent bootstrap may be replacing.
  WalShipper(Db* primary, WalApplier* applier,
             const ReplicationOptions& options, StopLatch* stop = nullptr);

  /// Interrupts any in-flight retry backoff: the current ShipOnce/CatchUp
  /// returns promptly (with the last fetch error) instead of sleeping out
  /// the rest of its jittered backoff window — teardown must never block
  /// for up to retry_backoff_max_micros. Safe from any thread. Stops the
  /// external latch when one was supplied.
  void RequestStop() { stop_->Stop(); }

  /// One fetch + apply round, at most options.max_batch_records records.
  Result<ShipOutcome> ShipOnce();

  /// Ship rounds until lag <= options.max_lag_records or a checkpoint is
  /// required (reported via the outcome, not an error).
  Result<ShipOutcome> CatchUp();

  /// The counters are written by the shipping thread and may be read from
  /// any other.
  uint64_t ship_rounds() const {
    return ship_rounds_.load(std::memory_order_relaxed);
  }
  uint64_t shipped_batches() const {
    return shipped_batches_.load(std::memory_order_relaxed);
  }
  uint64_t shipped_records() const {
    return shipped_records_.load(std::memory_order_relaxed);
  }
  uint64_t shipped_bytes() const {
    return shipped_bytes_.load(std::memory_order_relaxed);
  }
  uint64_t retries() const { return retries_.load(std::memory_order_relaxed); }

 private:
  /// FetchWalSince with the retry/backoff schedule applied to IoErrors.
  Result<Db::ShipBatch> FetchWithRetries(uint64_t from_sequence);

  Db* primary_;
  WalApplier* applier_;
  ReplicationOptions options_;
  /// Backing latch when the constructor got none.
  StopLatch own_stop_;
  /// The latch backoffs wait on: external when supplied, else &own_stop_.
  StopLatch* stop_;
  Rng rng_;
  std::atomic<uint64_t> ship_rounds_{0};
  std::atomic<uint64_t> shipped_batches_{0};
  std::atomic<uint64_t> shipped_records_{0};
  std::atomic<uint64_t> shipped_bytes_{0};
  std::atomic<uint64_t> retries_{0};
};

/// Owns one warm-standby follower: the follower Db, its applier/shipper
/// pair, optional sync-commit forwarding, optional background tailing, and
/// the checkpoint bootstrap path. The standby's reads are served
/// snapshot-isolated through `replica()` exactly like any Db's.
///
/// Thread-safety: TickOnce/CatchUp/Promote/Enable*/Stop* serialize on an
/// internal mutex. The sync-commit forwarder deliberately does NOT take
/// that mutex (it runs inside the primary's commit path — see
/// EnableSyncCommit) and talks only to the applier, which has its own lock.
class ReplicaSession {
 public:
  struct Options {
    /// Follower Db knobs; `read_only_replica` is forced on.
    DbOptions follower_db;
    ReplicationOptions replication;
  };

  /// Opens (or re-opens, resuming from its recovered state) the follower
  /// at `follower_path` in `follower_env` and wires it to `primary`. All
  /// three pointees must outlive the session. Bootstraps via checkpoint
  /// on first contact if the follower is behind the primary's log.
  static Result<std::unique_ptr<ReplicaSession>> Open(
      Db* primary, Env* follower_env, std::string follower_path,
      Options options = {});

  /// Stops tailing and unregisters any sync-commit listener.
  ~ReplicaSession();

  ReplicaSession(const ReplicaSession&) = delete;
  ReplicaSession& operator=(const ReplicaSession&) = delete;

  /// One ship round; transparently bootstraps from a checkpoint when the
  /// primary demands it. The building block of the tailing loop.
  Status TickOnce();

  /// Ships until the follower is within max_lag_records of the primary.
  Status CatchUp();

  /// Forces a fresh checkpoint bootstrap (divergence recovery).
  Status Rebootstrap();

  /// Registers a Db::CommitListener on the primary that forwards every
  /// committed batch to this follower before writers are acked. Any gap
  /// between the follower's state and the primary's log is healed with a
  /// CatchUp *after* registration (listener first, so no batch is missed;
  /// an interleaved batch that arrives gapped fails that writer once with
  /// InvalidArgument and is healed by the next TickOnce/CatchUp).
  Status EnableSyncCommit();
  /// Unregisters the listener (waits out in-flight batches).
  Status DisableSyncCommit();

  /// Spawns a thread calling TickOnce every `poll_micros` until stopped.
  /// Ship errors are remembered (last_tail_error) and retried next tick.
  void StartTailing(uint64_t poll_micros);
  /// Stops the tail thread promptly: the poll sleep and any in-flight
  /// retry backoff (fetch or checkpoint) are condition-variable waits on
  /// the session's stop latch, so StopTailing returns in milliseconds even
  /// mid-backoff instead of riding out retry_backoff_max_micros.
  void StopTailing();

  /// Fences this session (stop tailing, drop the sync listener), promotes
  /// the follower, and releases it to the caller as a writable primary.
  /// The session is inert afterwards.
  Result<std::unique_ptr<Db>> Promote();

  /// Primary last_sequence - follower applied sequence, saturated at 0.
  uint64_t lag() const;
  ReplicationStats stats() const;
  /// The standby Db for snapshot-isolated reads; owned by the session.
  Db* replica() const { return follower_.get(); }
  Status last_tail_error() const;

 private:
  ReplicaSession(Db* primary, Env* follower_env, std::string follower_path,
                 Options options);

  /// Forwards committed batches straight into the applier. Runs on the
  /// primary's commit path with writer_mu_ released but the batch in
  /// flight: it must not call into the primary's write/maintenance API or
  /// take session_mu_ (ShipOnce holds session_mu_ while FetchWalSince
  /// waits out in-flight batches — taking it here would deadlock).
  class SyncForwarder : public Db::CommitListener {
   public:
    explicit SyncForwarder(WalApplier* applier) : applier_(applier) {}
    Status OnCommit(uint64_t epoch, const WalSegment& batch) override {
      return applier_->Apply(epoch, batch);
    }

   private:
    WalApplier* applier_;
  };

  /// Checkpoint the primary, install on the follower's directory, reopen,
  /// and rewire applier/shipper (and the sync listener, if enabled).
  /// Requires session_mu_ held.
  Status BootstrapLocked();
  Status TickLocked();

  Db* primary_;
  Env* follower_env_;
  const std::string follower_path_;
  Options options_;

  mutable std::mutex session_mu_;
  std::unique_ptr<Db> follower_;
  std::unique_ptr<WalApplier> applier_;
  std::unique_ptr<WalShipper> shipper_;
  std::unique_ptr<SyncForwarder> forwarder_;
  bool sync_enabled_ = false;
  uint64_t checkpoint_ships_ = 0;
  uint64_t checkpoint_retry_count_ = 0;
  /// Counters folded in from shipper/applier/follower instances retired by
  /// a bootstrap, so stats() is cumulative across rebuilds.
  ReplicationStats base_;
  Status last_tail_error_;

  std::thread tail_thread_;
  std::atomic<bool> tailing_{false};
  /// Interrupts the tail loop's poll sleep and every backoff sleep in the
  /// shipper/bootstrap retry loops (the shippers are constructed over this
  /// latch). Re-armed by StartTailing.
  StopLatch stop_latch_;
};

}  // namespace pstorm::storage

#endif  // PSTORM_STORAGE_REPLICATION_H_
