#ifndef PSTORM_STORAGE_REPLICATION_H_
#define PSTORM_STORAGE_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

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
/// Protocol (pulled by the caller, per ship round):
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
/// Records move only when the caller runs a round (ReplicaSession::TickOnce
/// or CatchUp, HTableReplica::Sync). The primary acks its writers without
/// waiting for any standby, so on failover a standby lacks whatever the
/// primary committed after its last round.
///
/// Epoch fencing: every shipped batch carries the primary's epoch; the
/// follower persists the highest epoch it has seen in its manifest before
/// applying that epoch's records, and rejects anything older with
/// FailedPrecondition. PromoteToPrimary() bumps the epoch durably, so a
/// deposed primary (or its shipper) is fenced by every surviving replica.
///
/// Divergence: the applier remembers the frame checksum of the last 1,024
/// applied sequences; a re-shipped sequence whose checksum differs is a
/// fork of history and surfaces as Status::Corruption — never silently
/// overwritten.

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
/// of two callers racing to apply overlapping segments, the loser sees its
/// records as already-applied overlap.
class WalApplier {
 public:
  /// `follower` must outlive the applier; seeds the applied watermark from
  /// the follower's recovered last_sequence().
  explicit WalApplier(Db* follower);

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
  mutable std::mutex mu_;
  /// Ring of (sequence, frame checksum) for the last applied records,
  /// newest at the back; consecutive sequences.
  std::deque<WalRecordRef> recent_;
  std::atomic<uint64_t> overlap_records_skipped_{0};
  std::atomic<uint64_t> divergences_{0};
  std::atomic<uint64_t> fence_rejections_{0};
};

/// Pulls log segments from the primary and pushes them through a
/// WalApplier. A fetch that fails with an IoError is retried up to 5 times,
/// sleeping a jittered exponential backoff from 200 us, capped at 50 ms.
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

  /// `primary` and `applier` must outlive the shipper.
  WalShipper(Db* primary, WalApplier* applier);

  /// One fetch + apply round, at most 1,024 records.
  Result<ShipOutcome> ShipOnce();

  /// Ship rounds until the lag reads 0, no round makes progress, or a
  /// checkpoint is required (reported via the outcome, not an error).
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
  Db* primary_;
  WalApplier* applier_;
  Rng rng_;
  std::atomic<uint64_t> ship_rounds_{0};
  std::atomic<uint64_t> shipped_batches_{0};
  std::atomic<uint64_t> shipped_records_{0};
  std::atomic<uint64_t> shipped_bytes_{0};
  std::atomic<uint64_t> retries_{0};
};

/// Owns one warm-standby follower: the follower Db, its applier/shipper
/// pair, and the checkpoint bootstrap path. The standby's reads are served
/// snapshot-isolated through `replica()` exactly like any Db's.
///
/// Thread-safety: every method but replica() serializes on an internal
/// mutex.
class ReplicaSession {
 public:
  /// Opens (or re-opens, resuming from its recovered state) the follower
  /// at `follower_path` in `follower_env` with `follower_options`
  /// (`read_only_replica` is forced on) and wires it to `primary`. All
  /// three pointees must outlive the session. Bootstraps via checkpoint
  /// when the follower cannot be opened.
  static Result<std::unique_ptr<ReplicaSession>> Open(
      Db* primary, Env* follower_env, std::string follower_path,
      DbOptions follower_options = {});

  ReplicaSession(const ReplicaSession&) = delete;
  ReplicaSession& operator=(const ReplicaSession&) = delete;

  /// One ship round; transparently bootstraps from a checkpoint when the
  /// primary demands it, or first when an earlier bootstrap failed and
  /// left the session without a follower.
  Status TickOnce();

  /// Ships until the follower has caught up with the primary, bootstrapping
  /// as TickOnce does.
  Status CatchUp();

  /// Promotes the follower and releases it to the caller as a writable
  /// primary. Never touches the primary. The session is inert afterwards.
  Result<std::unique_ptr<Db>> Promote();

  /// Primary last_sequence - follower applied sequence, saturated at 0.
  /// Without a follower (a bootstrap failed) every primary record counts;
  /// after Promote, 0.
  uint64_t lag() const;
  ReplicationStats stats() const;
  /// The standby Db for snapshot-isolated reads; owned by the session.
  /// Null after Promote or a failed bootstrap.
  Db* replica() const { return follower_.get(); }

 private:
  ReplicaSession(Db* primary, Env* follower_env, std::string follower_path,
                 DbOptions follower_options);

  /// Installs `follower` and a fresh applier/shipper pair over it.
  void AttachLocked(std::unique_ptr<Db> follower);
  /// Checkpoint the primary, install on the follower's directory, reopen,
  /// and attach. The old follower is closed before the install; if the
  /// install or the reopen fails the session has no follower until the
  /// next round bootstraps again. Requires session_mu_ held.
  Status BootstrapLocked();
  /// FailedPrecondition once promoted; bootstraps a missing follower.
  Status PrepareRoundLocked();

  Db* primary_;
  Env* follower_env_;
  const std::string follower_path_;
  const DbOptions follower_options_;

  mutable std::mutex session_mu_;
  std::unique_ptr<Db> follower_;
  std::unique_ptr<WalApplier> applier_;
  std::unique_ptr<WalShipper> shipper_;
  bool promoted_ = false;
  uint64_t checkpoint_ships_ = 0;
  uint64_t checkpoint_retry_count_ = 0;
  /// Counters folded in from shipper/applier/follower instances retired by
  /// a bootstrap, so stats() is cumulative across rebuilds.
  ReplicationStats base_;
};

}  // namespace pstorm::storage

#endif  // PSTORM_STORAGE_REPLICATION_H_
