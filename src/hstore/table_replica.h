#ifndef PSTORM_HSTORE_TABLE_REPLICA_H_
#define PSTORM_HSTORE_TABLE_REPLICA_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "hstore/table.h"
#include "storage/replication.h"

namespace pstorm::hstore {

/// A warm standby of a whole HTable: one storage::ReplicaSession per
/// region, plus shipping of the TABLEMETA catalog so the follower root is
/// a complete, openable table. Region splits on the primary are picked up
/// on the next Sync() — the new region's Db bootstraps from a checkpoint
/// like any fresh follower.
///
/// Consistency model: regions ship independently, so across regions the
/// follower is only eventually consistent (exactly the guarantee a
/// row-atomic HBase table gives — nothing spans regions). Within a region
/// the follower is always a committed prefix of the primary.
///
/// TABLEMETA is shipped only once every region it lists has caught up: a
/// split landing mid-sync is synced too, and a region layout still moving
/// after 4 rounds fails the Sync and keeps the previous TABLEMETA.
/// A primary that dies mid-split can still leave the moved rows in both
/// source and target region on the follower until the next successful Sync
/// (see DESIGN.md §11 failure matrix); the row-level merge resolves
/// duplicates by timestamp, so reads stay correct.
class HTableReplica {
 public:
  /// Wires a standby rooted at `follower_root` in `follower_env` to
  /// `primary`. All pointees must outlive the replica. Performs an
  /// initial Sync so the follower is openable immediately after.
  static Result<std::unique_ptr<HTableReplica>> Open(
      HTable* primary, storage::Env* follower_env, std::string follower_root);

  ~HTableReplica();

  HTableReplica(const HTableReplica&) = delete;
  HTableReplica& operator=(const HTableReplica&) = delete;

  /// One full replication round: discover regions (including splits since
  /// the last round), catch every region's follower up to the primary,
  /// then ship the TABLEMETA those regions correspond to. Internal, with
  /// the previous TABLEMETA kept, when the region layout changed in each
  /// of 4 rounds; the next Sync picks up from there.
  Status Sync();

  /// Fences and promotes every region follower (epoch bump persisted in
  /// each region's manifest) and releases the directory: afterwards the
  /// follower root opens as a writable HTable and the deposed primary's
  /// shippers are rejected with FailedPrecondition. Never touches the
  /// primary — it may already be dead. The replica object is inert after.
  Status Promote();

  /// Sum of per-region lags (primary last_sequence - follower applied).
  uint64_t lag() const;
  /// Per-region replication counters summed over the table.
  storage::ReplicationStats stats() const;
  size_t num_regions() const;

 private:
  HTableReplica(HTable* primary, storage::Env* follower_env,
                std::string follower_root);

  Status SyncLocked();

  HTable* primary_;
  storage::Env* follower_env_;
  const std::string follower_root_;

  mutable std::mutex mu_;
  /// Keyed by region directory name ("region_<id>"). Sessions are only
  /// ever added: the primary never removes regions.
  std::map<std::string, std::unique_ptr<storage::ReplicaSession>> sessions_;
  bool promoted_ = false;
};

}  // namespace pstorm::hstore

#endif  // PSTORM_HSTORE_TABLE_REPLICA_H_
