#include "hstore/table_replica.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/metrics.h"

namespace pstorm::hstore {

namespace {

/// Rounds Sync() runs while the primary's region layout keeps changing
/// under it before giving up for this call.
constexpr int kMaxMetaRefreshRounds = 4;

bool SameRegions(const HTable::ReplicationSnapshot& a,
                 const HTable::ReplicationSnapshot& b) {
  return std::equal(a.regions.begin(), a.regions.end(), b.regions.begin(),
                    b.regions.end(), [](const auto& x, const auto& y) {
                      return x.dir_name == y.dir_name;
                    });
}

obs::Counter& TableMetaShips() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_hstore_replica_meta_ships_total");
  return c;
}

}  // namespace

HTableReplica::HTableReplica(HTable* primary, storage::Env* follower_env,
                             std::string follower_root)
    : primary_(primary),
      follower_env_(follower_env),
      follower_root_(std::move(follower_root)) {}

HTableReplica::~HTableReplica() = default;

Result<std::unique_ptr<HTableReplica>> HTableReplica::Open(
    HTable* primary, storage::Env* follower_env, std::string follower_root) {
  PSTORM_CHECK(primary != nullptr);
  PSTORM_CHECK(follower_env != nullptr);
  auto replica = std::unique_ptr<HTableReplica>(
      new HTableReplica(primary, follower_env, std::move(follower_root)));
  PSTORM_RETURN_IF_ERROR(
      follower_env->CreateDir(replica->follower_root_));
  PSTORM_RETURN_IF_ERROR(replica->Sync());
  return replica;
}

Status HTableReplica::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (promoted_) {
    return Status::FailedPrecondition("htable replica already promoted");
  }
  return SyncLocked();
}

Status HTableReplica::SyncLocked() {
  // A split can land between snapshotting the region list and finishing
  // the per-region catch-up. Then the snapshot's meta lacks the new
  // region, so re-snapshot and sync again while the layout keeps moving,
  // bounded so a split storm cannot wedge the caller. Only a snapshot
  // whose every region has caught up is shipped.
  HTable::ReplicationSnapshot snap = primary_->GetReplicationSnapshot();
  for (int round = 0; round < kMaxMetaRefreshRounds; ++round) {
    for (const auto& region : snap.regions) {
      auto it = sessions_.find(region.dir_name);
      if (it == sessions_.end()) {
        PSTORM_ASSIGN_OR_RETURN(
            auto session,
            storage::ReplicaSession::Open(
                region.db, follower_env_,
                storage::JoinPath(follower_root_, region.dir_name)));
        it = sessions_.emplace(region.dir_name, std::move(session)).first;
      }
      PSTORM_RETURN_IF_ERROR(it->second->CatchUp());
    }
    HTable::ReplicationSnapshot after = primary_->GetReplicationSnapshot();
    if (SameRegions(snap, after)) {
      // Every region the meta lists has a caught-up session, so the
      // follower root is openable the moment this lands. WriteFile is
      // atomic, so a crash here leaves the previous meta intact.
      PSTORM_RETURN_IF_ERROR(follower_env_->WriteFile(
          storage::JoinPath(follower_root_, "TABLEMETA"), snap.table_meta));
      TableMetaShips().Increment();
      return Status::OK();
    }
    snap = std::move(after);
  }
  return Status::Internal(
      "htable replica: region layout changed in every sync round; previous "
      "TABLEMETA kept");
}

Status HTableReplica::Promote() {
  std::lock_guard<std::mutex> lock(mu_);
  if (promoted_) {
    return Status::FailedPrecondition("htable replica already promoted");
  }
  if (sessions_.empty()) {
    return Status::FailedPrecondition(
        "htable replica has no regions to promote");
  }
  // Promote every region: each bumps its epoch durably and hands back the
  // now-writable Db, which we close immediately — the caller reopens the
  // follower root as a normal HTable. Deliberately no primary contact.
  for (auto& [dir_name, session] : sessions_) {
    auto promoted = session->Promote();
    if (!promoted.ok()) {
      return Status(promoted.status().code(),
                    "promote " + dir_name + ": " +
                        std::string(promoted.status().message()));
    }
    // The unique_ptr<Db> goes out of scope here: clean close, WAL intact.
  }
  sessions_.clear();
  promoted_ = true;
  PSTORM_LOG(Info) << "htable replica " << follower_root_
                   << ": promoted to primary";
  return Status::OK();
}

uint64_t HTableReplica::lag() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [_, session] : sessions_) total += session->lag();
  return total;
}

storage::ReplicationStats HTableReplica::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  storage::ReplicationStats total;
  for (const auto& [_, session] : sessions_) {
    const storage::ReplicationStats s = session->stats();
    total.ship_rounds += s.ship_rounds;
    total.shipped_batches += s.shipped_batches;
    total.shipped_records += s.shipped_records;
    total.shipped_bytes += s.shipped_bytes;
    total.checkpoint_ships += s.checkpoint_ships;
    total.applied_batches += s.applied_batches;
    total.applied_records += s.applied_records;
    total.overlap_records_skipped += s.overlap_records_skipped;
    total.retries += s.retries;
    total.fence_rejections += s.fence_rejections;
    total.divergences += s.divergences;
  }
  return total;
}

size_t HTableReplica::num_regions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace pstorm::hstore
