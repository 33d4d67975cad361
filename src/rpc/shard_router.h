#ifndef PSTORM_RPC_SHARD_ROUTER_H_
#define PSTORM_RPC_SHARD_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/pstorm.h"
#include "rpc/wire.h"

namespace pstorm::rpc {

struct ShardRouterOptions {
  /// Number of Db-backed PStorM instances the keyspace is partitioned
  /// across. Each shard roots its profile store at `<base>/shard-<i>`.
  uint32_t num_shards = 1;
  /// Routing-table split points (sorted, one fewer than shards; shard 0
  /// implicitly starts at ""). Empty = evenly spaced over the hashed
  /// keyspace. Exposed so tests can pin tenants to shards.
  std::vector<std::string> split_points;
  /// Max SubmitJob calls one tenant may have in flight before the router
  /// answers kResourceExhausted (0 = unlimited). This is the per-tenant
  /// fairness quota; the server's global in-flight bound is separate.
  uint32_t tenant_inflight_limit = 0;
  core::PStormOptions pstorm;
};

/// Range-partitions the tenant keyspace across N PStorM instances, HBase
/// style: a sorted routing table of split points, each shard owning the
/// half-open key range up to the next split. Tenants are mapped into the
/// keyspace by a fixed-width hex rendering of their hashed name, so load
/// spreads evenly without coordinated assignment; the table accepts
/// explicit split points for tests and for future manual rebalancing.
///
/// Tenancy model: a tenant is a namespace for quotas and accounting, not
/// for isolation — tenants routed to the same shard share its profile
/// store, so one tenant's stored profile can serve another's matching
/// submission. That sharing is the point of PStorM on a shared cluster
/// (thesis §1.2); billing-grade isolation would instead key the store path
/// by tenant.
///
/// Thread-safety: Create builds everything single-threaded; afterwards all
/// methods may be called concurrently (PStorM::SubmitJob is reentrant, the
/// quota table has its own mutex).
class ShardRouter {
 public:
  /// `simulator` and `env` must outlive the router.
  static Result<std::unique_ptr<ShardRouter>> Create(
      const mrsim::Simulator* simulator, storage::Env* env,
      const std::string& base_path, ShardRouterOptions options = {});

  /// Shard owning `tenant` under the routing table.
  uint32_t ShardFor(const std::string& tenant) const;

  /// The full submission workflow on the owning shard. A name in
  /// jobs::FindCatalogueJob's table is served from it, with its
  /// precomputed static features, and ignores `job_param`. The other
  /// names are built per request: `grep` and `word-cooccurrence-pairs`
  /// take `job_param` (the grep selectivity, the co-occurrence window),
  /// `word-cooccurrence-pairs-w<N>` its window from the name. Over-quota
  /// tenants get kResourceExhausted without touching the shard.
  Result<SubmitJobResponse> SubmitJob(const SubmitJobRequest& request);

  /// Stores an externally collected profile on the owning shard.
  Status PutProfile(const PutProfileRequest& request);

  /// Per-shard profile counts and submission tallies, plus the router's
  /// quota rejections. (requests_served / backpressure_rejections belong
  /// to the server and are filled in there.)
  GetStatsResponse Stats() const;

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  core::PStorM& shard(uint32_t i) { return *shards_[i]; }

  /// Fixed-width hex routing key a tenant sorts under (exposed for tests
  /// and for choosing explicit split points).
  static std::string RoutingKey(const std::string& tenant);

  /// Tenants currently holding an in-flight quota slot (exposed for tests:
  /// the table is bounded by concurrent submissions, never by the number
  /// of distinct tenant names seen).
  size_t tracked_tenants() const {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    return tenant_inflight_.size();
  }

 private:
  ShardRouter() = default;

  std::vector<std::string> split_points_;  // sorted; size() == shards-1
  std::vector<std::unique_ptr<core::PStorM>> shards_;
  uint32_t tenant_inflight_limit_ = 0;

  /// In-flight SubmitJob count per tenant; an entry exists only while its
  /// count is nonzero (tenant names are attacker-chosen, so the map must
  /// not grow with distinct names for the life of the process).
  mutable std::mutex tenants_mu_;
  std::map<std::string, uint32_t> tenant_inflight_;
  mutable uint64_t quota_rejections_ = 0;  // under tenants_mu_
  std::vector<std::unique_ptr<std::atomic<uint64_t>>> shard_submissions_;
};

}  // namespace pstorm::rpc

#endif  // PSTORM_RPC_SHARD_ROUTER_H_
