#ifndef PSTORM_CORE_PROFILE_STORE_H_
#define PSTORM_CORE_PROFILE_STORE_H_

#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/match_index.h"
#include "hstore/table.h"
#include "profiler/profile.h"
#include "staticanalysis/features.h"
#include "storage/env.h"

namespace pstorm::core {

/// Which half of the job a store operation concerns (the matching
/// workflow of Figure 4.4 runs once per side).
enum class Side { kMap, kReduce };

/// Which vector a Euclidean filter compares: the Table 4.1 dynamic
/// statistics (stage 1 of Figure 4.4) or the Table 4.2 cost factors (the
/// alternative filter).
enum class Space { kDynamic, kCost };

/// One stored job: its complete execution profile and static features.
struct StoredEntry {
  std::string job_key;
  profiler::ExecutionProfile profile;
  staticanalysis::StaticFeatures statics;
  /// staticanalysis::CfgMatchKey of each side's CFG under the default
  /// options, computed at decode: the matcher's CFG stage compares these.
  std::string map_cfg_key;
  std::string reduce_cfg_key;
  /// Whether the Static row carries each §7.2 extension column. Rows
  /// written before that support lack them; `statics` then reads them as
  /// empty, and the matcher's call-set and user-parameter stages reject
  /// the entry, as the row filters reject the row.
  bool has_user_params = false;
  bool has_map_calls = false;
  bool has_reduce_calls = false;
};

/// Min/max observed per feature, maintained incrementally as profiles are
/// added (thesis §4.2): the store normalizes features to [0,1] with these
/// bounds at matching time.
struct FeatureBounds {
  std::vector<double> mins;
  std::vector<double> maxs;

  /// (v - min) / (max - min) per dimension; a constant dimension maps
  /// to 0.
  std::vector<double> Normalize(const std::vector<double>& values) const;
};

/// Store-level configuration: the backing table's options plus the ingest
/// knob. Implicitly constructible from bare HTableOptions so call sites
/// that only configure the table keep working.
struct ProfileStoreOptions {
  ProfileStoreOptions() = default;
  // NOLINTNEXTLINE(google-explicit-constructor)
  ProfileStoreOptions(hstore::HTableOptions table_options)
      : table(std::move(table_options)) {}

  /// The backing hstore table (region split size, read-only mode, the
  /// region Dbs' options, ...).
  hstore::HTableOptions table;

  /// Make every PutProfile durable before it returns: each of its rows is
  /// one synced WAL batch, and the widened normalization bounds are
  /// persisted before the profile becomes discoverable, so a store
  /// reopened after any crash or power loss holds every acked profile and
  /// normalizes every stored vector inside its bounds. (The name is
  /// historical: no put flushes the table.) Bulk loaders turn this off and
  /// call Flush() themselves once per batch: their puts skip the bounds
  /// row and the syncs, so they survive a process crash, and a power loss
  /// once that Flush() returns.
  bool eager_flush = true;
};

/// PStorM's profile store: the Table 5.1 HBase data model on the hstore
/// layer. Row keys are "<FeatureType>/<job key>" — feature type as a
/// row-key prefix rather than a column family, so new feature types can be
/// added without schema surgery (HBase forbids new column families after
/// creation, §5.1):
///
///   Dynamic/<job>  data-flow statistics + cost factors + input size
///   Static/<job>   Table 4.3 categorical features + both CFGs
///   Payload/<job>  the serialized complete execution profile
///   Meta/bounds    per-feature min/max for normalization
///
/// One column family ("F") holds everything, with per-row column sets.
///
/// Thread-safety contract: all methods may be called concurrently from any
/// number of threads. Reads go straight to the (thread-safe) table plus a
/// sharded decoded-entry cache; mutations (PutProfile/DeleteProfile)
/// additionally serialize on an internal write mutex so the multi-row
/// writes of one profile are never interleaved with another's and the
/// profile count stays exact. Normalization bounds and the match index are
/// read under shared locks; bounds only ever widen.
class ProfileStore {
 public:
  /// `options` configures the backing table. Open rebuilds the match index
  /// from the table's Dynamic rows. An error in that rebuild fails the
  /// open, except a Corruption: that is logged, counted in
  /// pstorm_match_index_rebuild_failures_total, and the store serves from
  /// an empty index that later puts fill.
  static Result<std::unique_ptr<ProfileStore>> Open(
      storage::Env* env, std::string path, ProfileStoreOptions options = {});

  ~ProfileStore();

  /// Inserts or replaces the profile of `job_key` and updates the
  /// normalization bounds. On OK the profile is durable: each of its rows
  /// is one synced WAL batch (with eager_flush off, durable against a
  /// power loss only once Flush() returns).
  Status PutProfile(const std::string& job_key,
                    const profiler::ExecutionProfile& profile,
                    const staticanalysis::StaticFeatures& statics);

  /// Loads one stored job; NotFound if absent.
  Result<StoredEntry> GetEntry(const std::string& job_key) const;

  /// Like GetEntry but shares the store's decoded-entry cache: repeated
  /// reads of the same rows (the match stitch, a VisitEntries miss) skip
  /// re-deserializing the payload blob and re-parsing both CFGs.
  /// The returned entry is immutable and stays valid after invalidation.
  /// Cache rule: an entry is invalidated by the PutProfile or
  /// DeleteProfile of its own job key, and by nothing else.
  /// `cache_hit` (optional) reports whether the decoded-entry cache served
  /// the request; corrupt or missing rows leave it false.
  Result<std::shared_ptr<const StoredEntry>> GetEntryRef(
      const std::string& job_key, bool* cache_hit = nullptr) const;

  /// What VisitEntries saw of a key list.
  struct EntryVisit {
    /// Positions in the key list of the keys whose entry was found, cached
    /// or decoded, ascending; and each one's profile.input_data_bytes.
    std::vector<uint32_t> found;
    std::vector<double> input_bytes;
    /// The found entries that passed the predicate, in key order, and
    /// their positions in the key list.
    std::vector<std::shared_ptr<const StoredEntry>> passed;
    std::vector<uint32_t> passed_at;
    /// Keys served from the decoded-entry cache, and the rest.
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    /// Keys whose rows failed to decode (a Corruption).
    uint64_t corrupt = 0;
  };

  /// One pass over the entries of `keys` (unique; the results keep their
  /// order): the matcher's stages 2-3 over the stage-1 survivors. Takes
  /// each cache shard's lock once, shared, and runs `pred` on each cached
  /// entry in place under it, so `pred` must not call back into the
  /// store; an uncached key is decoded through GetEntryRef. A key that is
  /// gone (NotFound) or whose rows fail to decode is skipped; any other
  /// error is returned.
  Status VisitEntries(const std::vector<std::string>& keys,
                      const std::function<bool(const StoredEntry&)>& pred,
                      EntryVisit* visit) const;

  /// Decoded entries currently cached (tests/diagnostics). The
  /// pstorm_store_entry_cache_entries gauge sums this over every open
  /// store.
  size_t entry_cache_size() const;

  /// Removes a job's rows (idempotent). Bounds are left as-is (they only
  /// ever widen, which keeps normalization stable).
  Status DeleteProfile(const std::string& job_key);

  /// All stored job keys, sorted.
  Result<std::vector<std::string>> ListJobKeys() const;

  size_t num_profiles() const {
    return num_profiles_.load(std::memory_order_relaxed);
  }

  /// Normalization bounds of the side's dynamic-feature vector.
  FeatureBounds DynamicBounds(Side side) const;
  /// Normalization bounds of the side's cost-factor vector.
  FeatureBounds CostBounds(Side side) const;

  /// The Euclidean filters of Figure 4.4, served by the in-memory match
  /// index (DESIGN.md §13): job keys whose normalized side vector in
  /// `space` lies within Euclidean distance `theta` of `probe`, sorted.
  /// Stage 1 uses kDynamic; the alternative filter uses kCost. Returns
  /// exactly what DynamicEuclideanScan / CostEuclideanScan return, but
  /// enumerates only the cells near the probe (dynamic space) and
  /// verifies the candidates with the vectorized kernel instead of
  /// scanning every Dynamic row. `distances` (optional) receives each
  /// returned key's normalized distance, the value the matcher's
  /// tie-break computes for it under the same bounds.
  std::vector<std::string> EuclideanCandidates(
      Side side, Space space, const std::vector<double>& probe, double theta,
      VectorSpaceIndex::QueryStats* stats = nullptr,
      std::vector<double>* distances = nullptr) const;

  /// The same filters as region scans pushed down to the regions, the
  /// thesis's own plan (§5.3). They serve as the differential oracle of
  /// EuclideanCandidates in tests and, with `server_side=false` (every
  /// row shipped to the client first), as the §5.3 ablation.
  Result<std::vector<std::string>> DynamicEuclideanScan(
      Side side, const std::vector<double>& probe, double theta,
      bool server_side = true, hstore::ScanStats* stats = nullptr) const;
  Result<std::vector<std::string>> CostEuclideanScan(
      Side side, const std::vector<double>& probe, double theta,
      bool server_side = true, hstore::ScanStats* stats = nullptr) const;

  /// Profiles currently in the side's dynamic index space
  /// (tests/diagnostics).
  size_t match_index_size(Side side) const;

  /// (job key, raw vector) of every member of the side's dynamic / cost
  /// index space, sorted by key. The index's cell structure is a pure
  /// function of these values, so snapshot equality implies index
  /// equality — the crash tests compare the incrementally-maintained
  /// index against a fresh rebuild with this.
  std::vector<std::pair<std::string, std::vector<double>>>
  MatchIndexDynamicSnapshot(Side side) const;
  std::vector<std::pair<std::string, std::vector<double>>>
  MatchIndexCostSnapshot(Side side) const;

  /// Drops and rebuilds the match index from the table's Dynamic rows
  /// (what Open does). Rows that are unreadable or malformed are skipped —
  /// exactly the rows the exhaustive filters reject — so the rebuilt index
  /// stays equivalent to the scans even over a store degraded by
  /// quarantine. On error the index is left as it was.
  Status RebuildMatchIndex();

  /// Persists the normalization bounds and flushes the backing table: the
  /// end of a bulk load with eager_flush off, whose puts skip the bounds
  /// row and the WAL syncs. No put under eager_flush needs it for
  /// durability.
  Status Flush() {
    PSTORM_RETURN_IF_ERROR(SaveBounds());
    return table_->Flush();
  }

  // Row-filter forms of the matcher's stages 2-3: one pushed-down scan of
  // the Static/ rows, restricted to `candidates`, in key order. The
  // matcher runs these stages on decoded entries instead (DESIGN.md §13);
  // these scans are its differential oracle in tests.

  /// Stage-2 filter: of `candidates`, the job keys whose stored side-CFG
  /// structurally matches `probe_cfg`.
  Result<std::vector<std::string>> CfgMatchScan(
      Side side, const staticanalysis::Cfg& probe_cfg,
      const std::vector<std::string>& candidates) const;

  /// Stage-3 filter: of `candidates`, the job keys whose side categorical
  /// features have Jaccard index >= `theta` against `probe`. When
  /// `include_user_params` is set, the canonicalized user-parameter
  /// string joins the categorical vector on both sides (the §7.2.1
  /// extension) — `probe` must then carry it as its last element.
  Result<std::vector<std::string>> JaccardScan(
      Side side, const std::vector<std::string>& probe, double theta,
      const std::vector<std::string>& candidates,
      bool include_user_params = false) const;

  /// §7.2.2 call-flow filter: of `candidates`, the job keys whose stored
  /// side call set equals `probe_calls` exactly (conservative, like the
  /// CFG filter).
  Result<std::vector<std::string>> CallSetScan(
      Side side, const std::vector<std::string>& probe_calls,
      const std::vector<std::string>& candidates) const;

  /// Input data size stored for a job (the tie-break feature).
  Result<double> InputDataBytes(const std::string& job_key) const;

  /// The .META.-style region catalog entries of the backing table.
  std::vector<std::string> MetaEntries() const { return table_->MetaEntries(); }

  /// The backing table, for wiring an hstore::HTableReplica to this store
  /// (the replica ships the table's WAL; the store stays oblivious).
  /// Owned by the store; valid for the store's lifetime.
  hstore::HTable* table() const { return table_.get(); }

  /// Storage counters summed over the backing table's regions. After a
  /// reopen over damaged files this is where quarantined-sstable and
  /// WAL-recovery counts surface (the observability half of the graceful-
  /// degradation contract: corruption costs stored profiles, never an
  /// error out of SubmitJob).
  storage::DbStats StorageStats() const { return table_->AggregatedDbStats(); }

  /// Regions of the backing table that were unreadable at open and came
  /// back empty.
  const std::vector<std::string>& RegionOpenErrors() const {
    return table_->region_open_errors();
  }

  /// Metadata degradations Open performed on this store (each is also
  /// counted in the global metrics registry). Like region_open_errors,
  /// immutable after Open.
  struct RecoveryStats {
    /// Corrupt Meta/bounds row reset to empty (bounds re-widen from puts).
    uint64_t bounds_resets = 0;
    /// Profile count unavailable under corruption, reset to 0 until the
    /// next successful recount.
    uint64_t count_resets = 0;
  };
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

 private:
  ProfileStore(std::unique_ptr<hstore::HTable> table,
               ProfileStoreOptions options);

  Status LoadBounds();
  /// Requires bounds_mu_ NOT held (takes it shared itself).
  Status SaveBounds();
  /// Requires bounds_mu_ held exclusively.
  void WidenLocked(const std::string& feature, double value);
  Status RecountProfiles();

  /// One stripe of the decoded-entry cache. The mutex guards the map and
  /// epoch: shared for reads, exclusive to insert or invalidate; the
  /// entries themselves are immutable shared values. The epoch
  /// advances on every invalidation, so a reader that decoded its entry
  /// before a concurrent mutation can tell its copy is stale and skip
  /// caching it (coherence: the cache never outlives an invalidation).
  struct CacheShard {
    std::shared_mutex mu;
    uint64_t epoch = 0;
    std::unordered_map<std::string, std::shared_ptr<const StoredEntry>> map;
  };
  static size_t ShardIndex(const std::string& job_key);
  CacheShard& ShardFor(const std::string& job_key) const;
  /// Drops `job_key`'s decoded entry and advances its shard's epoch.
  void InvalidateEntry(const std::string& job_key);

  /// Requires index_mu_ held exclusively (or the single-threaded open).
  void IndexPutLocked(const std::string& job_key,
                      const profiler::ExecutionProfile& profile);

  std::unique_ptr<hstore::HTable> table_;
  const ProfileStoreOptions options_;

  /// Serializes mutations (PutProfile/DeleteProfile). Lock order:
  /// write_mu_ → bounds_mu_ → a cache-shard mutex (readers take only the
  /// latter two, each alone).
  std::mutex write_mu_;

  /// Guards bounds_: shared for the Bounds accessors and SaveBounds,
  /// exclusive for WidenLocked (and the single-threaded open).
  mutable std::shared_mutex bounds_mu_;
  /// feature name -> (min, max) observed.
  std::map<std::string, std::pair<double, double>> bounds_;

  std::atomic<size_t> num_profiles_{0};

  /// Stored job keys, mirrored from the table's Payload rows: loaded by
  /// RecountProfiles at Open, maintained by PutProfile/DeleteProfile.
  /// Turns the per-mutation existence check into a hash probe instead of
  /// a table Get (which opens a merging iterator over every sstable — the
  /// dominant cost of bulk loads). Only touched under write_mu_ (or the
  /// single-threaded Open). When the open-time recount failed under
  /// corruption the mirror is not authoritative and existence checks fall
  /// back to the table.
  std::unordered_set<std::string> profile_keys_;
  bool profile_keys_authoritative_ = false;

  RecoveryStats recovery_stats_;  // Written only during Open.

  /// Decoded-entry cache behind GetEntryRef, sharded by job-key hash so
  /// concurrent matcher probes of different keys don't contend. Mutations
  /// erase the affected key from its shard — see the cache rule on
  /// GetEntryRef.
  static constexpr size_t kCacheShards = 16;
  mutable std::array<CacheShard, kCacheShards> entry_cache_;

  /// The match index, rebuilt at Open and maintained by every put and
  /// delete. Guarded by index_mu_: exclusive for maintenance (under
  /// write_mu_, extending the lock order to write_mu_ → index_mu_), shared
  /// for lookups.
  mutable std::shared_mutex index_mu_;
  MatchIndex index_;
};

/// Column names of the side's dynamic features / cost factors, in vector
/// order (exposed for the pushdown filters and tests).
const std::vector<std::string>& DynamicColumnNames(Side side);
const std::vector<std::string>& CostColumnNames(Side side);
const std::vector<std::string>& StaticColumnNames(Side side);

}  // namespace pstorm::core

#endif  // PSTORM_CORE_PROFILE_STORE_H_
