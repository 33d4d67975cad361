#include "core/profile_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "common/logging.h"
#include "common/statistics.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "staticanalysis/cfg_matcher.h"

namespace pstorm::core {

namespace {

obs::Counter& EntryCacheHits() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_store_entry_cache_hits_total");
  return c;
}
obs::Counter& EntryCacheMisses() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_store_entry_cache_misses_total");
  return c;
}
/// Decoded entries cached across every open store (the cache has no
/// capacity yet, so this is its footprint).
obs::Gauge& EntryCacheEntries() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "pstorm_store_entry_cache_entries");
  return g;
}

constexpr char kFamily[] = "F";
constexpr char kDynamicPrefix[] = "Dynamic/";
constexpr char kStaticPrefix[] = "Static/";
constexpr char kPayloadPrefix[] = "Payload/";
constexpr char kBoundsRow[] = "Meta/bounds";
constexpr char kInputBytesColumn[] = "INPUT_BYTES";
constexpr char kProfileColumn[] = "PROFILE";
constexpr char kMapCfgColumn[] = "MAP_CFG";
constexpr char kRedCfgColumn[] = "RED_CFG";
constexpr char kUserParamsColumn[] = "USER_PARAMS";
constexpr char kMapCallsColumn[] = "MAP_CALLS";
constexpr char kRedCallsColumn[] = "RED_CALLS";

std::string EncodeDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool DecodeDouble(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

/// Reads the named numeric columns of a row into a vector; false when any
/// column is missing or malformed.
bool ReadColumns(const hstore::RowResult& row,
                 const std::vector<std::string>& names,
                 std::vector<double>* out) {
  out->clear();
  out->reserve(names.size());
  for (const std::string& name : names) {
    const std::string* raw = row.GetValue(kFamily, name);
    double v;
    if (raw == nullptr || !DecodeDouble(*raw, &v)) return false;
    out->push_back(v);
  }
  return true;
}

/// Server-side filter implementing stage 1 of Figure 4.4: normalized
/// Euclidean distance over dynamic features (or the cost-factor
/// alternative).
class EuclideanFilter final : public hstore::RowFilter {
 public:
  EuclideanFilter(std::vector<std::string> columns,
                  std::vector<double> normalized_probe, FeatureBounds bounds,
                  double theta)
      : columns_(std::move(columns)),
        normalized_probe_(std::move(normalized_probe)),
        bounds_(std::move(bounds)),
        theta_(theta) {}

  bool Matches(const hstore::RowResult& row) const override {
    std::vector<double> values;
    if (!ReadColumns(row, columns_, &values)) return false;
    const std::vector<double> normalized = bounds_.Normalize(values);
    return EuclideanDistance(normalized, normalized_probe_) <= theta_;
  }

  std::string Describe() const override {
    return "euclidean(dim=" + std::to_string(columns_.size()) +
           ", theta=" + FormatDouble(theta_, 3) + ")";
  }

 private:
  std::vector<std::string> columns_;
  std::vector<double> normalized_probe_;
  FeatureBounds bounds_;
  double theta_;
};

/// Server-side CFG filter: conservative structural match against the
/// probe's CFG (stage 2).
class CfgFilter final : public hstore::RowFilter {
 public:
  CfgFilter(std::string column, staticanalysis::Cfg probe)
      : column_(std::move(column)), probe_(std::move(probe)) {}

  bool Matches(const hstore::RowResult& row) const override {
    const std::string* raw = row.GetValue(kFamily, column_);
    if (raw == nullptr) return false;
    auto cfg = staticanalysis::ParseCfg(*raw);
    if (!cfg.ok()) return false;
    return staticanalysis::MatchCfgs(probe_, cfg.value());
  }

  std::string Describe() const override { return "cfg-match(" + column_ + ")"; }

 private:
  std::string column_;
  staticanalysis::Cfg probe_;
};

/// Server-side Jaccard filter over the categorical features (stage 3).
class JaccardFilter final : public hstore::RowFilter {
 public:
  JaccardFilter(std::vector<std::string> columns,
                std::vector<std::string> probe, double theta)
      : columns_(std::move(columns)), probe_(std::move(probe)),
        theta_(theta) {}

  bool Matches(const hstore::RowResult& row) const override {
    std::vector<std::string> values;
    values.reserve(columns_.size());
    for (const std::string& name : columns_) {
      const std::string* raw = row.GetValue(kFamily, name);
      if (raw == nullptr) return false;
      values.push_back(*raw);
    }
    return PositionalJaccard(values, probe_) >= theta_;
  }

  std::string Describe() const override {
    return "jaccard(theta=" + FormatDouble(theta_, 2) + ")";
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::string> probe_;
  double theta_;
};

std::vector<std::string> KeysFromRows(
    const std::vector<hstore::RowResult>& rows, const std::string& prefix) {
  std::vector<std::string> keys;
  keys.reserve(rows.size());
  for (const hstore::RowResult& row : rows) {
    keys.push_back(row.row().substr(prefix.size()));
  }
  return keys;
}

/// A scan of exactly the rows under `prefix`: [prefix, prefix with its last
/// byte incremented). Every prefix here ends in '/', so the increment
/// never carries.
hstore::ScanSpec PrefixRange(const std::string& prefix) {
  hstore::ScanSpec spec;
  spec.start_row = prefix;
  spec.stop_row = prefix;
  ++spec.stop_row.back();
  return spec;
}

/// The keys of `candidates` whose Static row passes `filter`, in key
/// order: the row-filter oracle of the matcher's stages 2-3.
Result<std::vector<std::string>> StaticScan(
    const hstore::HTable& table, const std::vector<std::string>& candidates,
    std::shared_ptr<const hstore::RowFilter> filter) {
  hstore::ScanSpec spec = PrefixRange(kStaticPrefix);
  spec.filter = std::move(filter);
  PSTORM_ASSIGN_OR_RETURN(auto rows, table.Scan(spec));
  const std::unordered_set<std::string> wanted(candidates.begin(),
                                               candidates.end());
  std::vector<std::string> out;
  for (std::string& key : KeysFromRows(rows, kStaticPrefix)) {
    if (wanted.count(key) > 0) out.push_back(std::move(key));
  }
  return out;
}

}  // namespace

const std::vector<std::string>& DynamicColumnNames(Side side) {
  static const auto* kMap = new std::vector<std::string>{
      "MAP_SIZE_SEL", "MAP_PAIRS_SEL", "COMBINE_SIZE_SEL",
      "COMBINE_PAIRS_SEL"};
  static const auto* kReduce =
      new std::vector<std::string>{"RED_SIZE_SEL", "RED_PAIRS_SEL"};
  return side == Side::kMap ? *kMap : *kReduce;
}

const std::vector<std::string>& CostColumnNames(Side side) {
  static const auto* kMap = new std::vector<std::string>{
      "M_READ_HDFS_IO_COST", "M_READ_LOCAL_IO_COST", "M_WRITE_LOCAL_IO_COST",
      "M_MAP_CPU_COST", "M_COMBINE_CPU_COST"};
  static const auto* kReduce = new std::vector<std::string>{
      "R_WRITE_HDFS_IO_COST", "R_READ_LOCAL_IO_COST",
      "R_WRITE_LOCAL_IO_COST", "R_REDUCE_CPU_COST"};
  return side == Side::kMap ? *kMap : *kReduce;
}

const std::vector<std::string>& StaticColumnNames(Side side) {
  static const auto* kMap = new std::vector<std::string>{
      "IN_FORMATTER", "MAPPER",      "MAP_IN_KEY", "MAP_IN_VAL",
      "MAP_OUT_KEY",  "MAP_OUT_VAL", "COMBINER"};
  static const auto* kReduce = new std::vector<std::string>{
      "REDUCER", "RED_OUT_KEY", "RED_OUT_VAL", "OUT_FORMATTER"};
  return side == Side::kMap ? *kMap : *kReduce;
}

std::vector<double> FeatureBounds::Normalize(
    const std::vector<double>& values) const {
  PSTORM_CHECK(values.size() == mins.size());
  // The degenerate-range guard lives in EffectiveRanges: with few stored
  // profiles a feature's observed spread can be tiny (e.g. local-IO cost
  // varying by 5% across a handful of jobs); dividing a noisy probe by
  // that sliver would let a near-constant feature dominate the distance.
  // Sharing the helper keeps this scalar path and the index's vectorized
  // kernels arithmetically identical.
  const std::vector<double> ranges = EffectiveRanges(mins, maxs);
  std::vector<double> out;
  out.reserve(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    out.push_back((values[i] - mins[i]) / ranges[i]);
  }
  return out;
}

ProfileStore::ProfileStore(std::unique_ptr<hstore::HTable> table,
                           ProfileStoreOptions options)
    : table_(std::move(table)),
      options_(std::move(options)),
      index_(MatchIndex::Spec{DynamicColumnNames(Side::kMap).size(),
                              CostColumnNames(Side::kMap).size(),
                              DynamicColumnNames(Side::kReduce).size(),
                              CostColumnNames(Side::kReduce).size()}) {}

ProfileStore::~ProfileStore() {
  EntryCacheEntries().Add(-static_cast<int64_t>(entry_cache_size()));
}

Result<std::unique_ptr<ProfileStore>> ProfileStore::Open(
    storage::Env* env, std::string path, ProfileStoreOptions options) {
  hstore::TableSchema schema;
  schema.name = "Jobs";
  schema.families = {kFamily};
  PSTORM_ASSIGN_OR_RETURN(
      auto table,
      hstore::HTable::Open(env, std::move(path), schema, options.table));
  auto store = std::unique_ptr<ProfileStore>(
      new ProfileStore(std::move(table), std::move(options)));
  // Corrupt metadata degrades to an empty-looking store instead of failing
  // the open: the matcher then returns No Match Found and PStorM falls
  // back to run-untuned + re-profile (the paper's own cold path), which
  // re-populates everything lost. Bounds only ever widen, so starting them
  // empty is always safe.
  if (Status s = store->LoadBounds(); !s.ok()) {
    if (!s.IsCorruption()) return s;
    PSTORM_LOG(Warning) << "profile store: resetting corrupt normalization "
                        << "bounds: " << s.ToString();
    store->bounds_.clear();
    ++store->recovery_stats_.bounds_resets;
    obs::MetricsRegistry::Global()
        .GetCounter("pstorm_store_bounds_resets_total")
        .Increment();
  }
  if (Status s = store->RecountProfiles(); !s.ok()) {
    if (!s.IsCorruption()) return s;
    PSTORM_LOG(Warning) << "profile store: profile count unavailable under "
                        << "corruption: " << s.ToString();
    store->num_profiles_ = 0;
    ++store->recovery_stats_.count_resets;
    obs::MetricsRegistry::Global()
        .GetCounter("pstorm_store_count_resets_total")
        .Increment();
  }
  if (Status s = store->RebuildMatchIndex(); !s.ok()) {
    // The rule of the recount above: the store serves from an empty index
    // that later puts fill, so profiles stored from now on still match.
    if (!s.IsCorruption()) return s;
    PSTORM_LOG(Warning) << "profile store: match index rebuild failed under "
                        << "corruption, serving from an empty index: "
                        << s.ToString();
    obs::MetricsRegistry::Global()
        .GetCounter("pstorm_match_index_rebuild_failures_total")
        .Increment();
  }
  return store;
}

Status ProfileStore::RebuildMatchIndex() {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  PSTORM_ASSIGN_OR_RETURN(auto rows,
                          table_->Scan(PrefixRange(kDynamicPrefix)));
  std::unique_lock<std::shared_mutex> index_lock(index_mu_);
  index_.Clear();
  for (const hstore::RowResult& row : rows) {
    const std::string key = row.row().substr(sizeof(kDynamicPrefix) - 1);
    // Each vector is indexed independently: a row with one malformed
    // column set still gets its healthy vectors indexed, mirroring how
    // the exhaustive filters judge each scanned vector on its own.
    std::vector<double> map_dynamic, map_costs, reduce_dynamic, reduce_costs;
    if (!ReadColumns(row, DynamicColumnNames(Side::kMap), &map_dynamic)) {
      map_dynamic.clear();
    }
    if (!ReadColumns(row, CostColumnNames(Side::kMap), &map_costs)) {
      map_costs.clear();
    }
    if (!ReadColumns(row, DynamicColumnNames(Side::kReduce),
                     &reduce_dynamic)) {
      reduce_dynamic.clear();
    }
    if (!ReadColumns(row, CostColumnNames(Side::kReduce), &reduce_costs)) {
      reduce_costs.clear();
    }
    index_.Put(key, map_dynamic, map_costs, reduce_dynamic, reduce_costs);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("pstorm_match_index_rebuilds_total")
      .Increment();
  obs::MetricsRegistry::Global()
      .GetCounter("pstorm_match_index_rebuilt_entries_total")
      .Add(rows.size());
  return Status::OK();
}

Status ProfileStore::RecountProfiles() {
  PSTORM_ASSIGN_OR_RETURN(auto rows,
                          table_->Scan(PrefixRange(kPayloadPrefix)));
  num_profiles_ = rows.size();
  profile_keys_.clear();
  profile_keys_.reserve(rows.size());
  for (const hstore::RowResult& row : rows) {
    profile_keys_.insert(row.row().substr(sizeof(kPayloadPrefix) - 1));
  }
  profile_keys_authoritative_ = true;
  return Status::OK();
}

size_t ProfileStore::ShardIndex(const std::string& job_key) {
  return std::hash<std::string>{}(job_key) % kCacheShards;
}

ProfileStore::CacheShard& ProfileStore::ShardFor(
    const std::string& job_key) const {
  return entry_cache_[ShardIndex(job_key)];
}

void ProfileStore::InvalidateEntry(const std::string& job_key) {
  CacheShard& shard = ShardFor(job_key);
  std::unique_lock<std::shared_mutex> lock(shard.mu);
  EntryCacheEntries().Add(-static_cast<int64_t>(shard.map.erase(job_key)));
  ++shard.epoch;
}

void ProfileStore::WidenLocked(const std::string& feature, double value) {
  auto it = bounds_.find(feature);
  if (it == bounds_.end()) {
    bounds_[feature] = {value, value};
  } else {
    it->second.first = std::min(it->second.first, value);
    it->second.second = std::max(it->second.second, value);
  }
}

Status ProfileStore::SaveBounds() {
  hstore::PutOp put(kBoundsRow);
  {
    std::shared_lock<std::shared_mutex> lock(bounds_mu_);
    for (const auto& [feature, minmax] : bounds_) {
      put.Add(kFamily, feature + ".min", EncodeDouble(minmax.first));
      put.Add(kFamily, feature + ".max", EncodeDouble(minmax.second));
    }
  }
  return table_->Put(put);
}

Status ProfileStore::LoadBounds() {
  auto row = table_->Get(kBoundsRow);
  if (!row.ok()) {
    if (row.status().IsNotFound()) return Status::OK();  // Fresh store.
    return row.status();
  }
  for (const auto& [qualifier, raw] : row->FamilyMap(kFamily)) {
    double v;
    if (!DecodeDouble(raw, &v)) return Status::Corruption("bad bounds value");
    if (EndsWith(qualifier, ".min")) {
      const std::string feature = qualifier.substr(0, qualifier.size() - 4);
      bounds_[feature].first = v;
    } else if (EndsWith(qualifier, ".max")) {
      const std::string feature = qualifier.substr(0, qualifier.size() - 4);
      bounds_[feature].second = v;
    } else {
      return Status::Corruption("bad bounds column: " + qualifier);
    }
  }
  return Status::OK();
}

Status ProfileStore::PutProfile(
    const std::string& job_key, const profiler::ExecutionProfile& profile,
    const staticanalysis::StaticFeatures& statics) {
  if (job_key.empty()) return Status::InvalidArgument("empty job key");
  if (job_key.find('/') != std::string::npos) {
    return Status::InvalidArgument("job key must not contain '/'");
  }
  std::lock_guard<std::mutex> write_lock(write_mu_);
  // Cache rule: a put invalidates exactly the decoded entry it replaces.
  InvalidateEntry(job_key);
  const bool existed = profile_keys_authoritative_
                           ? profile_keys_.count(job_key) > 0
                           : table_->Get(kPayloadPrefix + job_key).ok();

  // Row publication order matters under concurrency: a candidate is
  // discovered through its Dynamic row (by the region scans, and by the
  // index, which is updated after it) and then its Static and Payload rows
  // are fetched, so the Dynamic row is written LAST. A concurrent matcher
  // either does not see the in-flight profile at all, or sees it with all
  // three rows already in place — never a dangling candidate.

  // Dynamic row: the numeric features the matcher filters on. Built (and
  // the bounds widened) first, published last.
  hstore::PutOp dynamic_put(kDynamicPrefix + job_key);
  {
    hstore::PutOp& put = dynamic_put;
    std::unique_lock<std::shared_mutex> bounds_lock(bounds_mu_);
    const auto add_side = [&](Side side, const std::vector<double>& dynamic,
                              const std::vector<double>& costs) {
      const auto& dyn_names = DynamicColumnNames(side);
      const auto& cost_names = CostColumnNames(side);
      PSTORM_CHECK(dynamic.size() == dyn_names.size());
      PSTORM_CHECK(costs.size() == cost_names.size());
      for (size_t i = 0; i < dynamic.size(); ++i) {
        put.Add(kFamily, dyn_names[i], EncodeDouble(dynamic[i]));
        WidenLocked(dyn_names[i], dynamic[i]);
      }
      for (size_t i = 0; i < costs.size(); ++i) {
        put.Add(kFamily, cost_names[i], EncodeDouble(costs[i]));
        WidenLocked(cost_names[i], costs[i]);
      }
    };
    add_side(Side::kMap, profile.map_side.DynamicVector(),
             profile.map_side.CostVector());
    add_side(Side::kReduce, profile.reduce_side.DynamicVector(),
             profile.reduce_side.CostVector());
    bounds_lock.unlock();
    put.Add(kFamily, kInputBytesColumn,
            EncodeDouble(profile.input_data_bytes));
  }

  // Static row: categorical features + CFGs.
  {
    hstore::PutOp put(kStaticPrefix + job_key);
    const auto map_names = StaticColumnNames(Side::kMap);
    const auto map_values = statics.MapCategorical();
    PSTORM_CHECK(map_values.size() == map_names.size());
    for (size_t i = 0; i < map_names.size(); ++i) {
      put.Add(kFamily, map_names[i], map_values[i]);
    }
    const auto red_names = StaticColumnNames(Side::kReduce);
    const auto red_values = statics.ReduceCategorical();
    PSTORM_CHECK(red_values.size() == red_names.size());
    for (size_t i = 0; i < red_names.size(); ++i) {
      put.Add(kFamily, red_names[i], red_values[i]);
    }
    put.Add(kFamily, kMapCfgColumn,
            staticanalysis::SerializeCfg(statics.map_cfg));
    put.Add(kFamily, kRedCfgColumn,
            staticanalysis::SerializeCfg(statics.reduce_cfg));
    // §7.2 extension columns — added to an existing feature type without
    // any schema change, as the data model promises.
    put.Add(kFamily, kUserParamsColumn, statics.user_params);
    put.Add(kFamily, kMapCallsColumn, StrJoin(statics.map_calls, ","));
    put.Add(kFamily, kRedCallsColumn, StrJoin(statics.reduce_calls, ","));
    PSTORM_RETURN_IF_ERROR(table_->Put(put, options_.eager_flush));
  }

  // Payload row: the complete profile blob handed to the CBO on a match.
  {
    hstore::PutOp put(kPayloadPrefix + job_key);
    put.Add(kFamily, kProfileColumn, profile.Serialize());
    PSTORM_RETURN_IF_ERROR(table_->Put(put, options_.eager_flush));
  }

  // The widened bounds are durable before the profile is discoverable:
  // every row write is synced before it returns, so no crash can leave a
  // published Dynamic row outside the persisted Meta/bounds. Bulk loaders
  // opt out of both the bounds row and the syncs, and save the bounds and
  // the table once, in Flush(): the rewrite is ~30 columns per put and
  // each sync an fdatasync, pure cost at corpus-load scale.
  if (options_.eager_flush) PSTORM_RETURN_IF_ERROR(SaveBounds());

  // Publish: the Dynamic row makes the profile discoverable.
  PSTORM_RETURN_IF_ERROR(table_->Put(dynamic_put, options_.eager_flush));

  // Index maintenance rides immediately on publication — before anything
  // below can fail — so on every exit the index agrees with the table's
  // Dynamic rows.
  {
    std::unique_lock<std::shared_mutex> index_lock(index_mu_);
    IndexPutLocked(job_key, profile);
  }

  // Second invalidation, now that the rows are written: a reader that was
  // decoding mid-put may have stitched old and new rows together; the
  // epoch bump keeps that hybrid out of the cache.
  InvalidateEntry(job_key);
  if (!existed) num_profiles_.fetch_add(1, std::memory_order_relaxed);
  profile_keys_.insert(job_key);
  static obs::Counter& puts = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_store_put_profiles_total");
  puts.Increment();
  return Status::OK();
}

Result<StoredEntry> ProfileStore::GetEntry(const std::string& job_key) const {
  PSTORM_ASSIGN_OR_RETURN(std::shared_ptr<const StoredEntry> entry,
                          GetEntryRef(job_key));
  return *entry;
}

size_t ProfileStore::entry_cache_size() const {
  size_t total = 0;
  for (CacheShard& shard : entry_cache_) {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    total += shard.map.size();
  }
  return total;
}

Result<std::shared_ptr<const StoredEntry>> ProfileStore::GetEntryRef(
    const std::string& job_key, bool* cache_hit) const {
  if (cache_hit != nullptr) *cache_hit = false;
  CacheShard& shard = ShardFor(job_key);
  uint64_t epoch_at_miss;
  {
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    auto it = shard.map.find(job_key);
    if (it != shard.map.end()) {
      EntryCacheHits().Increment();
      if (cache_hit != nullptr) *cache_hit = true;
      return it->second;
    }
    epoch_at_miss = shard.epoch;
  }
  EntryCacheMisses().Increment();

  StoredEntry entry;
  entry.job_key = job_key;

  PSTORM_ASSIGN_OR_RETURN(hstore::RowResult payload,
                          table_->Get(kPayloadPrefix + job_key));
  const std::string* blob = payload.GetValue(kFamily, kProfileColumn);
  if (blob == nullptr) return Status::Corruption("payload row lacks profile");
  PSTORM_ASSIGN_OR_RETURN(entry.profile,
                          profiler::ExecutionProfile::Parse(*blob));

  PSTORM_ASSIGN_OR_RETURN(hstore::RowResult statics,
                          table_->Get(kStaticPrefix + job_key));
  auto read_string = [&](const std::string& column,
                         std::string* out) -> Status {
    const std::string* raw = statics.GetValue(kFamily, column);
    if (raw == nullptr) {
      return Status::Corruption("static row lacks " + column);
    }
    *out = *raw;
    return Status::OK();
  };
  auto& f = entry.statics;
  PSTORM_RETURN_IF_ERROR(read_string("IN_FORMATTER", &f.in_formatter));
  PSTORM_RETURN_IF_ERROR(read_string("MAPPER", &f.mapper));
  PSTORM_RETURN_IF_ERROR(read_string("MAP_IN_KEY", &f.map_in_key));
  PSTORM_RETURN_IF_ERROR(read_string("MAP_IN_VAL", &f.map_in_val));
  PSTORM_RETURN_IF_ERROR(read_string("MAP_OUT_KEY", &f.map_out_key));
  PSTORM_RETURN_IF_ERROR(read_string("MAP_OUT_VAL", &f.map_out_val));
  PSTORM_RETURN_IF_ERROR(read_string("COMBINER", &f.combiner));
  PSTORM_RETURN_IF_ERROR(read_string("REDUCER", &f.reducer));
  PSTORM_RETURN_IF_ERROR(read_string("RED_OUT_KEY", &f.red_out_key));
  PSTORM_RETURN_IF_ERROR(read_string("RED_OUT_VAL", &f.red_out_val));
  PSTORM_RETURN_IF_ERROR(read_string("OUT_FORMATTER", &f.out_formatter));
  std::string cfg_text;
  PSTORM_RETURN_IF_ERROR(read_string(kMapCfgColumn, &cfg_text));
  PSTORM_ASSIGN_OR_RETURN(f.map_cfg, staticanalysis::ParseCfg(cfg_text));
  PSTORM_RETURN_IF_ERROR(read_string(kRedCfgColumn, &cfg_text));
  PSTORM_ASSIGN_OR_RETURN(f.reduce_cfg, staticanalysis::ParseCfg(cfg_text));
  entry.map_cfg_key = staticanalysis::CfgMatchKey(f.map_cfg);
  entry.reduce_cfg_key = staticanalysis::CfgMatchKey(f.reduce_cfg);
  // Extension columns: absent in stores written before §7.2 support.
  if (const std::string* raw = statics.GetValue(kFamily, kUserParamsColumn)) {
    f.user_params = *raw;
    entry.has_user_params = true;
  }
  auto read_calls = [&](const char* column, std::vector<std::string>* out) {
    const std::string* raw = statics.GetValue(kFamily, column);
    if (raw == nullptr) return false;
    if (!raw->empty()) *out = StrSplit(*raw, ',');
    return true;
  };
  entry.has_map_calls = read_calls(kMapCallsColumn, &f.map_calls);
  entry.has_reduce_calls = read_calls(kRedCallsColumn, &f.reduce_calls);

  // Not make_shared: PStorM's recommendation memo keeps weak_ptrs to
  // entries, and a weak_ptr to a make_shared object would keep the whole
  // ~1 KB allocation alive after the entry dies, not just its control
  // block.
  std::shared_ptr<const StoredEntry> shared(
      new StoredEntry(std::move(entry)));
  {
    std::unique_lock<std::shared_mutex> lock(shard.mu);
    // Only cache what no mutation invalidated while we were decoding; a
    // racing reader's copy is still correct to *return* (it reflects some
    // point-in-time state) but must not outlive the invalidation.
    if (shard.epoch == epoch_at_miss &&
        shard.map.emplace(job_key, shared).second) {
      EntryCacheEntries().Add(1);
    }
  }
  return shared;
}

Status ProfileStore::VisitEntries(
    const std::vector<std::string>& keys,
    const std::function<bool(const StoredEntry&)>& pred,
    EntryVisit* visit) const {
  *visit = EntryVisit{};
  const uint32_t n = static_cast<uint32_t>(keys.size());
  std::array<std::vector<uint32_t>, kCacheShards> by_shard;
  for (uint32_t i = 0; i < n; ++i) by_shard[ShardIndex(keys[i])].push_back(i);

  // Per position: whether the entry was found, and its input size. Only
  // the entries that pass `pred` are shared out of the cache.
  std::vector<char> found(n, 0);
  std::vector<double> input_bytes(n);
  std::vector<std::pair<uint32_t, std::shared_ptr<const StoredEntry>>> passed;
  std::vector<uint32_t> misses;
  const auto take = [&](uint32_t i,
                        const std::shared_ptr<const StoredEntry>& entry) {
    found[i] = 1;
    input_bytes[i] = entry->profile.input_data_bytes;
    if (pred(*entry)) passed.emplace_back(i, entry);
  };
  for (size_t s = 0; s < kCacheShards; ++s) {
    if (by_shard[s].empty()) continue;
    CacheShard& shard = entry_cache_[s];
    std::shared_lock<std::shared_mutex> lock(shard.mu);
    for (uint32_t i : by_shard[s]) {
      auto it = shard.map.find(keys[i]);
      if (it == shard.map.end()) {
        misses.push_back(i);
      } else {
        take(i, it->second);
      }
    }
  }
  visit->cache_hits = n - misses.size();
  EntryCacheHits().Add(visit->cache_hits);
  for (uint32_t i : misses) {
    bool cache_hit = false;
    auto entry = GetEntryRef(keys[i], &cache_hit);
    ++(cache_hit ? visit->cache_hits : visit->cache_misses);
    if (entry.ok()) {
      take(i, entry.value());
    } else if (entry.status().IsCorruption()) {
      ++visit->corrupt;
    } else if (!entry.status().IsNotFound()) {
      return entry.status();
    }
  }

  std::sort(passed.begin(), passed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  visit->passed.reserve(passed.size());
  visit->passed_at.reserve(passed.size());
  for (auto& [i, entry] : passed) {
    visit->passed_at.push_back(i);
    visit->passed.push_back(std::move(entry));
  }
  for (uint32_t i = 0; i < n; ++i) {
    if (!found[i]) continue;
    visit->found.push_back(i);
    visit->input_bytes.push_back(input_bytes[i]);
  }
  return Status::OK();
}

Status ProfileStore::DeleteProfile(const std::string& job_key) {
  std::lock_guard<std::mutex> write_lock(write_mu_);
  InvalidateEntry(job_key);
  const bool existed = profile_keys_authoritative_
                           ? profile_keys_.count(job_key) > 0
                           : table_->Get(kPayloadPrefix + job_key).ok();
  PSTORM_RETURN_IF_ERROR(table_->DeleteRow(kDynamicPrefix + job_key));
  // The Dynamic row is gone, so the profile is undiscoverable; drop it
  // from the index before the remaining rows disappear.
  {
    std::unique_lock<std::shared_mutex> index_lock(index_mu_);
    index_.Delete(job_key);
    static obs::Counter& deletes = obs::MetricsRegistry::Global().GetCounter(
        "pstorm_match_index_deletes_total");
    deletes.Increment();
  }
  PSTORM_RETURN_IF_ERROR(table_->DeleteRow(kStaticPrefix + job_key));
  PSTORM_RETURN_IF_ERROR(table_->DeleteRow(kPayloadPrefix + job_key));
  // Second invalidation (see PutProfile): evict anything a concurrent
  // reader cached from the rows that were just deleted.
  InvalidateEntry(job_key);
  if (existed && num_profiles_.load(std::memory_order_relaxed) > 0) {
    num_profiles_.fetch_sub(1, std::memory_order_relaxed);
  }
  profile_keys_.erase(job_key);
  return Status::OK();
}

Result<std::vector<std::string>> ProfileStore::ListJobKeys() const {
  PSTORM_ASSIGN_OR_RETURN(auto rows,
                          table_->Scan(PrefixRange(kPayloadPrefix)));
  return KeysFromRows(rows, kPayloadPrefix);
}

FeatureBounds ProfileStore::DynamicBounds(Side side) const {
  FeatureBounds out;
  std::shared_lock<std::shared_mutex> lock(bounds_mu_);
  for (const std::string& name : DynamicColumnNames(side)) {
    auto it = bounds_.find(name);
    out.mins.push_back(it == bounds_.end() ? 0.0 : it->second.first);
    out.maxs.push_back(it == bounds_.end() ? 0.0 : it->second.second);
  }
  return out;
}

FeatureBounds ProfileStore::CostBounds(Side side) const {
  FeatureBounds out;
  std::shared_lock<std::shared_mutex> lock(bounds_mu_);
  for (const std::string& name : CostColumnNames(side)) {
    auto it = bounds_.find(name);
    out.mins.push_back(it == bounds_.end() ? 0.0 : it->second.first);
    out.maxs.push_back(it == bounds_.end() ? 0.0 : it->second.second);
  }
  return out;
}

void ProfileStore::IndexPutLocked(const std::string& job_key,
                                  const profiler::ExecutionProfile& profile) {
  // The in-memory doubles and the %.17g-encoded table columns round-trip
  // bit-exactly, so the incrementally maintained index and one rebuilt
  // from the rows are identical (the crash tests assert exactly this).
  index_.Put(job_key, profile.map_side.DynamicVector(),
             profile.map_side.CostVector(),
             profile.reduce_side.DynamicVector(),
             profile.reduce_side.CostVector());
  static obs::Counter& puts = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_match_index_puts_total");
  puts.Increment();
}

size_t ProfileStore::match_index_size(Side side) const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return index_.size(static_cast<int>(side));
}

std::vector<std::pair<std::string, std::vector<double>>>
ProfileStore::MatchIndexDynamicSnapshot(Side side) const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return index_.dynamic_space(static_cast<int>(side)).Snapshot();
}

std::vector<std::pair<std::string, std::vector<double>>>
ProfileStore::MatchIndexCostSnapshot(Side side) const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return index_.cost_space(static_cast<int>(side)).Snapshot();
}

std::vector<std::string> ProfileStore::EuclideanCandidates(
    Side side, Space space, const std::vector<double>& probe, double theta,
    VectorSpaceIndex::QueryStats* stats,
    std::vector<double>* distances) const {
  const bool dynamic = space == Space::kDynamic;
  const FeatureBounds bounds = dynamic ? DynamicBounds(side) : CostBounds(side);
  const std::vector<double> ranges = EffectiveRanges(bounds.mins, bounds.maxs);
  VectorSpaceIndex::QueryStats local;
  VectorSpaceIndex::QueryStats& q = stats != nullptr ? *stats : local;
  const int s = static_cast<int>(side);
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  auto out = (dynamic ? index_.dynamic_space(s) : index_.cost_space(s))
                 .Lookup(probe, theta, bounds.mins, ranges, &q, distances);
  lock.unlock();
  static obs::Counter& lookups = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_match_index_lookups_total");
  static obs::Counter& candidates = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_match_index_candidates_total");
  static obs::Counter& pruned = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_match_index_pruned_cells_total");
  lookups.Increment();
  candidates.Add(q.candidates_enumerated);
  pruned.Add(q.cells_pruned);
  return out;
}

Result<std::vector<std::string>> ProfileStore::DynamicEuclideanScan(
    Side side, const std::vector<double>& probe, double theta,
    bool server_side, hstore::ScanStats* stats) const {
  const FeatureBounds bounds = DynamicBounds(side);
  hstore::ScanSpec spec;
  std::vector<std::shared_ptr<const hstore::RowFilter>> filters = {
      std::make_shared<hstore::PrefixFilter>(kDynamicPrefix),
      std::make_shared<EuclideanFilter>(DynamicColumnNames(side),
                                        bounds.Normalize(probe), bounds,
                                        theta),
  };
  spec.filter = std::make_shared<hstore::AndFilter>(std::move(filters));
  spec.server_side_filtering = server_side;
  PSTORM_ASSIGN_OR_RETURN(auto rows, table_->Scan(spec, stats));
  return KeysFromRows(rows, kDynamicPrefix);
}

Result<std::vector<std::string>> ProfileStore::CostEuclideanScan(
    Side side, const std::vector<double>& probe, double theta,
    bool server_side, hstore::ScanStats* stats) const {
  const FeatureBounds bounds = CostBounds(side);
  hstore::ScanSpec spec;
  std::vector<std::shared_ptr<const hstore::RowFilter>> filters = {
      std::make_shared<hstore::PrefixFilter>(kDynamicPrefix),
      std::make_shared<EuclideanFilter>(CostColumnNames(side),
                                        bounds.Normalize(probe), bounds,
                                        theta),
  };
  spec.filter = std::make_shared<hstore::AndFilter>(std::move(filters));
  spec.server_side_filtering = server_side;
  PSTORM_ASSIGN_OR_RETURN(auto rows, table_->Scan(spec, stats));
  return KeysFromRows(rows, kDynamicPrefix);
}

Result<std::vector<std::string>> ProfileStore::CfgMatchScan(
    Side side, const staticanalysis::Cfg& probe_cfg,
    const std::vector<std::string>& candidates) const {
  return StaticScan(
      *table_, candidates,
      std::make_shared<CfgFilter>(
          side == Side::kMap ? kMapCfgColumn : kRedCfgColumn, probe_cfg));
}

Result<std::vector<std::string>> ProfileStore::JaccardScan(
    Side side, const std::vector<std::string>& probe, double theta,
    const std::vector<std::string>& candidates,
    bool include_user_params) const {
  std::vector<std::string> columns = StaticColumnNames(side);
  if (include_user_params) columns.push_back(kUserParamsColumn);
  return StaticScan(
      *table_, candidates,
      std::make_shared<JaccardFilter>(std::move(columns), probe, theta));
}

Result<std::vector<std::string>> ProfileStore::CallSetScan(
    Side side, const std::vector<std::string>& probe_calls,
    const std::vector<std::string>& candidates) const {
  const char* column =
      side == Side::kMap ? kMapCallsColumn : kRedCallsColumn;
  return StaticScan(*table_, candidates,
                    std::make_shared<hstore::ColumnValueFilter>(
                        kFamily, column, hstore::CompareOp::kEqual,
                        StrJoin(probe_calls, ",")));
}

Result<double> ProfileStore::InputDataBytes(const std::string& job_key) const {
  PSTORM_ASSIGN_OR_RETURN(hstore::RowResult row,
                          table_->Get(kDynamicPrefix + job_key));
  const std::string* raw = row.GetValue(kFamily, kInputBytesColumn);
  double v;
  if (raw == nullptr || !DecodeDouble(*raw, &v)) {
    return Status::Corruption("missing input bytes for " + job_key);
  }
  return v;
}

}  // namespace pstorm::core
