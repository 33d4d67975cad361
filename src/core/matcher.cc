#include "core/matcher.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "staticanalysis/cfg_matcher.h"

namespace pstorm::core {

namespace {

void RecordEntryGet(bool cache_hit, obs::StoreOpsTrace* t) {
  if (t == nullptr) return;
  ++t->entry_gets;
  ++(cache_hit ? t->entry_cache_hits : t->entry_cache_misses);
}

using EntryRef = std::shared_ptr<const StoredEntry>;

/// PositionalJaccard of `probe` against `fields`, compared in place. A
/// probe one longer than `fields` carries the user-parameter string
/// (§7.2.1) in its last slot, compared against `user_params`.
template <size_t N>
double FieldsJaccard(const std::array<const std::string*, N>& fields,
                     const std::string& user_params,
                     const std::vector<std::string>& probe) {
  const bool with_params = probe.size() == N + 1;
  PSTORM_CHECK(with_params || probe.size() == N);
  size_t matches = 0;
  for (size_t i = 0; i < N; ++i) matches += *fields[i] == probe[i];
  if (with_params) matches += user_params == probe[N];
  return static_cast<double>(matches) / static_cast<double>(probe.size());
}

/// The positional Jaccard of `probe` against the entry's side categorical
/// features (Table 4.3 order), plus its user parameters when `probe`
/// carries them.
double EntryJaccard(Side side, const std::vector<std::string>& probe,
                    const StoredEntry& entry) {
  const staticanalysis::StaticFeatures& s = entry.statics;
  return side == Side::kMap
             ? FieldsJaccard(s.MapCategoricalFields(), s.user_params, probe)
             : FieldsJaccard(s.ReduceCategoricalFields(), s.user_params,
                             probe);
}

/// One tie-break candidate's scores.
struct TieScores {
  double jaccard = 0.0;
  double input_gap = 0.0;
  double dynamic_distance = 0.0;
};

/// The tie-break rule: whether `s` beats `best`. Exact static matches
/// first; then the thesis's input-size rule; then the closest dynamic
/// behaviour for determinism. The tolerances make it no strict weak
/// order, so both tie-break paths fold it over candidates in key order.
bool Beats(const TieScores& s, const TieScores& best) {
  if (s.jaccard > best.jaccard + 1e-12) return true;
  if (!(std::fabs(s.jaccard - best.jaccard) <= 1e-12)) return false;
  if (s.input_gap < best.input_gap - 1e-6) return true;
  return std::fabs(s.input_gap - best.input_gap) <= 1e-6 &&
         s.dynamic_distance < best.dynamic_distance;
}

/// The winner among `keys` (non-empty, in key order, parallel to
/// `scores`), recorded in `t`.
const std::string& PickWinner(const std::vector<const std::string*>& keys,
                              const std::vector<TieScores>& scores,
                              obs::SideTrace* t) {
  size_t best = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (Beats(scores[i], scores[best])) best = i;
  }
  if (t != nullptr) {
    t->winner_job_key = *keys[best];
    t->winner_score = scores[best].jaccard;
  }
  return *keys[best];
}

void RecordStage(obs::SideTrace* t, const char* name, uint64_t in,
                 uint64_t out, std::string detail = {}) {
  if (t == nullptr) return;
  t->stages.push_back(obs::StageTrace{name, in, out, std::move(detail)});
}

std::string ThetaDetail(double theta) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "theta=%.3f", theta);
  return buf;
}

const char* PathName(MatchPath path) {
  switch (path) {
    case MatchPath::kFullPath:
      return "full";
    case MatchPath::kCostFactorFallback:
      return "cost_factor_fallback";
    case MatchPath::kNoMatch:
      break;
  }
  return "no_match";
}

/// Publishes the side outcome on every exit of MatchSide: the path name
/// into the trace, and the outcome tally into the global registry (an
/// error return counts as no-match — that is exactly what the layer above
/// degrades it to).
struct SideOutcomeOnExit {
  const SideMatch* result;
  obs::SideTrace* trace;
  ~SideOutcomeOnExit() {
    if (trace != nullptr) trace->path = PathName(result->path);
    static obs::Counter& full = obs::MetricsRegistry::Global().GetCounter(
        "pstorm_matcher_side_full_path_total");
    static obs::Counter& fallback = obs::MetricsRegistry::Global().GetCounter(
        "pstorm_matcher_side_fallback_total");
    static obs::Counter& no_match = obs::MetricsRegistry::Global().GetCounter(
        "pstorm_matcher_side_no_match_total");
    switch (result->path) {
      case MatchPath::kFullPath:
        full.Increment();
        break;
      case MatchPath::kCostFactorFallback:
        fallback.Increment();
        break;
      case MatchPath::kNoMatch:
        no_match.Increment();
        break;
    }
  }
};

}  // namespace

bool CfgStagePasses(Side side, const std::string& probe_cfg_key,
                    const StoredEntry& entry) {
  return probe_cfg_key ==
         (side == Side::kMap ? entry.map_cfg_key : entry.reduce_cfg_key);
}

bool CallSetStagePasses(Side side, const std::string& probe_calls,
                        const StoredEntry& entry) {
  // Joined, because the row filter compares the column's joined text.
  return side == Side::kMap
             ? entry.has_map_calls &&
                   StrJoin(entry.statics.map_calls, ",") == probe_calls
             : entry.has_reduce_calls &&
                   StrJoin(entry.statics.reduce_calls, ",") == probe_calls;
}

bool JaccardStagePasses(Side side, const std::vector<std::string>& probe,
                        double theta, bool include_user_params,
                        const StoredEntry& entry) {
  if (include_user_params && !entry.has_user_params) return false;
  return EntryJaccard(side, probe, entry) >= theta;
}

MultiStageMatcher::MultiStageMatcher(const ProfileStore* store,
                                     MatchOptions options)
    : store_(store), options_(options) {
  PSTORM_CHECK(store != nullptr);
}

double MultiStageMatcher::ThetaEuclidean(size_t dims) const {
  if (options_.theta_euclidean_override > 0.0) {
    return options_.theta_euclidean_override;
  }
  // Features are normalized to [0,1], so the maximum possible distance is
  // sqrt(dims); the thesis sets the threshold to half of it.
  return 0.5 * std::sqrt(static_cast<double>(dims));
}

Result<std::string> MultiStageMatcher::TieBreak(
    Side side, const std::vector<std::string>& candidates,
    const std::vector<std::string>& categorical,
    const std::vector<double>& dynamic, double probe_input_bytes,
    obs::SideTrace* side_trace, obs::StoreOpsTrace* store_trace) const {
  PSTORM_CHECK(!candidates.empty());
  if (side_trace != nullptr) {
    side_trace->tie_break_candidates = candidates.size();
  }
  const FeatureBounds bounds = store_->DynamicBounds(side);
  const std::vector<double> probe_normalized =
      dynamic.empty() ? std::vector<double>() : bounds.Normalize(dynamic);

  std::vector<const std::string*> keys;
  std::vector<TieScores> scores;
  // The candidates' dynamic vectors, gathered into one SoA batch for the
  // kernel the match index verifies stage 1 with.
  SoaBatch stored_dynamics(probe_normalized.size());
  for (const std::string& key : candidates) {
    bool cache_hit = false;
    auto entry_or = store_->GetEntryRef(key, &cache_hit);
    RecordEntryGet(cache_hit, store_trace);
    // A key deleted since the caller listed it is skipped.
    if (entry_or.status().IsNotFound()) continue;
    PSTORM_RETURN_IF_ERROR(entry_or.status());
    const StoredEntry& entry = *entry_or.value();
    keys.push_back(&key);
    scores.push_back(TieScores{
        categorical.empty() ? 0.0 : EntryJaccard(side, categorical, entry),
        std::fabs(entry.profile.input_data_bytes - probe_input_bytes), 0.0});
    if (!probe_normalized.empty()) {
      stored_dynamics.Append(side == Side::kMap
                                 ? entry.profile.map_side.DynamicVector()
                                 : entry.profile.reduce_side.DynamicVector());
    }
  }
  // Every candidate vanished: report "nothing to pick" via the empty-key
  // sentinel (job keys are never empty).
  if (keys.empty()) return std::string();
  if (!probe_normalized.empty()) {
    std::vector<uint32_t> rows(scores.size());
    for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
    std::vector<double> distances;
    BatchNormalizedDistances(stored_dynamics, rows, bounds.mins,
                             EffectiveRanges(bounds.mins, bounds.maxs),
                             probe_normalized, &distances);
    for (size_t i = 0; i < scores.size(); ++i) {
      scores[i].dynamic_distance = distances[i];
    }
  }
  return PickWinner(keys, scores, side_trace);
}

Result<SideMatch> MultiStageMatcher::MatchSide(
    Side side, const JobFeatureVector& probe, obs::SideTrace* side_trace,
    obs::StoreOpsTrace* store_trace) const {
  static obs::Counter& corrupt = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_matcher_corrupt_candidates_total");
  if (side_trace != nullptr) {
    side_trace->side = side == Side::kMap ? "map" : "reduce";
  }
  const std::vector<double>& dynamic =
      side == Side::kMap ? probe.map_dynamic : probe.reduce_dynamic;
  const std::vector<double>& costs =
      side == Side::kMap ? probe.map_costs : probe.reduce_costs;
  const std::vector<std::string>& categorical =
      side == Side::kMap ? probe.map_categorical : probe.reduce_categorical;

  SideMatch result;
  SideOutcomeOnExit outcome_guard{&result, side_trace};

  // Categorical probe, with the §7.2.1 user-parameter extension appended
  // when enabled (the stored side gains the matching column).
  const bool with_params =
      options_.include_user_parameters || options_.static_only;
  std::vector<std::string> categorical_probe = categorical;
  if (with_params) categorical_probe.push_back(probe.user_params);

  // A Euclidean filter on the store's match index, counted as one scan in
  // the store accounting: verified candidates count as rows scanned.
  auto euclidean = [&](Space space, const std::vector<double>& values,
                       double theta, std::vector<double>* distances) {
    VectorSpaceIndex::QueryStats stats;
    std::vector<std::string> keys = store_->EuclideanCandidates(
        side, space, values, theta, &stats, distances);
    if (store_trace != nullptr) {
      ++store_trace->scans;
      store_trace->rows_scanned += stats.candidates_enumerated;
      store_trace->rows_returned += stats.candidates_returned;
    }
    return keys;
  };

  const double theta = ThetaEuclidean(dynamic.size());
  std::vector<std::string> candidates;
  // Stage-1 distances, parallel to `candidates`; empty when the side
  // starts from every stored key.
  std::vector<double> distances;
  if (options_.static_only || options_.static_filters_first) {
    // §7.2.1 static-only mode (no sample, no dynamic filter, no cost
    // fallback) and the static-first ablation both start from everything.
    PSTORM_ASSIGN_OR_RETURN(candidates, store_->ListJobKeys());
    result.after_dynamic = candidates.size();
    RecordStage(side_trace, "list_all", candidates.size(), candidates.size(),
                options_.static_only ? "static-only mode"
                                     : "static-filters-first ablation");
  } else {
    // ---- Stage 1: dynamic features (Figure 4.4 order). ----
    candidates = euclidean(Space::kDynamic, dynamic, theta, &distances);
    result.after_dynamic = candidates.size();
    RecordStage(side_trace, "dynamic", store_->num_profiles(),
                candidates.size(), ThetaDetail(theta));
  }
  // An empty set after the *first* filter is a hard failure: nothing in
  // the store behaves like this job.
  if (candidates.empty()) return result;

  // ---- Stages 2 (CFG), 2.5 (§7.2.2 call set) and 3 (Jaccard), in one
  // pass over the survivors' entries. ----
  const std::string cfg_key = staticanalysis::CfgMatchKey(
      side == Side::kMap ? probe.map_cfg : probe.reduce_cfg);
  const std::string probe_calls = StrJoin(
      side == Side::kMap ? probe.map_calls : probe.reduce_calls, ",");
  size_t after_cfg = 0, after_calls = 0;
  ProfileStore::EntryVisit visit;
  PSTORM_RETURN_IF_ERROR(store_->VisitEntries(
      candidates,
      [&](const StoredEntry& e) {
        if (!CfgStagePasses(side, cfg_key, e)) return false;
        ++after_cfg;
        if (options_.use_call_graph) {
          if (!CallSetStagePasses(side, probe_calls, e)) return false;
          ++after_calls;
        }
        return JaccardStagePasses(side, categorical_probe,
                                  options_.theta_jaccard, with_params, e);
      },
      &visit));
  if (visit.corrupt > 0) corrupt.Add(visit.corrupt);
  if (store_trace != nullptr) {
    store_trace->entry_gets += candidates.size();
    store_trace->entry_cache_hits += visit.cache_hits;
    store_trace->entry_cache_misses += visit.cache_misses;
  }
  result.after_cfg = after_cfg;
  RecordStage(side_trace, "cfg", candidates.size(), after_cfg);
  if (options_.use_call_graph && after_cfg > 0) {
    RecordStage(side_trace, "call_set", after_cfg, after_calls);
  }
  result.after_jaccard = visit.passed.size();
  RecordStage(side_trace, "jaccard",
              options_.use_call_graph ? after_calls : after_cfg,
              visit.passed.size(), ThetaDetail(options_.theta_jaccard));

  // The tie-break over the candidates gathered in `keys` and `scores`.
  std::vector<const std::string*> keys;
  std::vector<TieScores> scores;
  auto add = [&](const StoredEntry& e, double distance) {
    keys.push_back(&e.job_key);
    scores.push_back(TieScores{
        EntryJaccard(side, categorical_probe, e),
        std::fabs(e.profile.input_data_bytes - probe.input_data_bytes),
        distance});
  };
  auto finish = [&](MatchPath path) {
    if (side_trace != nullptr) side_trace->tie_break_candidates = keys.size();
    result.job_key = PickWinner(keys, scores, side_trace);
    result.path = path;
    return result;
  };

  if (options_.static_filters_first && !options_.static_only) {
    // Ablation order: dynamic filter runs last, over the static survivors.
    if (visit.passed.empty()) return result;
    std::vector<double> pass_distances;
    const std::vector<std::string> dynamic_pass =
        euclidean(Space::kDynamic, dynamic, theta, &pass_distances);
    // Both lists are sorted: intersect by merging.
    size_t d = 0;
    for (const EntryRef& e : visit.passed) {
      while (d < dynamic_pass.size() && dynamic_pass[d] < e->job_key) ++d;
      if (d == dynamic_pass.size()) break;
      if (dynamic_pass[d] == e->job_key) add(*e, pass_distances[d]);
    }
    RecordStage(side_trace, "dynamic", visit.passed.size(), keys.size(),
                ThetaDetail(theta));
    if (keys.empty()) return result;
    return finish(MatchPath::kFullPath);
  }
  if (!visit.passed.empty()) {
    // Static-only mode has no dynamic criterion: every distance reads 0.
    for (size_t j = 0; j < visit.passed.size(); ++j) {
      add(*visit.passed[j],
          distances.empty() ? 0.0 : distances[visit.passed_at[j]]);
    }
    return finish(MatchPath::kFullPath);
  }
  if (options_.static_only) return result;

  // The static filters emptied the set: the job was never executed here.
  // Alternative filter — Euclidean distance over the cost factors of the
  // dynamic survivors (§4.3).
  if (!options_.use_cost_factor_fallback) return result;
  const double cost_theta = ThetaEuclidean(costs.size());
  const std::vector<std::string> fallback =
      euclidean(Space::kCost, costs, cost_theta, nullptr);
  // Intersect with the found dynamic survivors, merging the two sorted
  // key lists: the fallback refines C', it does not resurrect profiles
  // the dynamic filter rejected. Static features already failed, so only
  // input size and dynamic closeness break the tie.
  size_t f = 0;
  for (size_t j = 0; j < visit.found.size(); ++j) {
    const std::string& key = candidates[visit.found[j]];
    while (f < fallback.size() && fallback[f] < key) ++f;
    if (f == fallback.size()) break;
    if (fallback[f] != key) continue;
    keys.push_back(&key);
    scores.push_back(TieScores{
        0.0, std::fabs(visit.input_bytes[j] - probe.input_data_bytes),
        distances[visit.found[j]]});
  }
  RecordStage(side_trace, "cost_factor_fallback", candidates.size(),
              keys.size(), ThetaDetail(cost_theta));
  if (keys.empty()) return result;
  return finish(MatchPath::kCostFactorFallback);
}

Result<MatchResult> MultiStageMatcher::Match(
    const JobFeatureVector& probe, obs::SubmissionTrace* trace) const {
  static obs::Histogram& match_micros =
      obs::MetricsRegistry::Global().GetHistogram("pstorm_match_micros");
  obs::ScopedTimer match_timer(&match_micros);

  obs::SideTrace* map_trace = trace != nullptr ? &trace->map_side : nullptr;
  obs::SideTrace* reduce_trace =
      trace != nullptr ? &trace->reduce_side : nullptr;
  obs::StoreOpsTrace* store_trace = trace != nullptr ? &trace->store : nullptr;

  auto get_entry_traced = [&](const std::string& key) {
    bool cache_hit = false;
    auto entry_or = store_->GetEntryRef(key, &cache_hit);
    RecordEntryGet(cache_hit, store_trace);
    return entry_or;
  };

  MatchResult result;
  PSTORM_ASSIGN_OR_RETURN(result.map_side,
                          MatchSide(Side::kMap, probe, map_trace,
                                    store_trace));
  PSTORM_ASSIGN_OR_RETURN(result.reduce_side,
                          MatchSide(Side::kReduce, probe, reduce_trace,
                                    store_trace));
  if (result.map_side.path == MatchPath::kNoMatch ||
      result.reduce_side.path == MatchPath::kNoMatch) {
    return result;  // found == false: No Match Found.
  }

  result.map_source = result.map_side.job_key;
  result.reduce_source = result.reduce_side.job_key;
  result.composite = result.map_source != result.reduce_source;

  // Compose the returned profile: map half from the map match, reduce
  // half from the reduce match (§4.3). Map and reduce sub-profiles are
  // independent by MR's blocking execution, so the stitch is sound.
  auto map_entry_or = get_entry_traced(result.map_source);
  if (map_entry_or.status().IsNotFound()) return result;  // deleted mid-match
  PSTORM_RETURN_IF_ERROR(map_entry_or.status());
  std::shared_ptr<const StoredEntry> map_entry =
      std::move(map_entry_or).value();
  std::shared_ptr<const StoredEntry> reduce_entry = map_entry;
  result.profile = map_entry->profile;
  if (result.composite) {
    auto reduce_entry_or = get_entry_traced(result.reduce_source);
    if (reduce_entry_or.status().IsNotFound()) return result;
    PSTORM_RETURN_IF_ERROR(reduce_entry_or.status());
    reduce_entry = std::move(reduce_entry_or).value();
    result.profile.reduce_side = reduce_entry->profile.reduce_side;
    result.profile.job_name =
        map_entry->profile.job_name + "+" + reduce_entry->profile.job_name;
  }
  result.map_entry = std::move(map_entry);
  result.reduce_entry = std::move(reduce_entry);
  result.found = true;
  if (trace != nullptr) {
    trace->matched = true;
    trace->composite = result.composite;
    trace->profile_source =
        result.composite ? result.map_source + "+" + result.reduce_source
                         : result.map_source;
  }
  return result;
}

}  // namespace pstorm::core
