#include "core/matcher.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <unordered_set>

#include "common/logging.h"
#include "common/statistics.h"
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

/// Decodes each stage-1 survivor once for the in-memory stages 2-3,
/// keeping the key order stage 1 returns (the index and ListJobKeys both
/// return sorted unique keys). A survivor deleted since stage 1 is
/// skipped; one whose rows fail to decode drops out of the funnel and is
/// counted instead of failing the match (DESIGN.md §5).
Result<std::vector<EntryRef>> FetchSurvivors(
    const ProfileStore& store, const std::vector<std::string>& keys,
    obs::StoreOpsTrace* t) {
  static obs::Counter& corrupt = obs::MetricsRegistry::Global().GetCounter(
      "pstorm_matcher_corrupt_candidates_total");
  std::vector<EntryRef> out;
  out.reserve(keys.size());
  for (const std::string& key : keys) {
    bool cache_hit = false;
    auto entry = store.GetEntryRef(key, &cache_hit);
    RecordEntryGet(cache_hit, t);
    if (entry.ok()) {
      out.push_back(std::move(entry).value());
    } else if (entry.status().IsCorruption()) {
      corrupt.Increment();
    } else if (!entry.status().IsNotFound()) {
      return entry.status();
    }
  }
  return out;
}

/// The entries of `in` that pass `pred`, in order.
template <typename Pred>
std::vector<EntryRef> Keep(const std::vector<EntryRef>& in, Pred pred) {
  std::vector<EntryRef> out;
  for (const EntryRef& e : in) {
    if (pred(*e)) out.push_back(e);
  }
  return out;
}

std::vector<std::string> KeysOf(const std::vector<EntryRef>& entries) {
  std::vector<std::string> keys;
  keys.reserve(entries.size());
  for (const EntryRef& e : entries) keys.push_back(e->job_key);
  return keys;
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

bool CfgStagePasses(Side side, const staticanalysis::Cfg& probe,
                    const StoredEntry& entry) {
  return staticanalysis::MatchCfgs(
      probe, side == Side::kMap ? entry.statics.map_cfg
                                : entry.statics.reduce_cfg);
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
  std::vector<std::string> stored = side == Side::kMap
                                        ? entry.statics.MapCategorical()
                                        : entry.statics.ReduceCategorical();
  if (include_user_params) {
    if (!entry.has_user_params) return false;
    stored.push_back(entry.statics.user_params);
  }
  return PositionalJaccard(stored, probe) >= theta;
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

  struct Scored {
    std::string key;
    double jaccard;
    double input_gap;
    double dynamic_distance;
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  // Candidates' dynamic vectors, gathered into a contiguous SoA batch so
  // the distance criterion runs through the branch-free vectorized kernel
  // (one pass over all survivors) instead of per-candidate scalar loops.
  SoaBatch stored_dynamics(probe_normalized.size());
  stored_dynamics.Reserve(candidates.size());
  for (const std::string& key : candidates) {
    bool cache_hit = false;
    auto entry_or = store_->GetEntryRef(key, &cache_hit);
    RecordEntryGet(cache_hit, store_trace);
    if (entry_or.status().IsNotFound()) {
      // A concurrent DeleteProfile removed this candidate between the
      // scan that produced it and now; score the survivors.
      if (side_trace != nullptr) ++side_trace->tie_break_vanished;
      continue;
    }
    PSTORM_RETURN_IF_ERROR(entry_or.status());
    const std::shared_ptr<const StoredEntry> entry =
        std::move(entry_or).value();
    Scored s;
    s.key = key;
    std::vector<std::string> stored_categorical =
        side == Side::kMap ? entry->statics.MapCategorical()
                           : entry->statics.ReduceCategorical();
    // A probe extended with the user-parameter feature (§7.2.1) compares
    // against the stored parameter string in the same slot.
    if (categorical.size() == stored_categorical.size() + 1) {
      stored_categorical.push_back(entry->statics.user_params);
    }
    s.jaccard = categorical.empty()
                    ? 0.0
                    : PositionalJaccard(stored_categorical, categorical);
    s.input_gap =
        std::fabs(entry->profile.input_data_bytes - probe_input_bytes);
    s.dynamic_distance = 0.0;
    if (!probe_normalized.empty()) {
      stored_dynamics.Append(side == Side::kMap
                                 ? entry->profile.map_side.DynamicVector()
                                 : entry->profile.reduce_side.DynamicVector());
    }
    scored.push_back(std::move(s));
  }
  if (!probe_normalized.empty() && !scored.empty()) {
    std::vector<uint32_t> rows(scored.size());
    for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
    std::vector<double> distances;
    BatchNormalizedDistances(stored_dynamics, rows, bounds.mins,
                             EffectiveRanges(bounds.mins, bounds.maxs),
                             probe_normalized, &distances);
    for (size_t i = 0; i < scored.size(); ++i) {
      scored[i].dynamic_distance = distances[i];
    }
  }
  // Every candidate vanished mid-match: report "nothing to pick" via the
  // empty-key sentinel (job keys are never empty) so the caller degrades
  // to No Match instead of erroring.
  if (scored.empty()) return std::string();

  // Exact static matches first; then the thesis's input-size rule; then
  // the closest dynamic behaviour for determinism.
  const Scored* best = &scored[0];
  for (const Scored& s : scored) {
    if (s.jaccard > best->jaccard + 1e-12) {
      best = &s;
    } else if (std::fabs(s.jaccard - best->jaccard) <= 1e-12) {
      if (s.input_gap < best->input_gap - 1e-6) {
        best = &s;
      } else if (std::fabs(s.input_gap - best->input_gap) <= 1e-6 &&
                 s.dynamic_distance < best->dynamic_distance) {
        best = &s;
      }
    }
  }
  if (side_trace != nullptr) {
    side_trace->winner_job_key = best->key;
    side_trace->winner_score = best->jaccard;
  }
  return best->key;
}

Result<SideMatch> MultiStageMatcher::MatchSide(
    Side side, const JobFeatureVector& probe, obs::SideTrace* side_trace,
    obs::StoreOpsTrace* store_trace) const {
  if (side_trace != nullptr) {
    side_trace->side = side == Side::kMap ? "map" : "reduce";
  }
  const std::vector<double>& dynamic =
      side == Side::kMap ? probe.map_dynamic : probe.reduce_dynamic;
  const std::vector<double>& costs =
      side == Side::kMap ? probe.map_costs : probe.reduce_costs;
  const std::vector<std::string>& categorical =
      side == Side::kMap ? probe.map_categorical : probe.reduce_categorical;
  const staticanalysis::Cfg& cfg =
      side == Side::kMap ? probe.map_cfg : probe.reduce_cfg;

  SideMatch result;
  SideOutcomeOnExit outcome_guard{&result, side_trace};

  // Categorical probe, with the §7.2.1 user-parameter extension appended
  // when enabled (the stored side gains the matching column).
  const bool with_params =
      options_.include_user_parameters || options_.static_only;
  std::vector<std::string> categorical_probe = categorical;
  if (with_params) categorical_probe.push_back(probe.user_params);
  const std::string probe_calls = StrJoin(
      side == Side::kMap ? probe.map_calls : probe.reduce_calls, ",");

  // A Euclidean filter on the store's match index, counted as one scan in
  // the store accounting: verified candidates count as rows scanned.
  auto euclidean = [&](Space space, const std::vector<double>& values,
                       double theta) {
    VectorSpaceIndex::QueryStats stats;
    std::vector<std::string> keys =
        store_->EuclideanCandidates(side, space, values, theta, &stats);
    if (store_trace != nullptr) {
      ++store_trace->scans;
      store_trace->rows_scanned += stats.candidates_enumerated;
      store_trace->rows_returned += stats.candidates_returned;
    }
    return keys;
  };

  // Picks the winner among `survivors` and records how the side matched.
  auto finish = [&](const std::vector<std::string>& survivors,
                    const std::vector<std::string>& tie_categorical,
                    const std::vector<double>& tie_dynamic,
                    MatchPath path) -> Result<SideMatch> {
    PSTORM_ASSIGN_OR_RETURN(
        result.job_key,
        TieBreak(side, survivors, tie_categorical, tie_dynamic,
                 probe.input_data_bytes, side_trace, store_trace));
    if (!result.job_key.empty()) result.path = path;
    return result;
  };

  const double theta = ThetaEuclidean(dynamic.size());
  std::vector<std::string> candidates;
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
    candidates = euclidean(Space::kDynamic, dynamic, theta);
    result.after_dynamic = candidates.size();
    RecordStage(side_trace, "dynamic", store_->num_profiles(),
                candidates.size(), ThetaDetail(theta));
  }
  // An empty set after the *first* filter is a hard failure: nothing in
  // the store behaves like this job.
  if (candidates.empty()) return result;

  PSTORM_ASSIGN_OR_RETURN(const std::vector<EntryRef> survivors,
                          FetchSurvivors(*store_, candidates, store_trace));

  // ---- Stage 2: conservative CFG match. ----
  std::vector<EntryRef> passed = Keep(survivors, [&](const StoredEntry& e) {
    return CfgStagePasses(side, cfg, e);
  });
  result.after_cfg = passed.size();
  RecordStage(side_trace, "cfg", candidates.size(), passed.size());

  // ---- Stage 2.5 (§7.2.2 extension): conservative call-set match. ----
  if (options_.use_call_graph && !passed.empty()) {
    const size_t calls_in = passed.size();
    passed = Keep(passed, [&](const StoredEntry& e) {
      return CallSetStagePasses(side, probe_calls, e);
    });
    RecordStage(side_trace, "call_set", calls_in, passed.size());
  }

  // ---- Stage 3: Jaccard over categorical features. ----
  const size_t jaccard_in = passed.size();
  passed = Keep(passed, [&](const StoredEntry& e) {
    return JaccardStagePasses(side, categorical_probe, options_.theta_jaccard,
                              with_params, e);
  });
  result.after_jaccard = passed.size();
  RecordStage(side_trace, "jaccard", jaccard_in, passed.size(),
              ThetaDetail(options_.theta_jaccard));
  const std::vector<std::string> after_jaccard = KeysOf(passed);

  if (options_.static_only) {
    if (after_jaccard.empty()) return result;
    return finish(after_jaccard, categorical_probe, {}, MatchPath::kFullPath);
  }

  if (options_.static_filters_first) {
    // Ablation order: dynamic filter runs last, over the static survivors.
    if (after_jaccard.empty()) return result;
    const std::vector<std::string> dynamic_pass =
        euclidean(Space::kDynamic, dynamic, theta);
    const std::unordered_set<std::string> dynamic_pass_set(
        dynamic_pass.begin(), dynamic_pass.end());
    std::vector<std::string> final_set;
    for (const std::string& key : after_jaccard) {
      if (dynamic_pass_set.count(key) > 0) final_set.push_back(key);
    }
    RecordStage(side_trace, "dynamic", after_jaccard.size(),
                final_set.size(), ThetaDetail(theta));
    if (final_set.empty()) return result;
    return finish(final_set, categorical_probe, dynamic,
                  MatchPath::kFullPath);
  }

  if (!after_jaccard.empty()) {
    return finish(after_jaccard, categorical_probe, dynamic,
                  MatchPath::kFullPath);
  }

  // The static filters emptied the set: the job was never executed here.
  // Alternative filter — Euclidean distance over the cost factors of the
  // dynamic survivors (§4.3).
  if (!options_.use_cost_factor_fallback) return result;
  const double cost_theta = ThetaEuclidean(costs.size());
  const std::vector<std::string> fallback =
      euclidean(Space::kCost, costs, cost_theta);
  // Intersect with the decoded dynamic survivors: the fallback refines
  // C', it does not resurrect profiles the dynamic filter rejected.
  std::unordered_set<std::string> survivor_set;
  for (const EntryRef& e : survivors) survivor_set.insert(e->job_key);
  std::vector<std::string> refined;
  for (const std::string& key : fallback) {
    if (survivor_set.count(key) > 0) refined.push_back(key);
  }
  RecordStage(side_trace, "cost_factor_fallback", candidates.size(),
              refined.size(), ThetaDetail(cost_theta));
  if (refined.empty()) return result;
  // Fallback tie-break: static features already failed, so only input
  // size and dynamic closeness apply.
  return finish(refined, {}, dynamic, MatchPath::kCostFactorFallback);
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
  const std::shared_ptr<const StoredEntry> map_entry =
      std::move(map_entry_or).value();
  result.profile = map_entry->profile;
  if (result.composite) {
    auto reduce_entry_or = get_entry_traced(result.reduce_source);
    if (reduce_entry_or.status().IsNotFound()) return result;
    PSTORM_RETURN_IF_ERROR(reduce_entry_or.status());
    const std::shared_ptr<const StoredEntry> reduce_entry =
        std::move(reduce_entry_or).value();
    result.profile.reduce_side = reduce_entry->profile.reduce_side;
    result.profile.job_name =
        map_entry->profile.job_name + "+" + reduce_entry->profile.job_name;
  }
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
