#ifndef PSTORM_CORE_MATCHER_H_
#define PSTORM_CORE_MATCHER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/feature_vector.h"
#include "core/profile_store.h"
#include "obs/trace.h"

namespace pstorm::core {

/// Knobs of the multi-stage matcher. Defaults are the thesis settings
/// (§6): θ_Jacc = 0.5 and θ_Eucl = √(#dynamic features)/2 over [0,1]-
/// normalized features.
struct MatchOptions {
  double theta_jaccard = 0.5;
  /// When > 0 overrides the √d/2 default for the dynamic-feature filter.
  double theta_euclidean_override = 0.0;
  /// Apply the cost-factor fallback filter when the static filters empty
  /// the candidate set (the "alternative filter" of Figure 4.4).
  bool use_cost_factor_fallback = true;
  /// Ablation of §4.3's stage order: run the static filters before the
  /// dynamic filter. Loses the composite-profile opportunities the thesis
  /// describes (e.g. same code, different user parameters).
  bool static_filters_first = false;
  /// §7.2.1 extension: fold the job's user parameters into the categorical
  /// feature vector. With this on, the static features alone can separate
  /// the same code run with different parameters.
  bool include_user_parameters = false;
  /// §7.2.1 corollary: match on static features only (no 1-task sample
  /// needed). Requires include_user_parameters to be discriminative.
  /// The dynamic filter and the cost-factor fallback are skipped; the
  /// tie-break uses Jaccard + input size.
  bool static_only = false;
  /// §7.2.2 extension: require the stored job's helper-call set to equal
  /// the probe's, as an extra conservative filter after the CFG stage.
  bool use_call_graph = false;
};

/// How one side of the match was decided.
enum class MatchPath {
  kNoMatch,
  /// Survived dynamic -> CFG -> Jaccard -> tie-break.
  kFullPath,
  /// Static filters emptied the set; matched via the cost-factor
  /// alternative filter (the previously-unseen-job path).
  kCostFactorFallback,
};

/// Outcome of one side's workflow.
struct SideMatch {
  std::string job_key;  // Empty when no match.
  MatchPath path = MatchPath::kNoMatch;
  /// Candidates surviving each stage (diagnostics / benches).
  size_t after_dynamic = 0;
  size_t after_cfg = 0;
  size_t after_jaccard = 0;

  friend bool operator==(const SideMatch&, const SideMatch&) = default;
};

/// Outcome of a full match: a (possibly composite) profile for the CBO.
struct MatchResult {
  bool found = false;
  /// Map side taken from `map_source`, reduce side from `reduce_source`.
  std::string map_source;
  std::string reduce_source;
  bool composite = false;  // True when the two sources differ.
  profiler::ExecutionProfile profile;
  /// The decoded entries `profile` was stitched from (set when `found`);
  /// the same pointer twice when the profile is not composite.
  std::shared_ptr<const StoredEntry> map_entry;
  std::shared_ptr<const StoredEntry> reduce_entry;
  SideMatch map_side;
  SideMatch reduce_side;
};

/// Stages 2, 2.5 and 3 of Figure 4.4 as predicates over one decoded
/// stored entry. Each gives the answer the row filter behind
/// ProfileStore::CfgMatchScan / CallSetScan / JaccardScan gives for the
/// entry's Static row; tests/core/matcher_funnel_test.cc holds them to it.
/// `probe_cfg_key` is staticanalysis::CfgMatchKey of the probe's side CFG:
/// the stage is a string compare with the entry's cached key, equal
/// exactly when MatchCfgs (the row filter's test) holds.
bool CfgStagePasses(Side side, const std::string& probe_cfg_key,
                    const StoredEntry& entry);
/// `probe_calls` is the probe's call set joined with ',', the form the
/// store writes.
bool CallSetStagePasses(Side side, const std::string& probe_calls,
                        const StoredEntry& entry);
/// With `include_user_params`, `probe` carries the user-parameter string
/// as its last element. Reads the entry's features in place.
bool JaccardStagePasses(Side side, const std::vector<std::string>& probe,
                        double theta, bool include_user_params,
                        const StoredEntry& entry);

/// The PStorM profile matcher (thesis chapter 4): a domain-specific
/// multi-stage workflow, applied once for the map side and once for the
/// reduce side, that filters the stored profiles by (1) normalized
/// Euclidean distance over the Table 4.1 data-flow statistics, (2)
/// conservative CFG equivalence, (3) Jaccard similarity over the Table 4.3
/// categorical features, breaking ties by closest input data size; when
/// the static filters empty the candidate set (a previously unseen job),
/// it falls back to a Euclidean filter over the Table 4.2 cost factors.
///
/// Stage 1 and the alternative filter run on the store's match index
/// (ProfileStore::EuclideanCandidates), which also returns each stage-1
/// survivor's normalized distance. Stages 2-3 then run in one
/// ProfileStore::VisitEntries pass over the survivors' decoded entries,
/// which keeps the entries that pass and records every survivor's input
/// size. The tie-break and the cost-factor fallback read those arrays
/// instead of fetching candidates again; only Match's stitch reads the
/// winning entries. A survivor whose rows fail to decode drops out of the
/// funnel and is counted in
/// pstorm_matcher_corrupt_candidates_total; it never fails the match.
class MultiStageMatcher {
 public:
  /// `store` must outlive the matcher.
  explicit MultiStageMatcher(const ProfileStore* store)
      : MultiStageMatcher(store, MatchOptions{}) {}
  MultiStageMatcher(const ProfileStore* store, MatchOptions options);

  /// Runs the workflow for `probe`. `found == false` (with OK status)
  /// means No Match Found — the caller then runs the job with profiling
  /// on and stores the collected profile. `trace` (optional) receives the
  /// per-stage funnel, tie-break path, and store-op accounting of both
  /// sides.
  Result<MatchResult> Match(const JobFeatureVector& probe,
                            obs::SubmissionTrace* trace = nullptr) const;

  /// One side's workflow, exposed for tests and benches. `side_trace` and
  /// `store_trace` (optional, independent) receive the stage funnel and
  /// the store-op accounting.
  Result<SideMatch> MatchSide(Side side, const JobFeatureVector& probe,
                              obs::SideTrace* side_trace = nullptr,
                              obs::StoreOpsTrace* store_trace = nullptr) const;

  /// The Figure 4.4 tie-break with one refinement: when several candidates
  /// survive every filter, prefer those with the highest Jaccard score
  /// (exact static matches beat near matches), then the closest input
  /// data size, then the smallest dynamic distance — the last two exactly
  /// as the thesis motivates via Figure 4.6. Pass empty `categorical` /
  /// `dynamic` to skip the respective criterion (fallback path).
  /// This form fetches each candidate by key and skips one that is gone;
  /// MatchSide scores its survivors from the arrays its visit recorded,
  /// and both apply one comparison rule. Exposed as the tests' oracle and
  /// for benches.
  Result<std::string> TieBreak(Side side,
                               const std::vector<std::string>& candidates,
                               const std::vector<std::string>& categorical,
                               const std::vector<double>& dynamic,
                               double probe_input_bytes,
                               obs::SideTrace* side_trace = nullptr,
                               obs::StoreOpsTrace* store_trace = nullptr) const;

 private:
  double ThetaEuclidean(size_t dims) const;

  const ProfileStore* store_;
  MatchOptions options_;
};

}  // namespace pstorm::core

#endif  // PSTORM_CORE_MATCHER_H_
