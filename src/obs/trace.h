#ifndef PSTORM_OBS_TRACE_H_
#define PSTORM_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pstorm {
namespace obs {

/// One matcher funnel stage on one side (map or reduce): how many candidates
/// flowed in, how many survived. `detail` carries the stage-specific datum
/// (threshold used, best score seen) as preformatted text.
struct StageTrace {
  std::string name;
  uint64_t candidates_in = 0;
  uint64_t candidates_out = 0;
  std::string detail;
};

/// One side of the two-sided match: the stage funnel plus how the final
/// winner was chosen.
struct SideTrace {
  std::string side;            // "map" or "reduce"
  std::string path;            // "full", "cost_factor_fallback", "no_match"
  std::vector<StageTrace> stages;
  uint64_t tie_break_candidates = 0;
  std::string winner_job_key;  // empty when no match survived
  double winner_score = 0.0;
};

/// Store-side effort for one submission, accumulated across both sides.
/// Each match-index lookup (stage 1, the alternative filter) counts as a
/// scan whose verified candidates count as rows scanned; the stage 2-3
/// visit counts one entry get per stage-1 survivor, decoded or served
/// from the entry cache, and the stitch one per matched side.
struct StoreOpsTrace {
  uint64_t scans = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_returned = 0;
  uint64_t entry_gets = 0;
  uint64_t entry_cache_hits = 0;
  uint64_t entry_cache_misses = 0;
  uint64_t profiles_put = 0;
};

/// One round of the CBO search (seed batch or a refinement round).
struct CboRoundTrace {
  std::string phase;  // "seed+global" or "refine N"
  uint64_t candidates_evaluated = 0;
  double best_predicted_s = 0.0;
  double seconds = 0.0;
};

struct CboTrace {
  std::vector<CboRoundTrace> rounds;
  uint64_t candidates_evaluated = 0;
  double seconds = 0.0;
};

/// A named wall-time interval inside the submission (see Span below).
struct SpanRecord {
  std::string name;
  double seconds = 0.0;
};

/// Everything one SubmitJob did, for postmortems and the example service's
/// per-job log lines. Owned by the caller, filled in by the layers the
/// submission passes through; never touched concurrently.
struct SubmissionTrace {
  std::string job_key;
  bool matched = false;
  bool composite = false;
  std::string profile_source;  // job key of the matched profile, if any
  SideTrace map_side;
  SideTrace reduce_side;
  StoreOpsTrace store;
  CboTrace cbo;
  std::vector<SpanRecord> timeline;

  /// Multi-line human-readable rendering (indented; stable field order).
  std::string ToString() const;
};

/// Appends a SpanRecord with the scope's wall time to `trace->timeline` on
/// destruction. A null trace makes the span free apart from the clock reads.
class Span {
 public:
  Span(SubmissionTrace* trace, std::string name)
      : trace_(trace), name_(std::move(name)) {
    if (trace_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ~Span() {
    if (trace_ == nullptr) return;
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    trace_->timeline.push_back(SpanRecord{std::move(name_), seconds});
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SubmissionTrace* trace_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace pstorm

#endif  // PSTORM_OBS_TRACE_H_
