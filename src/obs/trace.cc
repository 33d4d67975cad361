#include "obs/trace.h"

#include <cstdio>
#include <sstream>

namespace pstorm {
namespace obs {

namespace {

/// A simulated job runtime, such as a CBO round's best prediction.
std::string Seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3fs", s);
  return buf;
}

/// A wall time: most phases of a matched submission take well under 1 ms.
std::string Micros(double s) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0fus", s * 1e6);
  return buf;
}

void AppendSide(std::ostringstream& out, const SideTrace& side) {
  out << "  " << side.side << " side: path=" << side.path << "\n";
  for (const StageTrace& stage : side.stages) {
    out << "    " << stage.name << ": " << stage.candidates_in << " -> "
        << stage.candidates_out;
    if (!stage.detail.empty()) out << " (" << stage.detail << ")";
    out << "\n";
  }
  if (side.tie_break_candidates > 0) {
    out << "    tie-break: " << side.tie_break_candidates << " candidates";
    if (!side.winner_job_key.empty()) {
      out << ", winner=" << side.winner_job_key << " score="
          << side.winner_score;
    }
    out << "\n";
  }
}

}  // namespace

std::string SubmissionTrace::ToString() const {
  std::ostringstream out;
  out << "submission " << job_key << ": "
      << (matched ? (composite ? "matched (composite)" : "matched")
                  : "no match");
  if (!profile_source.empty()) out << " source=" << profile_source;
  out << "\n";
  AppendSide(out, map_side);
  AppendSide(out, reduce_side);
  out << "  store: scans=" << store.scans << " rows_scanned="
      << store.rows_scanned << " rows_returned=" << store.rows_returned
      << " entry_gets=" << store.entry_gets << " cache_hits="
      << store.entry_cache_hits << " cache_misses="
      << store.entry_cache_misses;
  if (store.profiles_put > 0) out << " profiles_put=" << store.profiles_put;
  out << "\n";
  if (cbo.memo_hit) {
    out << "  cbo: memo_hit\n";
  } else if (!cbo.rounds.empty() || cbo.candidates_evaluated > 0) {
    out << "  cbo: evaluated=" << cbo.candidates_evaluated
        << " wall=" << Micros(cbo.seconds) << "\n";
    for (const CboRoundTrace& round : cbo.rounds) {
      out << "    " << round.phase << ": evaluated="
          << round.candidates_evaluated << " best="
          << Seconds(round.best_predicted_s) << " wall="
          << Micros(round.seconds) << "\n";
    }
  }
  if (!timeline.empty()) {
    out << "  timeline:";
    for (const SpanRecord& span : timeline) {
      out << " " << span.name << "=" << Micros(span.seconds);
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace obs
}  // namespace pstorm
