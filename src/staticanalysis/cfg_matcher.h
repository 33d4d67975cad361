#ifndef PSTORM_STATICANALYSIS_CFG_MATCHER_H_
#define PSTORM_STATICANALYSIS_CFG_MATCHER_H_

#include <string>

#include "staticanalysis/cfg.h"

namespace pstorm::staticanalysis {

struct CfgMatchOptions {
  /// Also require collapsed basic blocks to contain the same number of
  /// simple statements. Off by default: the thesis matcher compares shape
  /// only, so a while-loop word count matches a for-loop word count.
  bool compare_block_sizes = false;
};

/// Conservative structural CFG equivalence by synchronized breadth-first
/// traversal (thesis §4.2): starting from both entry nodes, walk the two
/// graphs in lockstep, requiring the same node kinds and out-degrees at
/// every step and a consistent bijection between visited nodes. Returns
/// 1/0 match semantics — there is no partial CFG score.
bool MatchCfgs(const Cfg& a, const Cfg& b,
               CfgMatchOptions options = CfgMatchOptions());

/// A canonical key of the CFG such that, under the same options,
/// `CfgMatchKey(a) == CfgMatchKey(b)` exactly when `MatchCfgs(a, b)`.
/// It lists the nodes reachable from the entry in BFS-discovery order
/// (the order MatchCfgs pairs them in), each as its kind, its out-degree,
/// its statement count (blocks only, under `compare_block_sizes`) and its
/// successors' discovery ids. The empty CFG has the empty key. Binary,
/// not for display. A successor outside the node list reads as missing
/// (BuildCfg and ParseCfg never produce one; MatchCfgs would index out of
/// bounds on it).
std::string CfgMatchKey(const Cfg& cfg,
                        CfgMatchOptions options = CfgMatchOptions());

}  // namespace pstorm::staticanalysis

#endif  // PSTORM_STATICANALYSIS_CFG_MATCHER_H_
