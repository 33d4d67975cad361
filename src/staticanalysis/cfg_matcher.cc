#include "staticanalysis/cfg_matcher.h"

#include <cstdint>
#include <queue>
#include <vector>

#include "common/coding.h"

namespace pstorm::staticanalysis {

bool MatchCfgs(const Cfg& a, const Cfg& b, CfgMatchOptions options) {
  if (a.empty() || b.empty()) return a.empty() == b.empty();

  const auto& nodes_a = a.nodes();
  const auto& nodes_b = b.nodes();

  // Bijection under construction between a-nodes and b-nodes.
  std::vector<int> a_to_b(nodes_a.size(), -1);
  std::vector<int> b_to_a(nodes_b.size(), -1);

  std::queue<std::pair<int, int>> frontier;
  frontier.push({a.entry(), b.entry()});
  a_to_b[a.entry()] = b.entry();
  b_to_a[b.entry()] = a.entry();

  while (!frontier.empty()) {
    const auto [na, nb] = frontier.front();
    frontier.pop();
    const CfgNode& node_a = nodes_a[na];
    const CfgNode& node_b = nodes_b[nb];

    if (node_a.kind != node_b.kind) return false;
    if (node_a.successors.size() != node_b.successors.size()) return false;
    if (options.compare_block_sizes &&
        node_a.kind == CfgNodeKind::kBlock &&
        node_a.stmt_count != node_b.stmt_count) {
      return false;
    }

    // Successors are ordered deterministically by construction
    // (fall-through first, branch target second), so lockstep traversal
    // compares like with like.
    for (size_t i = 0; i < node_a.successors.size(); ++i) {
      const int sa = node_a.successors[i];
      const int sb = node_b.successors[i];
      if ((sa < 0) != (sb < 0)) return false;
      if (sa < 0) continue;
      const int mapped_b = a_to_b[sa];
      const int mapped_a = b_to_a[sb];
      if (mapped_b == -1 && mapped_a == -1) {
        a_to_b[sa] = sb;
        b_to_a[sb] = sa;
        frontier.push({sa, sb});
      } else if (mapped_b != sb || mapped_a != sa) {
        return false;  // Inconsistent with the bijection so far.
      }
    }
  }
  return true;
}

std::string CfgMatchKey(const Cfg& cfg, CfgMatchOptions options) {
  std::string key;
  if (cfg.empty()) return key;
  const auto& nodes = cfg.nodes();
  const int n = static_cast<int>(nodes.size());
  // Outside [0, n): MatchCfgs would index out of bounds. A fixed byte that
  // no node encoding starts with keeps the key computable.
  if (cfg.entry() < 0 || cfg.entry() >= n) return std::string(1, '\xff');

  // The BFS of MatchCfgs on one graph: MatchCfgs pairs the i-th node
  // discovered in `a` with the i-th discovered in `b`, so two graphs match
  // exactly when this walk reads the same in both. Every field is
  // length-determined (the kind says whether a statement count follows,
  // the degree how many successors), so equal keys mean equal walks.
  std::vector<int> id(nodes.size(), -1);
  std::vector<int> order = {cfg.entry()};
  id[cfg.entry()] = 0;
  for (size_t next = 0; next < order.size(); ++next) {
    const CfgNode& node = nodes[order[next]];
    key.push_back(static_cast<char>(node.kind));
    PutVarint64(&key, node.successors.size());
    if (options.compare_block_sizes && node.kind == CfgNodeKind::kBlock) {
      PutVarint32(&key, static_cast<uint32_t>(node.stmt_count));
    }
    for (int succ : node.successors) {
      // 0 marks a missing successor: MatchCfgs equates any two negative
      // ones. Discovery ids are written plus one.
      if (succ < 0 || succ >= n) {
        PutVarint32(&key, 0);
        continue;
      }
      if (id[succ] == -1) {
        id[succ] = static_cast<int>(order.size());
        order.push_back(succ);
      }
      PutVarint32(&key, static_cast<uint32_t>(id[succ]) + 1);
    }
  }
  return key;
}

}  // namespace pstorm::staticanalysis
