#include "staticanalysis/cfg.h"

#include <cstdlib>
#include <set>

#include "common/logging.h"
#include "common/strings.h"

namespace pstorm::staticanalysis {

namespace {

bool IsSimple(const Stmt& stmt) {
  return stmt.kind() == StmtKind::kOp || stmt.kind() == StmtKind::kEmit ||
         stmt.kind() == StmtKind::kCall;
}

/// Flattens nested kSeq nodes into one statement list.
void Flatten(const StmtPtr& stmt, std::vector<StmtPtr>* out) {
  if (stmt == nullptr) return;
  if (stmt->kind() == StmtKind::kSeq) {
    for (const StmtPtr& child : stmt->children()) Flatten(child, out);
  } else {
    out->push_back(stmt);
  }
}

/// Builder with patchable successor slots: an "exit" is a (node, slot)
/// pair whose target is filled in once the following construct is built.
class Builder {
 public:
  using Exit = std::pair<int, int>;  // (node id, successor slot)

  Cfg Build(const FunctionIr& function) {
    const int entry = NewNode(CfgNodeKind::kEntry, "entry", 1);
    std::vector<Exit> exits = {{entry, 0}};
    exits = BuildStmt(function.body, std::move(exits));
    const int exit = NewNode(CfgNodeKind::kExit, "exit", 0);
    Patch(exits, exit);
    return Cfg(std::move(nodes_), entry, exit);
  }

 private:
  int NewNode(CfgNodeKind kind, std::string label, int num_successors) {
    CfgNode node;
    node.kind = kind;
    node.label = std::move(label);
    node.successors.assign(num_successors, -1);
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  }

  void Patch(const std::vector<Exit>& exits, int target) {
    for (const auto& [node, slot] : exits) {
      PSTORM_CHECK(nodes_[node].successors[slot] == -1);
      nodes_[node].successors[slot] = target;
    }
  }

  /// Builds `stmt` with control arriving from `incoming`; returns the new
  /// dangling exits.
  std::vector<Exit> BuildStmt(const StmtPtr& stmt,
                              std::vector<Exit> incoming) {
    std::vector<StmtPtr> sequence;
    Flatten(stmt, &sequence);

    size_t i = 0;
    while (i < sequence.size()) {
      if (IsSimple(*sequence[i])) {
        // Collapse the maximal run of simple statements into one block
        // vertex.
        int count = 0;
        std::string label = sequence[i]->label();
        while (i < sequence.size() && IsSimple(*sequence[i])) {
          ++count;
          ++i;
        }
        const int block = NewNode(CfgNodeKind::kBlock, std::move(label), 1);
        nodes_[block].stmt_count = count;
        Patch(incoming, block);
        incoming = {{block, 0}};
      } else if (sequence[i]->kind() == StmtKind::kLoop) {
        const StmtPtr& loop = sequence[i];
        const int branch =
            NewNode(CfgNodeKind::kBranch, "while " + loop->label(), 2);
        Patch(incoming, branch);
        // Slot 0: loop body, which flows back to the branch.
        std::vector<Exit> body_exits =
            BuildStmt(loop->children()[0], {{branch, 0}});
        PatchBack(body_exits, branch);
        // Slot 1: fall through past the loop.
        incoming = {{branch, 1}};
        ++i;
      } else {
        PSTORM_CHECK(sequence[i]->kind() == StmtKind::kIf);
        const StmtPtr& cond = sequence[i];
        const int branch =
            NewNode(CfgNodeKind::kBranch, "if " + cond->label(), 2);
        Patch(incoming, branch);
        std::vector<Exit> exits =
            BuildStmt(cond->children()[0], {{branch, 0}});
        if (cond->children().size() > 1) {
          std::vector<Exit> else_exits =
              BuildStmt(cond->children()[1], {{branch, 1}});
          exits.insert(exits.end(), else_exits.begin(), else_exits.end());
        } else {
          exits.push_back({branch, 1});
        }
        incoming = std::move(exits);
        ++i;
      }
    }
    return incoming;
  }

  /// Wires loop-body exits back to the loop's branch node. A body exit may
  /// equal the branch itself (empty body): that self-loop is fine.
  void PatchBack(const std::vector<Exit>& exits, int branch) {
    for (const auto& [node, slot] : exits) {
      PSTORM_CHECK(nodes_[node].successors[slot] == -1);
      nodes_[node].successors[slot] = branch;
    }
  }

  std::vector<CfgNode> nodes_;
};

const char* KindName(CfgNodeKind kind) {
  switch (kind) {
    case CfgNodeKind::kEntry:
      return "entry";
    case CfgNodeKind::kBlock:
      return "block";
    case CfgNodeKind::kBranch:
      return "branch";
    case CfgNodeKind::kExit:
      return "exit";
  }
  return "?";
}

}  // namespace

Cfg BuildCfg(const FunctionIr& function) {
  return Builder().Build(function);
}

int Cfg::num_branches() const {
  int count = 0;
  for (const CfgNode& node : nodes_) {
    if (node.kind == CfgNodeKind::kBranch) ++count;
  }
  return count;
}

int Cfg::num_blocks() const {
  int count = 0;
  for (const CfgNode& node : nodes_) {
    if (node.kind == CfgNodeKind::kBlock) ++count;
  }
  return count;
}

int Cfg::num_back_edges() const {
  // A back edge targets a node with a smaller id: construction numbers
  // nodes in control-flow order, so only loop edges point backwards (or to
  // the branch itself).
  int count = 0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (int succ : nodes_[i].successors) {
      if (succ >= 0 && static_cast<size_t>(succ) <= i) ++count;
    }
  }
  return count;
}

std::string Cfg::ToString() const {
  std::string out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    out += std::to_string(i);
    out += " [";
    out += KindName(nodes_[i].kind);
    if (nodes_[i].kind == CfgNodeKind::kBlock) {
      out += " x";
      out += std::to_string(nodes_[i].stmt_count);
    }
    out += "] ->";
    for (int succ : nodes_[i].successors) {
      out += " ";
      out += std::to_string(succ);
    }
    out += "\n";
  }
  return out;
}

std::string SerializeCfg(const Cfg& cfg) {
  // "entry exit;kind,stmt_count,succ,succ;..." — kind as an integer.
  std::string out = std::to_string(cfg.entry());
  out += " ";
  out += std::to_string(cfg.exit());
  for (const CfgNode& node : cfg.nodes()) {
    out += ";";
    out += std::to_string(static_cast<int>(node.kind));
    out += ",";
    out += std::to_string(node.stmt_count);
    for (int succ : node.successors) {
      out += ",";
      out += std::to_string(succ);
    }
  }
  return out;
}

Result<Cfg> ParseCfg(const std::string& text) {
  const std::vector<std::string> parts = StrSplit(text, ';');
  if (parts.empty()) return Status::Corruption("empty cfg encoding");
  const std::vector<std::string> header = StrSplit(parts[0], ' ');
  if (header.size() != 2) return Status::Corruption("bad cfg header");

  auto to_int = [](const std::string& s, int* out) {
    char* end = nullptr;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0') return false;
    *out = static_cast<int>(v);
    return true;
  };

  int entry = 0, exit = 0;
  if (!to_int(header[0], &entry) || !to_int(header[1], &exit)) {
    return Status::Corruption("bad cfg header numbers");
  }
  std::vector<CfgNode> nodes;
  for (size_t i = 1; i < parts.size(); ++i) {
    const std::vector<std::string> fields = StrSplit(parts[i], ',');
    if (fields.size() < 2) return Status::Corruption("bad cfg node");
    CfgNode node;
    int kind = 0;
    if (!to_int(fields[0], &kind) || kind < 0 || kind > 3) {
      return Status::Corruption("bad cfg node kind");
    }
    node.kind = static_cast<CfgNodeKind>(kind);
    if (!to_int(fields[1], &node.stmt_count)) {
      return Status::Corruption("bad cfg stmt count");
    }
    for (size_t f = 2; f < fields.size(); ++f) {
      int succ = 0;
      if (!to_int(fields[f], &succ)) {
        return Status::Corruption("bad cfg successor");
      }
      node.successors.push_back(succ);
    }
    nodes.push_back(std::move(node));
  }
  const int n = static_cast<int>(nodes.size());
  if (entry < 0 || entry >= n || exit < 0 || exit >= n) {
    return Status::Corruption("cfg entry/exit out of range");
  }
  for (const CfgNode& node : nodes) {
    for (int succ : node.successors) {
      if (succ < 0 || succ >= n) {
        return Status::Corruption("cfg successor out of range");
      }
    }
  }
  return Cfg(std::move(nodes), entry, exit);
}

std::string Cfg::ToDot(const std::string& graph_name) const {
  std::string out = "digraph " + graph_name + " {\n";
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const CfgNode& node = nodes_[i];
    std::string shape;
    switch (node.kind) {
      case CfgNodeKind::kEntry:
      case CfgNodeKind::kExit:
        shape = "oval";
        break;
      case CfgNodeKind::kBlock:
        shape = "box";
        break;
      case CfgNodeKind::kBranch:
        shape = "diamond";
        break;
    }
    out += "  n" + std::to_string(i) + " [shape=" + shape + ", label=\"" +
           (node.label.empty() ? KindName(node.kind) : node.label) + "\"];\n";
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (int succ : nodes_[i].successors) {
      if (succ >= 0) {
        out += "  n" + std::to_string(i) + " -> n" + std::to_string(succ) +
               ";\n";
      }
    }
  }
  out += "}\n";
  return out;
}

}  // namespace pstorm::staticanalysis
