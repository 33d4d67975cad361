#include "staticanalysis/cfg.h"

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/random.h"
#include "jobs/benchmark_jobs.h"
#include "staticanalysis/cfg_matcher.h"
#include "staticanalysis/features.h"
#include "tools/synthetic_corpus.h"
#include "test_strings.h"

namespace pstorm::staticanalysis {
namespace {

/// The thesis Algorithm 1: word count map — one loop containing the emit.
FunctionIr WordCountMap() {
  return {"WordCountMapper.map",
          Seq({Op("tokenize line"),
               Loop("hasMoreTokens", Seq({Op("currentToken"), Emit()}))})};
}

/// The thesis Algorithm 2: word co-occurrence map — outer loop, inner
/// condition, inner loop.
FunctionIr CoocMap() {
  return {"CoocMapper.map",
          Seq({Op("window = getUserParameter"), Op("extractWords"),
               Loop("i < words.length",
                    If("isNotEmpty(words[i])",
                       Loop("j < i + window",
                            Seq({Op("pair = (words[i], words[j])"),
                                 Emit()}))))})};
}

FunctionIr IdentityMap() { return {"IdentityMapper.map", Emit()}; }

TEST(CfgBuilderTest, StraightLineIsSingleBlock) {
  const Cfg cfg = BuildCfg(
      {"f", Seq({Op("a"), Op("b"), Op("c"), Emit()})});
  EXPECT_EQ(cfg.num_branches(), 0);
  EXPECT_EQ(cfg.num_blocks(), 1) << "simple runs collapse into one vertex";
  EXPECT_EQ(cfg.nodes()[1].stmt_count, 4);
  EXPECT_EQ(cfg.num_back_edges(), 0);
}

TEST(CfgBuilderTest, EmptyFunctionIsEntryToExit) {
  const Cfg cfg = BuildCfg({"f", nullptr});
  EXPECT_EQ(cfg.num_blocks(), 0);
  EXPECT_EQ(cfg.num_branches(), 0);
  // Entry flows straight to exit.
  EXPECT_EQ(cfg.nodes()[cfg.entry()].successors[0], cfg.exit());
}

TEST(CfgBuilderTest, WordCountHasOneLoopCycle) {
  const Cfg cfg = BuildCfg(WordCountMap());
  EXPECT_EQ(cfg.num_branches(), 1);
  EXPECT_EQ(cfg.num_back_edges(), 1) << "the while loop is a cycle";
}

TEST(CfgBuilderTest, CoocHasNestedStructure) {
  const Cfg cfg = BuildCfg(CoocMap());
  EXPECT_EQ(cfg.num_branches(), 3);  // Outer loop, if, inner loop.
  // Two loop bodies cycle back, and both the if-false edge and the inner
  // loop's exit continue to the outer loop header: 3 backward edges.
  EXPECT_EQ(cfg.num_back_edges(), 3);
}

TEST(CfgBuilderTest, IfElseBothBranchesConverge) {
  const Cfg cfg = BuildCfg(
      {"f", IfElse("cond", Op("then"), Op("else"))});
  EXPECT_EQ(cfg.num_branches(), 1);
  EXPECT_EQ(cfg.num_blocks(), 2);
  EXPECT_EQ(cfg.num_back_edges(), 0);
  // Both branch targets are set.
  for (const CfgNode& node : cfg.nodes()) {
    for (int succ : node.successors) EXPECT_GE(succ, 0);
  }
}

TEST(CfgBuilderTest, DeterministicNodeNumbering) {
  const Cfg a = BuildCfg(CoocMap());
  const Cfg b = BuildCfg(CoocMap());
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(CfgBuilderTest, DotRenderingMentionsAllNodes) {
  const Cfg cfg = BuildCfg(WordCountMap());
  const std::string dot = cfg.ToDot("wordcount_map");
  EXPECT_NE(dot.find("digraph wordcount_map"), std::string::npos);
  for (size_t i = 0; i < cfg.nodes().size(); ++i) {
    EXPECT_NE(dot.find(Numbered("n", i) + " ["), std::string::npos);
  }
}

TEST(CfgMatcherTest, IdenticalFunctionsMatch) {
  EXPECT_TRUE(MatchCfgs(BuildCfg(WordCountMap()), BuildCfg(WordCountMap())));
  EXPECT_TRUE(MatchCfgs(BuildCfg(CoocMap()), BuildCfg(CoocMap())));
}

TEST(CfgMatcherTest, WordCountAndCoocDiffer) {
  // The Figure 4.2 pair: different loop/branch structure -> mismatch.
  EXPECT_FALSE(MatchCfgs(BuildCfg(WordCountMap()), BuildCfg(CoocMap())));
}

TEST(CfgMatcherTest, MatchIsSymmetric) {
  const Cfg wc = BuildCfg(WordCountMap());
  const Cfg cooc = BuildCfg(CoocMap());
  EXPECT_EQ(MatchCfgs(wc, cooc), MatchCfgs(cooc, wc));
  EXPECT_TRUE(MatchCfgs(wc, wc));
}

TEST(CfgMatcherTest, RobustToRenamedOperations) {
  // A while-loop word count and a re-labelled equivalent: same shape, so
  // they match — this is the robustness-to-rewrites property of §4.1.3.
  FunctionIr variant{"OtherWordCount.map",
                     Seq({Op("split into words"),
                          Loop("more words?", Seq({Op("next"), Emit()}))})};
  EXPECT_TRUE(MatchCfgs(BuildCfg(WordCountMap()), BuildCfg(variant)));
}

TEST(CfgMatcherTest, BlockSizeOptionTightensMatch) {
  FunctionIr two_ops{"f", Seq({Op("a"), Op("b")})};
  FunctionIr three_ops{"g", Seq({Op("a"), Op("b"), Op("c")})};
  EXPECT_TRUE(MatchCfgs(BuildCfg(two_ops), BuildCfg(three_ops)));
  CfgMatchOptions strict;
  strict.compare_block_sizes = true;
  EXPECT_FALSE(MatchCfgs(BuildCfg(two_ops), BuildCfg(three_ops), strict));
}

TEST(CfgMatcherTest, LoopVersusStraightLineDiffer) {
  EXPECT_FALSE(
      MatchCfgs(BuildCfg(WordCountMap()), BuildCfg(IdentityMap())));
}

TEST(CfgMatcherTest, IfWithAndWithoutElseDiffer) {
  const Cfg with_else =
      BuildCfg({"f", IfElse("c", Op("a"), Op("b"))});
  const Cfg without_else = BuildCfg({"f", If("c", Op("a"))});
  EXPECT_FALSE(MatchCfgs(with_else, without_else));
}

TEST(CfgMatcherTest, NestedLoopOrderMatters) {
  // loop{ if{...} } vs if{ loop{...} } must not match.
  const Cfg loop_if = BuildCfg({"f", Loop("l", If("c", Emit()))});
  const Cfg if_loop = BuildCfg({"f", If("c", Loop("l", Emit()))});
  EXPECT_FALSE(MatchCfgs(loop_if, if_loop));
}

// ---- CfgMatchKey: equal keys exactly when MatchCfgs holds ----

/// The map and reduce CFGs of every benchmark job and of the 12 synthetic
/// archetypes (profile i of the corpus is archetype i % 12).
std::vector<Cfg> RealCfgs() {
  std::vector<Cfg> cfgs;
  for (const jobs::BenchmarkJob& job : jobs::AllBenchmarkJobs()) {
    const StaticFeatures f = ExtractStaticFeatures(job.program);
    cfgs.push_back(f.map_cfg);
    cfgs.push_back(f.reduce_cfg);
  }
  const tools::SyntheticCorpus corpus;
  for (size_t i = 0; i < 12; ++i) {
    const StaticFeatures f = corpus.Make(i).statics;
    cfgs.push_back(f.map_cfg);
    cfgs.push_back(f.reduce_cfg);
  }
  return cfgs;
}

/// A random graph of 1-8 nodes: any kind, statement count and entry, and
/// 0-3 successors per node, a tenth of them missing (-1). Self-loops,
/// repeated successors and unreachable nodes all occur.
Cfg RandomCfg(Rng& rng) {
  const int n = 1 + static_cast<int>(rng.NextUint64(8));
  std::vector<CfgNode> nodes(n);
  for (CfgNode& node : nodes) {
    node.kind = static_cast<CfgNodeKind>(rng.NextUint64(4));
    node.stmt_count = static_cast<int>(rng.NextUint64(3));
    const int degree = static_cast<int>(rng.NextUint64(4));
    for (int i = 0; i < degree; ++i) {
      node.successors.push_back(
          rng.Bernoulli(0.1) ? -1 : static_cast<int>(rng.NextUint64(n)));
    }
  }
  const int entry = static_cast<int>(rng.NextUint64(n));
  return Cfg(std::move(nodes), entry, static_cast<int>(rng.NextUint64(n)));
}

/// `cfg` with its node ids shuffled: isomorphic, so MatchCfgs holds.
Cfg Relabeled(const Cfg& cfg, Rng& rng) {
  const int n = static_cast<int>(cfg.nodes().size());
  std::vector<int> to(n);
  for (int i = 0; i < n; ++i) to[i] = i;
  for (int i = n - 1; i > 0; --i) {
    std::swap(to[i], to[rng.NextUint64(i + 1)]);
  }
  std::vector<CfgNode> nodes(n);
  for (int i = 0; i < n; ++i) {
    CfgNode node = cfg.nodes()[i];
    for (int& succ : node.successors) {
      if (succ >= 0) succ = to[succ];
    }
    nodes[to[i]] = std::move(node);
  }
  return Cfg(std::move(nodes), to[cfg.entry()], to[cfg.exit()]);
}

/// `cfg` with one node's kind, statement count or one successor changed.
/// When that node is unreachable from the entry, the graphs still match.
Cfg Mutated(const Cfg& cfg, Rng& rng) {
  std::vector<CfgNode> nodes = cfg.nodes();
  const int n = static_cast<int>(nodes.size());
  CfgNode& node = nodes[rng.NextUint64(n)];
  switch (rng.NextUint64(3)) {
    case 0:
      node.kind = static_cast<CfgNodeKind>(rng.NextUint64(4));
      break;
    case 1:
      ++node.stmt_count;
      break;
    default:
      if (node.successors.empty()) {
        node.successors.push_back(0);
      } else {
        node.successors[rng.NextUint64(node.successors.size())] =
            static_cast<int>(rng.NextUint64(n));
      }
  }
  return Cfg(std::move(nodes), cfg.entry(), cfg.exit());
}

TEST(CfgMatchKeyTest, EqualKeysExactlyWhenMatchCfgsHolds) {
  std::vector<Cfg> cfgs = RealCfgs();
  cfgs.emplace_back();  // The empty CFG.
  Rng rng(20141);
  for (int i = 0; i < 200; ++i) {
    const Cfg random = RandomCfg(rng);
    const Cfg relabeled = Relabeled(random, rng);
    cfgs.push_back(Mutated(relabeled, rng));
    cfgs.push_back(random);
    cfgs.push_back(relabeled);
  }
  for (bool compare_block_sizes : {false, true}) {
    CfgMatchOptions options;
    options.compare_block_sizes = compare_block_sizes;
    std::vector<std::string> keys;
    for (const Cfg& cfg : cfgs) keys.push_back(CfgMatchKey(cfg, options));
    size_t matches = 0;
    for (size_t a = 0; a < cfgs.size(); ++a) {
      for (size_t b = 0; b < cfgs.size(); ++b) {
        const bool match = MatchCfgs(cfgs[a], cfgs[b], options);
        ASSERT_EQ(keys[a] == keys[b], match)
            << "block sizes " << compare_block_sizes << ", pair " << a
            << "," << b << "\n"
            << cfgs[a].ToString() << "vs\n"
            << cfgs[b].ToString();
        matches += match && a != b;
      }
    }
    // Not vacuous: every relabeled copy matches its original, so
    // hundreds of distinct pairs match.
    EXPECT_GE(matches, 400u) << "block sizes " << compare_block_sizes;
  }
}

/// Graph `index` of an exhaustive space of small graphs: `n` nodes with
/// entry 0, each of any kind (a block of 0 or 1 statements) and with 0-2
/// successors, each missing or any node.
Cfg SmallCfg(int n, uint64_t index) {
  const uint64_t targets = n + 1;  // Missing, or node 0..n-1.
  const uint64_t shapes = 1 + targets + targets * targets;
  std::vector<CfgNode> nodes(n);
  for (CfgNode& node : nodes) {
    const uint64_t kind = index % 5;
    index /= 5;
    node.kind = static_cast<CfgNodeKind>(kind == 4 ? 1 : kind);
    node.stmt_count = kind == 4 ? 1 : 0;
    uint64_t shape = index % shapes;
    index /= shapes;
    const int degree = shape == 0 ? 0 : shape <= targets ? 1 : 2;
    shape -= degree == 0 ? 0 : degree == 1 ? 1 : 1 + targets;
    for (int i = 0; i < degree; ++i) {
      node.successors.push_back(static_cast<int>(shape % targets) - 1);
      shape /= targets;
    }
  }
  return Cfg(std::move(nodes), 0, n - 1);
}

// The random pairs above rarely hit a key collision between graphs that do
// not match; this sweep meets every one among graphs of up to 3 nodes.
TEST(CfgMatchKeyTest, EqualKeysImplyMatchOnEverySmallGraph) {
  for (bool compare_block_sizes : {false, true}) {
    CfgMatchOptions options;
    options.compare_block_sizes = compare_block_sizes;
    // The first graph seen with each key, as (node count, index).
    std::unordered_map<std::string, std::pair<int, uint64_t>> first;
    for (int n = 1; n <= 3; ++n) {
      const uint64_t targets = n + 1;
      uint64_t count = 1;
      for (int i = 0; i < n; ++i) {
        count *= 5 * (1 + targets + targets * targets);
      }
      for (uint64_t index = 0; index < count; ++index) {
        const Cfg cfg = SmallCfg(n, index);
        const auto [it, fresh] =
            first.emplace(CfgMatchKey(cfg, options), std::pair(n, index));
        if (fresh) continue;
        ASSERT_TRUE(MatchCfgs(SmallCfg(it->second.first, it->second.second),
                              cfg, options))
            << "block sizes " << compare_block_sizes << ": equal keys for\n"
            << SmallCfg(it->second.first, it->second.second).ToString()
            << "and\n"
            << cfg.ToString();
      }
    }
    EXPECT_GT(first.size(), 1000u);
  }
}

TEST(CfgMatchKeyTest, BlockSizesEnterTheKeyOnlyWhenCompared) {
  const Cfg two_ops = BuildCfg({"f", Seq({Op("a"), Op("b")})});
  const Cfg three_ops = BuildCfg({"g", Seq({Op("a"), Op("b"), Op("c")})});
  EXPECT_EQ(CfgMatchKey(two_ops), CfgMatchKey(three_ops));
  CfgMatchOptions strict;
  strict.compare_block_sizes = true;
  EXPECT_NE(CfgMatchKey(two_ops, strict), CfgMatchKey(three_ops, strict));
  EXPECT_EQ(CfgMatchKey(Cfg()), "");
}

// ---- ParseCfg: round trips, and damaged encodings fail cleanly ----

TEST(ParseCfgTest, RoundTripsEveryBenchmarkCfgToAnEqualKey) {
  CfgMatchOptions strict;
  strict.compare_block_sizes = true;
  for (const Cfg& cfg : RealCfgs()) {
    const auto parsed = ParseCfg(SerializeCfg(cfg));
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << cfg.ToString();
    EXPECT_EQ(CfgMatchKey(*parsed), CfgMatchKey(cfg));
    EXPECT_EQ(CfgMatchKey(*parsed, strict), CfgMatchKey(cfg, strict));
    EXPECT_EQ(parsed->entry(), cfg.entry());
    EXPECT_EQ(parsed->exit(), cfg.exit());
  }
}

/// A damaged encoding must be Corruption or parse to a CFG whose key can
/// be computed and agrees with MatchCfgs against the original.
void ExpectParsesCleanly(const std::string& text, const Cfg& original,
                         const std::string& what) {
  const auto parsed = ParseCfg(text);
  if (!parsed.ok()) {
    EXPECT_TRUE(parsed.status().IsCorruption()) << what << parsed.status();
    return;
  }
  EXPECT_EQ(CfgMatchKey(*parsed) == CfgMatchKey(original),
            MatchCfgs(*parsed, original))
      << what;
}

TEST(ParseCfgTest, EveryTruncationFailsCleanly) {
  for (const Cfg& cfg : RealCfgs()) {
    const std::string text = SerializeCfg(cfg);
    for (size_t n = 0; n < text.size(); ++n) {
      ExpectParsesCleanly(text.substr(0, n), cfg,
                          "prefix " + std::to_string(n) + " of " + text);
    }
  }
}

TEST(ParseCfgTest, EverySingleByteFlipFailsCleanly) {
  for (const Cfg& cfg : RealCfgs()) {
    const std::string text = SerializeCfg(cfg);
    for (size_t i = 0; i < text.size(); ++i) {
      // Every bit inverted, then the bytes the grammar gives meaning to.
      std::string bytes = "0123456789-;, ";
      bytes.push_back(static_cast<char>(text[i] ^ 0xff));
      for (char c : bytes) {
        std::string bent = text;
        bent[i] = c;
        ExpectParsesCleanly(bent, cfg,
                            "byte " + std::to_string(i) + " of " + text +
                                " set to " + std::string(1, c));
      }
    }
  }
}

TEST(IrTest, CountStatements) {
  const IrStats stats = CountStatements(CoocMap().body);
  EXPECT_EQ(stats.loops, 2);
  EXPECT_EQ(stats.ifs, 1);
  EXPECT_EQ(stats.emits, 1);
  EXPECT_EQ(stats.ops, 3);
  EXPECT_EQ(stats.calls, 0);
}

}  // namespace
}  // namespace pstorm::staticanalysis
