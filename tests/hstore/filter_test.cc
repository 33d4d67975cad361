#include "hstore/filter.h"

#include <gtest/gtest.h>

namespace pstorm::hstore {
namespace {

RowResult MakeRow(const std::string& row,
                  std::initializer_list<std::pair<const char*, const char*>>
                      cells) {
  RowResult out(row);
  for (const auto& [qualifier, value] : cells) {
    out.AddCell(Cell{"F", qualifier, value, 1});
  }
  return out;
}

TEST(PrefixFilterTest, MatchesPrefixOnly) {
  PrefixFilter filter("Dynamic/");
  EXPECT_TRUE(filter.Matches(MakeRow("Dynamic/Job1", {})));
  EXPECT_FALSE(filter.Matches(MakeRow("Static/Job1", {})));
  EXPECT_FALSE(filter.Matches(MakeRow("Dyn", {})));
  EXPECT_NE(filter.Describe().find("Dynamic/"), std::string::npos);
}

struct CompareCase {
  CompareOp op;
  const char* name;
  bool lt_matches;
  bool eq_matches;
  bool gt_matches;
};

// gtest would otherwise print the name as a pointer, whose value changes
// every run, into the ctest name of each case.
void PrintTo(const CompareCase& c, std::ostream* os) { *os << c.name; }

class CompareOpTest : public ::testing::TestWithParam<CompareCase> {};

TEST_P(CompareOpTest, ComparesBytes) {
  // Row value fixed at "m"; probe each operator against operands below,
  // equal to, and above it.
  const auto [op, name, lt_matches, eq_matches, gt_matches] = GetParam();
  (void)name;
  const RowResult row = MakeRow("r", {{"q", "m"}});
  EXPECT_EQ(ColumnValueFilter("F", "q", op, "z").Matches(row), lt_matches)
      << "value < operand";
  EXPECT_EQ(ColumnValueFilter("F", "q", op, "m").Matches(row), eq_matches)
      << "value == operand";
  EXPECT_EQ(ColumnValueFilter("F", "q", op, "a").Matches(row), gt_matches)
      << "value > operand";
}

INSTANTIATE_TEST_SUITE_P(
    Ops, CompareOpTest,
    ::testing::Values(
        CompareCase{CompareOp::kEqual, "eq", false, true, false},
        CompareCase{CompareOp::kNotEqual, "ne", true, false, true},
        CompareCase{CompareOp::kLess, "lt", true, false, false},
        CompareCase{CompareOp::kLessOrEqual, "le", true, true, false},
        CompareCase{CompareOp::kGreater, "gt", false, false, true},
        CompareCase{CompareOp::kGreaterOrEqual, "ge", false, true, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ColumnValueFilterTest, MissingColumnNeverMatches) {
  const RowResult row = MakeRow("r", {{"other", "x"}});
  for (CompareOp op : {CompareOp::kEqual, CompareOp::kNotEqual,
                       CompareOp::kLess, CompareOp::kGreater}) {
    EXPECT_FALSE(ColumnValueFilter("F", "q", op, "x").Matches(row));
  }
}

TEST(AndFilterTest, EmptyConjunctionMatchesEverything) {
  AndFilter filter({});
  EXPECT_TRUE(filter.Matches(MakeRow("anything", {})));
}

TEST(AndFilterTest, AllChildrenMustMatch) {
  std::vector<std::shared_ptr<const RowFilter>> children = {
      std::make_shared<PrefixFilter>("Dyn"),
      std::make_shared<ColumnValueFilter>("F", "q", CompareOp::kEqual, "1"),
  };
  AndFilter filter(std::move(children));
  EXPECT_TRUE(filter.Matches(MakeRow("Dynamic/J", {{"q", "1"}})));
  EXPECT_FALSE(filter.Matches(MakeRow("Static/J", {{"q", "1"}})));
  EXPECT_FALSE(filter.Matches(MakeRow("Dynamic/J", {{"q", "2"}})));
  EXPECT_NE(filter.Describe().find("and("), std::string::npos);
}

TEST(RowResultTest, AccessorsAndPayload) {
  RowResult row = MakeRow("r", {{"a", "1"}, {"b", "22"}});
  EXPECT_EQ(row.num_cells(), 2u);
  EXPECT_EQ(*row.GetValue("F", "a"), "1");
  EXPECT_EQ(row.GetValue("F", "nope"), nullptr);
  EXPECT_EQ(row.GetValue("X", "a"), nullptr);
  const auto family_map = row.FamilyMap("F");
  EXPECT_EQ(family_map.size(), 2u);
  EXPECT_EQ(family_map.at("b"), "22");
  // row(1) + 2 * family(1) + "a"+"1" (2) + "b"+"22" (3) = 8.
  EXPECT_EQ(row.PayloadBytes(), 8u);
}

}  // namespace
}  // namespace pstorm::hstore
