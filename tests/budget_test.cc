// Tests for the TBD / DBD budget division strategies.

#include "core/budget.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/indexed_engine.h"
#include "graph/fixtures.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

size_t Sum(const std::vector<size_t>& v) {
  return std::accumulate(v.begin(), v.end(), size_t{0});
}

TEST(ProportionalDivisionTest, SumsToK) {
  auto out = ProportionalDivision({1.0, 2.0, 3.0}, 12, {});
  EXPECT_EQ(Sum(out), 12u);
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[1], 4u);
  EXPECT_EQ(out[2], 6u);
}

TEST(ProportionalDivisionTest, LargestRemainderRounding) {
  // Ideal shares: 3.33, 3.33, 3.33 -> one target gets the spare unit,
  // deterministically the first by index.
  auto out = ProportionalDivision({1.0, 1.0, 1.0}, 10, {});
  EXPECT_EQ(Sum(out), 10u);
  EXPECT_EQ(out[0], 4u);
  EXPECT_EQ(out[1], 3u);
  EXPECT_EQ(out[2], 3u);
}

TEST(ProportionalDivisionTest, RespectsCaps) {
  auto out = ProportionalDivision({10.0, 1.0}, 10, {3, 10});
  EXPECT_EQ(out[0], 3u);  // capped
  EXPECT_EQ(out[1], 7u);  // receives the spill
  EXPECT_EQ(Sum(out), 10u);
}

TEST(ProportionalDivisionTest, TotalCapBindsBelowK) {
  auto out = ProportionalDivision({1.0, 1.0}, 10, {2, 3});
  EXPECT_EQ(Sum(out), 5u);  // caps saturate before k
  EXPECT_EQ(out[0], 2u);
  EXPECT_EQ(out[1], 3u);
}

TEST(ProportionalDivisionTest, ZeroWeightsSplitUniformly) {
  auto out = ProportionalDivision({0.0, 0.0, 0.0, 0.0}, 8, {});
  EXPECT_EQ(Sum(out), 8u);
  for (size_t b : out) EXPECT_EQ(b, 2u);
}

TEST(ProportionalDivisionTest, EmptyAndZeroBudget) {
  EXPECT_TRUE(ProportionalDivision({}, 5, {}).empty());
  auto out = ProportionalDivision({1.0, 2.0}, 0, {});
  EXPECT_EQ(Sum(out), 0u);
}

TEST(ProportionalDivisionTest, ZeroWeightTargetGetsNothingWhenOthersExist) {
  auto out = ProportionalDivision({0.0, 5.0}, 4, {});
  EXPECT_EQ(out[0], 0u);
  EXPECT_EQ(out[1], 4u);
}

TEST(DivideBudgetTbdTest, ProportionalToSimilarityAndCapped) {
  // |W| = {4, 2, 0}: target with zero subgraphs gets nothing; budgets
  // never exceed |W_t|.
  auto out = DivideBudgetTbd({4, 2, 0}, 6);
  EXPECT_EQ(out[0], 4u);
  EXPECT_EQ(out[1], 2u);
  EXPECT_EQ(out[2], 0u);
  // Budget exceeding the total similarity saturates at the caps.
  auto big = DivideBudgetTbd({4, 2, 0}, 100);
  EXPECT_EQ(big[0], 4u);
  EXPECT_EQ(big[1], 2u);
  EXPECT_EQ(big[2], 0u);
}

TEST(DivideBudgetDbdTest, ProportionalToDegreeProduct) {
  // Star with center 0: target (0,1) has degree product deg(0)*deg(1);
  // make the instance so degrees in the released graph drive the split.
  graph::Graph g = MakeGraph(6, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2},
                                 {4, 5}});
  TppInstance inst =
      *MakeInstance(g, {E(0, 1), E(4, 5)}, motif::MotifKind::kTriangle);
  // Released degrees: deg(0)=3, deg(1)=1 -> w0 = 3; deg(4)=1, deg(5)=0 ->
  // w1 = 0. All budget goes to target 0.
  auto out = DivideBudgetDbd(inst.released, inst.targets, 5);
  EXPECT_EQ(out[0], 5u);
  EXPECT_EQ(out[1], 0u);
}

TEST(BudgetDivisionNameTest, Names) {
  EXPECT_EQ(BudgetDivisionName(BudgetDivision::kTargetSubgraphBased), "TBD");
  EXPECT_EQ(BudgetDivisionName(BudgetDivision::kDegreeProductBased), "DBD");
}

}  // namespace
}  // namespace tpp::core
