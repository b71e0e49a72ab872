// Tests for the exhaustive optimal solver.

#include "reference/exhaustive.h"

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/indexed_engine.h"
#include "graph/fixtures.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::Graph;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

TEST(ExhaustiveTest, FindsObviousOptimum) {
  // Two triangles around target (0,1) sharing edge (0,2):
  //   {0-2, 2-1} and {0-3, 3-1}. With k=1 the best single deletion breaks
  //   one instance (no edge covers both).
  Graph g = MakeGraph(4, {{0, 2}, {2, 1}, {0, 3}, {3, 1}});
  TppInstance inst;
  inst.released = g;
  inst.targets = {E(0, 1)};
  inst.motif = motif::MotifKind::kTriangle;
  ExhaustiveResult r1 = *ExhaustiveOptimal(inst, 1);
  EXPECT_EQ(r1.best_gain, 1u);
  EXPECT_EQ(r1.best_set.size(), 1u);
  ExhaustiveResult r2 = *ExhaustiveOptimal(inst, 2);
  EXPECT_EQ(r2.best_gain, 2u);
}

TEST(ExhaustiveTest, SharedEdgeOptimum) {
  // Fig.2-style: one edge covering three instances beats any pair of
  // single-coverage edges at k=1.
  graph::Fig2StyleExample fx = graph::MakeFig2StyleExample();
  TppInstance inst;
  inst.released = fx.graph;
  inst.targets = fx.targets;
  inst.motif = motif::MotifKind::kTriangle;
  ExhaustiveResult r = *ExhaustiveOptimal(inst, 1);
  EXPECT_EQ(r.best_gain, 3u);
  ASSERT_EQ(r.best_set.size(), 1u);
  EXPECT_EQ(r.best_set[0], fx.p2);
  // k=2: p2 + p3 gives 5, which greedy also reaches here.
  ExhaustiveResult r2 = *ExhaustiveOptimal(inst, 2);
  EXPECT_EQ(r2.best_gain, 5u);
}

TEST(ExhaustiveTest, KLargerThanCandidatesCoversEverything) {
  Graph g = MakeGraph(4, {{0, 2}, {2, 1}, {0, 3}, {3, 1}});
  TppInstance inst;
  inst.released = g;
  inst.targets = {E(0, 1)};
  inst.motif = motif::MotifKind::kTriangle;
  ExhaustiveResult r = *ExhaustiveOptimal(inst, 10);
  EXPECT_EQ(r.best_gain, 2u);
}

TEST(ExhaustiveTest, GuardsAgainstBlowup) {
  Graph g = graph::MakeKarateClub();
  Rng rng(1);
  auto targets = *SampleTargets(g, 10, rng);
  TppInstance inst = *MakeInstance(g, targets, motif::MotifKind::kRectangle);
  Result<ExhaustiveResult> r = ExhaustiveOptimal(inst, 10, /*max_subsets=*/100);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(ExhaustiveTest, EmptyInstanceGivesZero) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  TppInstance inst = *MakeInstance(g, {E(0, 1)}, motif::MotifKind::kTriangle);
  ExhaustiveResult r = *ExhaustiveOptimal(inst, 3);
  EXPECT_EQ(r.best_gain, 0u);
  EXPECT_TRUE(r.best_set.empty());
}

}  // namespace
}  // namespace tpp::core
