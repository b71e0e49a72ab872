// Unit tests for SGB-Greedy, CT-Greedy and WT-Greedy, including the
// paper's Fig. 2 worked example (SGB=5, CT=4, WT=3).

#include "core/greedy.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/fixtures.h"
#include "reference/greedy_reference.h"
#include "reference/naive_engine.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::Graph;
using graph::MakeEdgeKey;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

TppInstance InstanceFromFig2() {
  graph::Fig2StyleExample fx = graph::MakeFig2StyleExample();
  TppInstance inst;
  inst.released = fx.graph;
  inst.targets = fx.targets;
  inst.motif = motif::MotifKind::kTriangle;
  return inst;
}

TEST(SgbGreedyTest, Fig2ExampleGainsFive) {
  TppInstance inst = InstanceFromFig2();
  graph::Fig2StyleExample fx = graph::MakeFig2StyleExample();
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *SgbGreedy(engine, 2);
  EXPECT_EQ(result.initial_similarity, 7u);
  EXPECT_EQ(result.TotalGain(), 5u);
  ASSERT_EQ(result.protectors.size(), 2u);
  // First pick must be p2 (breaks 3 triangles).
  EXPECT_EQ(result.protectors[0], fx.p2);
  EXPECT_EQ(result.picks[0].realized_gain, 3u);
  EXPECT_EQ(result.picks[1].realized_gain, 2u);
}

TEST(CtGreedyTest, Fig2ExampleGainsFour) {
  TppInstance inst = InstanceFromFig2();
  graph::Fig2StyleExample fx = graph::MakeFig2StyleExample();
  IndexedEngine engine = *IndexedEngine::Create(inst);
  // Budgets: t1 and t2 get 1 each, other targets 0 (paper Fig. 2 setup).
  ProtectionResult result = *CtGreedy(engine, {1, 1, 0, 0, 0});
  EXPECT_EQ(result.TotalGain(), 4u);
  ASSERT_EQ(result.protectors.size(), 2u);
  // CT first spends t2's budget on p2 (own 1, cross 2 beats all).
  EXPECT_EQ(result.protectors[0], fx.p2);
  EXPECT_EQ(result.picks[0].for_target, 1u);
  EXPECT_EQ(result.picks[0].realized_gain, 3u);
  EXPECT_EQ(result.picks[1].realized_gain, 1u);
}

TEST(WtGreedyTest, Fig2ExampleGainsThree) {
  TppInstance inst = InstanceFromFig2();
  graph::Fig2StyleExample fx = graph::MakeFig2StyleExample();
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *WtGreedy(engine, {1, 1, 0, 0, 0});
  EXPECT_EQ(result.TotalGain(), 3u);
  ASSERT_EQ(result.protectors.size(), 2u);
  // WT serves t1 first: picks p1 (own 1, cross 1 beats q1's own 1 cross 0).
  EXPECT_EQ(result.protectors[0], fx.p1);
  EXPECT_EQ(result.picks[0].for_target, 0u);
  EXPECT_EQ(result.picks[0].realized_gain, 2u);
  EXPECT_EQ(result.picks[1].for_target, 1u);
  EXPECT_EQ(result.picks[1].realized_gain, 1u);
}

TEST(SgbGreedyTest, StopsWhenNoGainRemains) {
  // Single triangle: after breaking it, further budget is unused.
  Graph g = MakeGraph(3, {{0, 1}, {0, 2}, {2, 1}});
  TppInstance inst = *MakeInstance(g, {E(0, 1)}, motif::MotifKind::kTriangle);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *SgbGreedy(engine, 10);
  EXPECT_EQ(result.protectors.size(), 1u);
  EXPECT_EQ(result.final_similarity, 0u);
}

TEST(SgbGreedyTest, ZeroBudgetDeletesNothing) {
  TppInstance inst = InstanceFromFig2();
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *SgbGreedy(engine, 0);
  EXPECT_TRUE(result.protectors.empty());
  EXPECT_EQ(result.final_similarity, result.initial_similarity);
}

// Equal-gain tie-break regression: a star gadget where EVERY candidate has
// the same gain, so selection order is decided purely by the tie-break.
// Nodes u=0, v=1 share neighbors w=2..5; the hidden target is (0,1), so
// each w forms one triangle target subgraph {(0,w), (1,w)}. All 8 released
// edges start at gain 1; the required picks are (0,2),(0,3),(0,4),(0,5) —
// smallest edge key first, with each pick zeroing its partner edge. The
// production loop and the cold reference must both produce exactly this
// order, on both engines and both scopes.
TEST(SgbGreedyTest, EqualGainTieBreaksBySmallestEdgeKey) {
  Graph g(6);
  for (graph::NodeId w = 2; w <= 5; ++w) {
    ASSERT_TRUE(g.AddEdge(0, w).ok());
    ASSERT_TRUE(g.AddEdge(1, w).ok());
  }
  TppInstance inst;
  inst.released = g;
  inst.targets = {Edge(0, 1)};
  inst.motif = motif::MotifKind::kTriangle;
  const std::vector<Edge> expected = {Edge(0, 2), Edge(0, 3), Edge(0, 4),
                                      Edge(0, 5)};
  for (CandidateScope scope :
       {CandidateScope::kAllEdges, CandidateScope::kTargetSubgraphEdges}) {
    GreedyOptions options;
    options.scope = scope;
    for (bool cold : {false, true}) {
      for (int engine_kind = 0; engine_kind < 2; ++engine_kind) {
        SCOPED_TRACE(std::string(cold ? "cold" : "production") +
                     (scope == CandidateScope::kAllEdges ? "/all"
                                                         : "/subgraph") +
                     (engine_kind == 0 ? "/indexed" : "/naive"));
        IndexedEngine indexed = *IndexedEngine::Create(inst);
        NaiveEngine naive(inst);
        Engine& engine =
            engine_kind == 0 ? static_cast<Engine&>(indexed) : naive;
        auto result = cold ? SgbGreedyCold(engine, 4, options)
                           : SgbGreedy(engine, 4, options);
        ASSERT_TRUE(result.ok());
        ASSERT_EQ(result->protectors.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(result->protectors[i], expected[i]) << "pick " << i;
          EXPECT_EQ(result->picks[i].realized_gain, 1u);
        }
        EXPECT_EQ(result->final_similarity, 0u);
      }
    }
  }
}

TEST(SgbGreedyTest, RestrictedScopeSameResult) {
  TppInstance inst = InstanceFromFig2();
  IndexedEngine full_engine = *IndexedEngine::Create(inst);
  IndexedEngine r_engine = *IndexedEngine::Create(inst);
  GreedyOptions full_opts;
  GreedyOptions r_opts;
  r_opts.scope = CandidateScope::kTargetSubgraphEdges;
  ProtectionResult full = *SgbGreedy(full_engine, 3, full_opts);
  ProtectionResult restricted = *SgbGreedy(r_engine, 3, r_opts);
  ASSERT_EQ(full.protectors.size(), restricted.protectors.size());
  for (size_t i = 0; i < full.protectors.size(); ++i) {
    EXPECT_EQ(full.protectors[i], restricted.protectors[i]);
  }
}

TEST(CtGreedyTest, BudgetVectorSizeValidated) {
  TppInstance inst = InstanceFromFig2();
  IndexedEngine engine = *IndexedEngine::Create(inst);
  EXPECT_FALSE(CtGreedy(engine, {1, 1}).ok());
  EXPECT_FALSE(WtGreedy(engine, {1}).ok());
}

TEST(CtGreedyTest, SpendsCrossBudgetWhenOwnGainZero) {
  // Target 0 has no subgraphs; its budget can still help target 1 via a
  // cross-gain-only pick (paper: "additionally help other targets").
  Graph g = MakeGraph(5, {{0, 1}, {2, 3}, {2, 4}, {4, 3}});
  TppInstance inst =
      *MakeInstance(g, {E(0, 1), E(2, 3)}, motif::MotifKind::kTriangle);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *CtGreedy(engine, {1, 0});
  ASSERT_EQ(result.protectors.size(), 1u);
  EXPECT_EQ(result.picks[0].for_target, 0u);
  EXPECT_EQ(result.TotalGain(), 1u);
}

TEST(WtGreedyTest, SkipsExhaustedTargetAndContinues) {
  // Target 0 has no subgraphs (own gain 0 immediately); WT must move on
  // and still protect target 1 — this is the documented deviation from
  // the paper's literal "return".
  Graph g = MakeGraph(5, {{0, 1}, {2, 3}, {2, 4}, {4, 3}});
  TppInstance inst =
      *MakeInstance(g, {E(0, 1), E(2, 3)}, motif::MotifKind::kTriangle);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *WtGreedy(engine, {2, 2});
  EXPECT_EQ(result.final_similarity, 0u);
  ASSERT_EQ(result.protectors.size(), 1u);
  EXPECT_EQ(result.picks[0].for_target, 1u);
}

TEST(FullProtectionTest, ReachesZeroSimilarity) {
  Graph g = graph::MakeKarateClub();
  Rng rng(3);
  auto targets = *SampleTargets(g, 5, rng);
  TppInstance inst = *MakeInstance(g, targets, motif::MotifKind::kTriangle);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *FullProtection(engine);
  EXPECT_EQ(result.final_similarity, 0u);
  // k* is at most the initial similarity (each pick breaks >= 1 instance).
  EXPECT_LE(result.protectors.size(), result.initial_similarity);
}

TEST(GreedyTest, PickTracesAreConsistent) {
  TppInstance inst = InstanceFromFig2();
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *SgbGreedy(engine, 3);
  size_t sim = result.initial_similarity;
  for (const PickTrace& pick : result.picks) {
    ASSERT_GE(sim, pick.realized_gain);
    sim -= pick.realized_gain;
    EXPECT_EQ(pick.similarity_after, sim);
  }
  EXPECT_EQ(sim, result.final_similarity);
  // Cumulative timestamps are monotone.
  for (size_t i = 1; i < result.picks.size(); ++i) {
    EXPECT_GE(result.picks[i].cumulative_seconds,
              result.picks[i - 1].cumulative_seconds);
  }
}

TEST(GreedyTest, NaiveEngineProducesSamePicksAsIndexed) {
  TppInstance inst = InstanceFromFig2();
  NaiveEngine naive(inst);
  IndexedEngine indexed = *IndexedEngine::Create(inst);
  ProtectionResult rn = *SgbGreedy(naive, 3);
  ProtectionResult ri = *SgbGreedy(indexed, 3);
  ASSERT_EQ(rn.protectors.size(), ri.protectors.size());
  for (size_t i = 0; i < rn.protectors.size(); ++i) {
    EXPECT_EQ(rn.protectors[i], ri.protectors[i]);
  }
}

}  // namespace
}  // namespace tpp::core
