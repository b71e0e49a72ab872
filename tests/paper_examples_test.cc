// Direct reproductions of the paper's worked illustrations:
//   * Fig. 1 — the four submodularity case analyses (Lemma 2 proof) for
//     each motif, realized on concrete graphs;
//   * Fig. 2 — the SGB=5 / CT=4 / WT=3 comparison (via fixtures);
//   * the Introduction's patient–doctor motivating scenario.

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/fixtures.h"
#include "linkpred/indices.h"
#include "motif/enumerate.h"
#include "motif/incidence_index.h"
#include "test_util.h"

namespace tpp {
namespace {

using ::tpp::testing::BuildFreshIndex;
using core::IndexedEngine;
using core::MakeInstance;
using core::TppInstance;
using graph::Edge;
using graph::Graph;
using motif::MotifKind;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

// Marginal dissimilarity gain of deleting `p` after deleting `prior`.
size_t MarginalGain(const TppInstance& inst, const std::vector<Edge>& prior,
                    Edge p) {
  motif::IncidenceIndex idx = *BuildFreshIndex(
      inst.released, inst.targets, inst.motif);
  for (const Edge& e : prior) idx.DeleteEdge(e.Key());
  return idx.Gain(p.Key());
}

// Fig. 1, Triangle pattern: one target triangle {x, p}; the four location
// combinations of a prior deletion x and a probe p.
TEST(Fig1Cases, TriangleSubmodularityCases) {
  // Triangle over (0,1) via w=2: instance edges x=(0,2), p=(2,1); plus an
  // unrelated edge o=(3,4).
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {2, 1}, {3, 4}});
  TppInstance inst = *MakeInstance(g, {E(0, 1)}, MotifKind::kTriangle);
  const Edge x(0, 2), p(2, 1), o(3, 4);
  // Case 1: both outside any target subgraph -> both gains 0.
  EXPECT_EQ(MarginalGain(inst, {}, o), 0u);
  EXPECT_EQ(MarginalGain(inst, {o}, o), 0u);
  // Case 2: both in the same instance: gain at A=empty is 1, at B={x} is 0
  // (the strict submodularity case of the paper's proof).
  EXPECT_EQ(MarginalGain(inst, {}, p), 1u);
  EXPECT_EQ(MarginalGain(inst, {x}, p), 0u);
  // Case 3: p inside, x outside -> equal gains 1.
  EXPECT_EQ(MarginalGain(inst, {o}, p), 1u);
  // Case 4: p outside, x inside -> equal gains 0.
  EXPECT_EQ(MarginalGain(inst, {x}, o), 0u);
}

TEST(Fig1Cases, RectangleSubmodularityCases) {
  // Rectangle over (0,1): 3-path 0-2-3-1, instance {x=(0,2), m=(2,3),
  // p=(3,1)}; unrelated o=(4,5).
  Graph g = MakeGraph(6, {{0, 1}, {0, 2}, {2, 3}, {3, 1}, {4, 5}});
  TppInstance inst = *MakeInstance(g, {E(0, 1)}, MotifKind::kRectangle);
  const Edge x(0, 2), p(3, 1), o(4, 5);
  EXPECT_EQ(MarginalGain(inst, {}, p), 1u);
  EXPECT_EQ(MarginalGain(inst, {x}, p), 0u);  // prior deletion broke it
  EXPECT_EQ(MarginalGain(inst, {o}, p), 1u);
  EXPECT_EQ(MarginalGain(inst, {x}, o), 0u);
}

TEST(Fig1Cases, RecTriSubmodularityCases) {
  // RecTri over (0,1): 2-path via w=2 and 3-path 0-2-3-1; instance
  // {(0,2), (2,1), (2,3), (3,1)}; unrelated o=(4,5).
  Graph g = MakeGraph(6, {{0, 1}, {0, 2}, {2, 1}, {2, 3}, {3, 1}, {4, 5}});
  TppInstance inst = *MakeInstance(g, {E(0, 1)}, MotifKind::kRecTri);
  const Edge x(2, 3), p(2, 1), o(4, 5);
  EXPECT_EQ(MarginalGain(inst, {}, p), 1u);
  EXPECT_EQ(MarginalGain(inst, {x}, p), 0u);
  EXPECT_EQ(MarginalGain(inst, {o}, p), 1u);
  EXPECT_EQ(MarginalGain(inst, {x}, o), 0u);
}

// Fig. 2 numbers are asserted in greedy_test.cc; here we assert the
// qualitative ordering the figure illustrates.
TEST(Fig2Ordering, SgbBeatsCtBeatsWt) {
  graph::Fig2StyleExample fx = graph::MakeFig2StyleExample();
  TppInstance inst;
  inst.released = fx.graph;
  inst.targets = fx.targets;
  inst.motif = MotifKind::kTriangle;
  IndexedEngine e1 = *IndexedEngine::Create(inst);
  IndexedEngine e2 = *IndexedEngine::Create(inst);
  IndexedEngine e3 = *IndexedEngine::Create(inst);
  size_t sgb = core::SgbGreedy(e1, 2)->TotalGain();
  size_t ct = core::CtGreedy(e2, {1, 1, 0, 0, 0})->TotalGain();
  size_t wt = core::WtGreedy(e3, {1, 1, 0, 0, 0})->TotalGain();
  EXPECT_GT(sgb, ct);
  EXPECT_GT(ct, wt);
}

// Introduction scenario: a patient who hides the link to a cancer doctor.
// Deleting the link alone is insufficient — the triangle through their
// common acquaintance still gives the attacker a common-neighbor signal;
// one protector deletion removes it.
TEST(MotivatingScenario, PatientDoctorLinkHiding) {
  // 0=patient, 1=doctor, 2=nurse (knows both), 3..5=other contacts.
  Graph g = MakeGraph(6, {{0, 1},   // the sensitive visit
                          {0, 2}, {2, 1},   // nurse knows both
                          {0, 3}, {0, 4},   // patient's friends
                          {1, 5}});         // doctor's other patient
  // Phase 1 only: target removed, but the inference signal remains.
  TppInstance inst = *MakeInstance(g, {E(0, 1)}, MotifKind::kTriangle);
  EXPECT_GT(linkpred::Score(inst.released, 0, 1,
                            linkpred::IndexKind::kCommonNeighbors),
            0.0);
  // Phase 2: one protector deletion achieves full protection.
  IndexedEngine engine = *IndexedEngine::Create(inst);
  core::ProtectionResult result = *core::FullProtection(engine);
  EXPECT_EQ(result.protectors.size(), 1u);
  EXPECT_EQ(result.final_similarity, 0u);
  EXPECT_DOUBLE_EQ(linkpred::Score(engine.CurrentGraph(), 0, 1,
                                   linkpred::IndexKind::kCommonNeighbors),
                   0.0);
  // The graph keeps everything else: only 2 of 6 links are gone.
  EXPECT_EQ(engine.CurrentGraph().NumEdges(), 4u);
}

// The paper's C constant: with C = s(empty,T), f(P,T) = C - s(P,T) stays
// non-negative and reaches C exactly at full protection.
TEST(DissimilarityConstant, FullProtectionReachesC) {
  Graph g = graph::MakeKarateClub();
  Rng rng(31);
  auto targets = *core::SampleTargets(g, 8, rng);
  TppInstance inst = *MakeInstance(g, targets, MotifKind::kTriangle);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  const size_t c = engine.TotalSimilarity();
  core::ProtectionResult result = *core::FullProtection(engine);
  EXPECT_EQ(result.initial_similarity, c);
  EXPECT_EQ(result.TotalGain(), c);  // dissimilarity rose from 0 to C
}

}  // namespace
}  // namespace tpp
