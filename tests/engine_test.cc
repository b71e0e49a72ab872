// Unit tests for the Naive and Indexed engines against hand-computed
// values, plus the candidate-scope contract.

#include <gtest/gtest.h>

#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/fixtures.h"
#include "reference/naive_engine.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::Graph;
using graph::MakeEdgeKey;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

TppInstance DiamondInstance() {
  // Original graph: diamond 0-2-1-3 + target edge (0,1) + pendant (3,4).
  Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {2, 1}, {0, 3}, {3, 1}, {3, 4}});
  return *MakeInstance(g, {E(0, 1)}, motif::MotifKind::kTriangle);
}

template <typename EngineT>
std::unique_ptr<Engine> MakeEngine(const TppInstance& inst);

template <>
std::unique_ptr<Engine> MakeEngine<NaiveEngine>(const TppInstance& inst) {
  return std::make_unique<NaiveEngine>(inst);
}

template <>
std::unique_ptr<Engine> MakeEngine<IndexedEngine>(const TppInstance& inst) {
  return std::make_unique<IndexedEngine>(*IndexedEngine::Create(inst));
}

template <typename EngineT>
class EngineContractTest : public ::testing::Test {};

using EngineTypes = ::testing::Types<NaiveEngine, IndexedEngine>;
TYPED_TEST_SUITE(EngineContractTest, EngineTypes);

TYPED_TEST(EngineContractTest, InitialSimilarity) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  EXPECT_EQ(engine->NumTargets(), 1u);
  EXPECT_EQ(engine->TotalSimilarity(), 2u);
  EXPECT_EQ(engine->SimilarityOf(0), 2u);
}

TYPED_TEST(EngineContractTest, GainValues) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  EXPECT_EQ(engine->Gain(MakeEdgeKey(0, 2)), 1u);
  EXPECT_EQ(engine->Gain(MakeEdgeKey(2, 1)), 1u);
  EXPECT_EQ(engine->Gain(MakeEdgeKey(3, 4)), 0u);
  EXPECT_EQ(engine->GainVector(MakeEdgeKey(0, 2)), std::vector<size_t>{1});
}

TYPED_TEST(EngineContractTest, DeleteEdgeRealizesGain) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  EXPECT_EQ(engine->DeleteEdge(MakeEdgeKey(0, 2)), 1u);
  EXPECT_EQ(engine->TotalSimilarity(), 1u);
  EXPECT_FALSE(engine->CurrentGraph().HasEdge(0, 2));
  // Deleting the partner edge of the dead triangle gains nothing.
  EXPECT_EQ(engine->DeleteEdge(MakeEdgeKey(2, 1)), 0u);
  // Deleting an already-deleted edge is a no-op.
  EXPECT_EQ(engine->DeleteEdge(MakeEdgeKey(0, 2)), 0u);
  EXPECT_EQ(engine->TotalSimilarity(), 1u);
}

TYPED_TEST(EngineContractTest, CandidateScopes) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  auto all = engine->Candidates(CandidateScope::kAllEdges);
  EXPECT_EQ(all.size(), 5u);  // released graph edges
  auto restricted = engine->Candidates(CandidateScope::kTargetSubgraphEdges);
  EXPECT_EQ(restricted.size(), 4u);  // pendant (3,4) excluded
  EXPECT_TRUE(std::is_sorted(restricted.begin(), restricted.end()));
  // After killing one triangle, the restricted scope shrinks to the other.
  engine->DeleteEdge(MakeEdgeKey(0, 2));
  auto shrunk = engine->Candidates(CandidateScope::kTargetSubgraphEdges);
  EXPECT_EQ(shrunk.size(), 2u);
}

TYPED_TEST(EngineContractTest, GainVectorSplitsPerTarget) {
  // Two targets sharing a protector edge: (0,1) and (0,4) both have
  // triangles through node 2 using edge (0,2).
  Graph g = MakeGraph(5,
                      {{0, 1}, {0, 4}, {0, 2}, {2, 1}, {2, 4}});
  TppInstance inst =
      *MakeInstance(g, {E(0, 1), E(0, 4)}, motif::MotifKind::kTriangle);
  auto engine = MakeEngine<TypeParam>(inst);
  std::vector<size_t> diffs = engine->GainVector(MakeEdgeKey(0, 2));
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0], 1u);
  EXPECT_EQ(diffs[1], 1u);
  // Consistency with Gain and the allocation-free form.
  EXPECT_EQ(engine->Gain(MakeEdgeKey(0, 2)), 2u);
  std::vector<size_t> into(2, 7);
  engine->GainVectorInto(MakeEdgeKey(0, 2), into);
  EXPECT_EQ(into, diffs);
  // Edge not in any instance: all-zero vector.
  std::vector<size_t> zero = engine->GainVector(MakeEdgeKey(2, 4));
  EXPECT_EQ(zero[0] + zero[1], engine->Gain(MakeEdgeKey(2, 4)));
}

TYPED_TEST(EngineContractTest, GainEvaluationCounter) {
  TppInstance inst = DiamondInstance();
  auto engine = MakeEngine<TypeParam>(inst);
  uint64_t before = engine->GainEvaluations();
  engine->Gain(MakeEdgeKey(0, 2));
  engine->GainVector(MakeEdgeKey(2, 1));
  std::vector<size_t> into(1);
  engine->GainVectorInto(MakeEdgeKey(2, 1), into);
  EXPECT_EQ(engine->GainEvaluations(), before + 3);
}

TEST(IndexedEngineTest, CreateFailsOnPresentTarget) {
  TppInstance inst;
  inst.released = MakeGraph(3, {{0, 1}, {1, 2}});
  inst.targets = {E(0, 1)};  // still present: phase-1 skipped
  inst.motif = motif::MotifKind::kTriangle;
  EXPECT_FALSE(IndexedEngine::Create(inst).ok());
}

TEST(NaiveEngineTest, GainOnAbsentEdgeIsZero) {
  TppInstance inst = DiamondInstance();
  NaiveEngine engine(inst);
  EXPECT_EQ(engine.Gain(MakeEdgeKey(0, 4)), 0u);  // not an edge
}

}  // namespace
}  // namespace tpp::core
