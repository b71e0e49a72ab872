// Unit tests for the edge->instance incidence index.

#include "motif/incidence_index.h"

#include <gtest/gtest.h>

#include "graph/fixtures.h"
#include "test_util.h"

namespace tpp::motif {
namespace {

using ::tpp::testing::BuildFreshIndex;
using graph::Edge;
using graph::Graph;
using graph::MakeEdgeKey;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

// Shared setup: diamond around target (0,1) plus a pendant.
//   triangles of (0,1): {0-2, 2-1} and {0-3, 3-1}
Graph Diamond() {
  return MakeGraph(5, {{0, 2}, {2, 1}, {0, 3}, {3, 1}, {3, 4}});
}

TEST(IncidenceIndexTest, BuildCountsInstances) {
  Graph g = Diamond();
  auto idx = BuildFreshIndex(g, {E(0, 1)}, MotifKind::kTriangle);
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(idx->NumTargets(), 1u);
  EXPECT_EQ(idx->TotalAlive(), 2u);
  EXPECT_EQ(idx->AliveForTarget(0), 2u);
  EXPECT_EQ(idx->instances().size(), 2u);
  EXPECT_TRUE(idx->IsAlive(0));
  EXPECT_TRUE(idx->IsAlive(1));
}

// The builder takes the base graph or G - T alike: an instance through a
// target link is left out, so a target link present in the graph never
// enters the index.
TEST(IncidenceIndexTest, PresentTargetLinksAreLeftOut) {
  Graph base = Diamond();
  ASSERT_TRUE(base.AddEdge(0, 1).ok());
  const std::vector<Edge> targets = {E(0, 1), E(0, 2)};
  Graph released = base;
  released.RemoveEdges(targets);
  auto on_base = BuildFreshIndex(base, targets, MotifKind::kTriangle);
  auto on_released = BuildFreshIndex(released, targets, MotifKind::kTriangle);
  ASSERT_TRUE(on_base.ok());
  ASSERT_TRUE(on_released.ok());
  EXPECT_TRUE(on_base->BitIdentical(*on_released));
  // (0,1) keeps 0-3-1 and loses 0-2-1, which runs through target (0,2);
  // (0,2)'s one triangle 0-1-2 runs through target (0,1).
  EXPECT_EQ(on_base->AliveForTarget(0), 1u);
  EXPECT_EQ(on_base->AliveForTarget(1), 0u);
  EXPECT_EQ(on_base->Gain(MakeEdgeKey(0, 1)), 0u);
  EXPECT_EQ(on_base->Gain(MakeEdgeKey(0, 2)), 0u);
}

TEST(IncidenceIndexTest, GainCountsAliveInstances) {
  Graph g = Diamond();
  auto idx = *BuildFreshIndex(g, {E(0, 1)}, MotifKind::kTriangle);
  EXPECT_EQ(idx.Gain(MakeEdgeKey(0, 2)), 1u);
  EXPECT_EQ(idx.Gain(MakeEdgeKey(3, 1)), 1u);
  EXPECT_EQ(idx.Gain(MakeEdgeKey(3, 4)), 0u);   // not in any instance
  EXPECT_EQ(idx.Gain(MakeEdgeKey(10, 11)), 0u); // unknown edge
}

TEST(IncidenceIndexTest, DeleteEdgeKillsAndIsIdempotent) {
  Graph g = Diamond();
  auto idx = *BuildFreshIndex(g, {E(0, 1)}, MotifKind::kTriangle);
  EXPECT_EQ(idx.DeleteEdge(MakeEdgeKey(0, 2)), 1u);
  EXPECT_EQ(idx.TotalAlive(), 1u);
  EXPECT_EQ(idx.AliveForTarget(0), 1u);
  EXPECT_EQ(idx.DeleteEdge(MakeEdgeKey(0, 2)), 0u);  // idempotent
  EXPECT_EQ(idx.DeleteEdge(MakeEdgeKey(2, 1)), 0u);  // instance already dead
  EXPECT_EQ(idx.TotalAlive(), 1u);
  EXPECT_EQ(idx.DeleteEdge(MakeEdgeKey(0, 3)), 1u);
  EXPECT_EQ(idx.TotalAlive(), 0u);
}

TEST(IncidenceIndexTest, SharedEdgeAcrossTargets) {
  // Targets (0,1) and (0,4): node 2 is a common neighbor of both pairs;
  // edge (0,2) serves triangles of both targets.
  Graph g = MakeGraph(5, {{0, 2}, {2, 1}, {2, 4}});
  auto idx =
      *BuildFreshIndex(g, {E(0, 1), E(0, 4)}, MotifKind::kTriangle);
  EXPECT_EQ(idx.TotalAlive(), 2u);
  EXPECT_EQ(idx.Gain(MakeEdgeKey(0, 2)), 2u);
  std::vector<size_t> split(2, 0);
  idx.AccumulateGains(MakeEdgeKey(0, 2), &split);
  EXPECT_EQ(split, (std::vector<size_t>{1, 1}));
  // Deleting the shared edge kills both instances at once.
  EXPECT_EQ(idx.DeleteEdge(MakeEdgeKey(0, 2)), 2u);
  EXPECT_EQ(idx.AliveForTarget(0), 0u);
  EXPECT_EQ(idx.AliveForTarget(1), 0u);
}

TEST(IncidenceIndexTest, CandidateEdgesTrackAliveness) {
  Graph g = Diamond();
  auto idx = *BuildFreshIndex(g, {E(0, 1)}, MotifKind::kTriangle);
  auto candidates = idx.AliveCandidateEdges();
  // The pendant edge (3,4) participates in no instance.
  EXPECT_EQ(candidates.size(), 4u);
  EXPECT_TRUE(std::is_sorted(candidates.begin(), candidates.end()));
  idx.DeleteEdge(MakeEdgeKey(0, 2));
  auto after = idx.AliveCandidateEdges();
  EXPECT_EQ(after.size(), 2u);  // only the second triangle's edges remain
  // The interned universe keeps every edge that ever participated.
  EXPECT_EQ(idx.InternedEdgeKeys().size(), 4u);
}

TEST(IncidenceIndexTest, PerEdgeAliveCountsMatchPointQueries) {
  Graph g = Diamond();
  auto idx = *BuildFreshIndex(g, {E(0, 1)}, MotifKind::kTriangle);
  EXPECT_EQ(idx.NumInternedEdges(), 4u);  // pendant (3,4) never interned
  std::span<const graph::EdgeKey> keys = idx.InternedEdgeKeys();
  for (size_t id = 0; id < keys.size(); ++id) {
    EXPECT_EQ(idx.PerEdgeAliveCounts()[id], idx.Gain(keys[id]));
  }
  // The counts track deletions: dead edges drop to zero and out of the
  // candidate set.
  idx.DeleteEdge(MakeEdgeKey(0, 2));
  std::vector<graph::EdgeKey> edges = idx.AliveCandidateEdges();
  EXPECT_EQ(edges.size(), 2u);
  for (graph::EdgeKey e : edges) EXPECT_EQ(idx.Gain(e), 1u);
  for (size_t id = 0; id < keys.size(); ++id) {
    EXPECT_EQ(idx.PerEdgeAliveCounts()[id], idx.Gain(keys[id]));
  }
  EXPECT_EQ(idx.NumInternedEdges(), 4u);  // interning is immutable
}

TEST(IncidenceIndexTest, AliveCountsVectorMatchesQueries) {
  Graph g = Diamond();
  auto idx = *BuildFreshIndex(g, {E(0, 1)}, MotifKind::kTriangle);
  const std::vector<size_t>& counts = idx.AliveCounts();
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], idx.AliveForTarget(0));
}

TEST(IncidenceIndexTest, EmptyTargetsYieldEmptyIndex) {
  Graph g = Diamond();
  auto idx = *BuildFreshIndex(g, {}, MotifKind::kTriangle);
  EXPECT_EQ(idx.TotalAlive(), 0u);
  EXPECT_TRUE(idx.AliveCandidateEdges().empty());
}

TEST(IncidenceIndexTest, RecTriInstancesHaveFourEdges) {
  // Full RecTri around target (0,1): w=2, x=3.
  Graph g = MakeGraph(4, {{0, 2}, {2, 1}, {2, 3}, {3, 1}});
  auto idx = *BuildFreshIndex(g, {E(0, 1)}, MotifKind::kRecTri);
  ASSERT_EQ(idx.TotalAlive(), 1u);
  EXPECT_EQ(idx.instances()[0].num_edges, 4u);
  // Deleting the 2-path edge (0,2) also kills the RecTri.
  EXPECT_EQ(idx.DeleteEdge(MakeEdgeKey(0, 2)), 1u);
}

// Per-group index state follows the instances and targets, never the
// node count: the same 1-target index over a graph with 10^5 more
// (isolated) nodes takes exactly as many bytes, and still repairs.
TEST(IncidenceIndexTest, MemoryBytesDoNotGrowWithIsolatedNodes) {
  Graph small = Diamond();
  Graph large = Diamond();
  for (int i = 0; i < 100000; ++i) large.AddNode();
  auto a = *BuildFreshIndex(small, {E(0, 1)}, MotifKind::kTriangle);
  auto b = *BuildFreshIndex(large, {E(0, 1)}, MotifKind::kTriangle);
  EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes());
  EXPECT_LT(b.MemoryBytes(), 1024u);

  // A created triangle 0-4-1 through the inserted links.
  graph::GraphDelta delta;
  delta.inserted = {E(0, 4), E(1, 4)};
  ASSERT_TRUE(large.ApplyDelta(delta).ok());
  ASSERT_TRUE(
      b.ApplyGraphDelta(large, {E(0, 1)}, MotifKind::kTriangle, delta).ok());
  EXPECT_EQ(b.TotalAlive(), 3u);
}

}  // namespace
}  // namespace tpp::motif
