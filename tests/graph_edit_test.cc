// Tests for edit normalization (MakeGraphDelta), delta application
// (Graph::ApplyDelta), and the edit-commutative fingerprint update.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "graph/fingerprint.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "test_util.h"

namespace tpp::graph {
namespace {

using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

Graph Path5() { return MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}); }

TEST(GraphEditTest, ApplyDeltaAppliesInsertsAndRemoves) {
  Graph g = Path5();
  Result<GraphDelta> delta =
      MakeGraphDelta({E(0, 4), E(2, 4)}, {E(1, 2)});
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(g.ApplyDelta(*delta).ok());
  EXPECT_EQ(g, MakeGraph(5, {{0, 1}, {2, 3}, {3, 4}, {0, 4}, {2, 4}}));
}

TEST(GraphEditTest, DeltaListsAreCanonicalAndSorted) {
  // Descending, endpoint-swapped input; the delta must come out canonical
  // (u < v) and ascending by key regardless.
  Result<GraphDelta> delta =
      MakeGraphDelta({E(4, 1), E(2, 0)}, {E(3, 2), E(1, 0)});
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->inserted, (std::vector<Edge>{E(0, 2), E(1, 4)}));
  EXPECT_EQ(delta->removed, (std::vector<Edge>{E(0, 1), E(2, 3)}));
  for (const std::vector<Edge>* list : {&delta->inserted, &delta->removed}) {
    for (const Edge& e : *list) EXPECT_LT(e.u, e.v);
  }
}

TEST(GraphEditTest, MakeGraphDeltaRejectsDuplicatesOverlapAndSelfLoops) {
  // Listed twice, including as its reversal.
  EXPECT_EQ(MakeGraphDelta({E(1, 2), E(2, 1)}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MakeGraphDelta({}, {E(3, 4), E(3, 4)}).status().code(),
            StatusCode::kInvalidArgument);
  // In both lists: contradictory, not a cancellation.
  Result<GraphDelta> overlap = MakeGraphDelta({E(0, 3)}, {E(3, 0)});
  ASSERT_FALSE(overlap.ok());
  EXPECT_EQ(overlap.status().message(), "edge 0-3 both inserted and removed");
  EXPECT_EQ(MakeGraphDelta({E(2, 2)}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(MakeGraphDelta({}, {}).ok());
}

TEST(GraphEditTest, ApplyDeltaKeepsAdjacencySorted) {
  // Many inserts into one hub exercise the batched backward-merge path.
  Graph g(50);
  for (NodeId v = 10; v < 20; ++v) ASSERT_TRUE(g.AddEdge(0, v).ok());
  std::vector<Edge> inserts;
  for (NodeId v : {45u, 5u, 25u, 1u, 35u, 9u, 49u}) inserts.push_back(E(0, v));
  Result<GraphDelta> delta = MakeGraphDelta(std::move(inserts), {});
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(g.ApplyDelta(*delta).ok());
  std::span<const NodeId> nbrs = g.Neighbors(0);
  EXPECT_EQ(nbrs.size(), 17u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_TRUE(g.HasEdge(0, 49));
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(GraphEditTest, ApplyDeltaReplaysOntoACopy) {
  Graph original = Path5();
  Graph copy = original;
  Result<GraphDelta> delta = MakeGraphDelta({E(0, 3)}, {E(3, 4)});
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(original.ApplyDelta(*delta).ok());
  ASSERT_TRUE(copy.ApplyDelta(*delta).ok());
  EXPECT_EQ(copy, original);
}

TEST(GraphEditTest, ApplyDeltaErrorsLeaveGraphUntouched) {
  Graph g = Path5();
  const Graph before = g;

  GraphDelta removes_absent;
  removes_absent.removed = {E(0, 4)};
  EXPECT_EQ(g.ApplyDelta(removes_absent).code(), StatusCode::kNotFound);
  EXPECT_EQ(g, before);

  GraphDelta inserts_present;
  inserts_present.inserted = {E(1, 2)};
  // Even when a valid removal precedes the offending insert, nothing
  // applies.
  inserts_present.removed = {E(0, 1)};
  EXPECT_EQ(g.ApplyDelta(inserts_present).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(g, before);

  GraphDelta out_of_range;
  out_of_range.inserted = {E(0, 9)};
  EXPECT_EQ(g.ApplyDelta(out_of_range).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g, before);
}

TEST(GraphEditTest, UpdateFingerprintMatchesFullRecompute) {
  Graph g = Path5();
  uint64_t fp = Fingerprint(g);
  Result<GraphDelta> delta = MakeGraphDelta({E(0, 2), E(1, 4)}, {E(2, 3)});
  ASSERT_TRUE(delta.ok());
  ASSERT_TRUE(g.ApplyDelta(*delta).ok());
  fp = UpdateFingerprint(fp, delta->inserted, delta->removed);
  EXPECT_EQ(fp, Fingerprint(g));
}

TEST(GraphEditTest, FingerprintUpdateIsCommutative) {
  // Two disjoint edits land on the same fingerprint in either order.
  GraphDelta a;
  a.inserted = {E(0, 2)};
  a.removed = {E(3, 4)};
  GraphDelta b;
  b.inserted = {E(1, 3)};
  b.removed = {E(0, 1)};

  Graph g1 = Path5();
  uint64_t fp1 = Fingerprint(g1);
  ASSERT_TRUE(g1.ApplyDelta(a).ok());
  fp1 = UpdateFingerprint(fp1, a.inserted, a.removed);
  ASSERT_TRUE(g1.ApplyDelta(b).ok());
  fp1 = UpdateFingerprint(fp1, b.inserted, b.removed);

  Graph g2 = Path5();
  uint64_t fp2 = Fingerprint(g2);
  ASSERT_TRUE(g2.ApplyDelta(b).ok());
  fp2 = UpdateFingerprint(fp2, b.inserted, b.removed);
  ASSERT_TRUE(g2.ApplyDelta(a).ok());
  fp2 = UpdateFingerprint(fp2, a.inserted, a.removed);

  EXPECT_EQ(g1, g2);
  EXPECT_EQ(fp1, fp2);
  EXPECT_EQ(fp1, Fingerprint(g1));
}

TEST(GraphEditTest, RandomizedChurnMatchesReferenceModel) {
  // Fuzz: random insert/remove churn through MakeGraphDelta + ApplyDelta
  // must track a plain std::set edge model, and the O(delta) fingerprint
  // must track the full recompute across every edit.
  Rng rng(20260809);
  Graph g = *ErdosRenyiGnp(24, 0.15, rng);
  std::set<EdgeKey> model;
  for (const Edge& e : g.Edges()) model.insert(e.Key());
  uint64_t fp = Fingerprint(g);

  for (int edit = 0; edit < 40; ++edit) {
    std::set<EdgeKey> next = model;
    std::set<EdgeKey> touched;  // an edit names each edge at most once
    std::vector<Edge> inserted;
    std::vector<Edge> removed;
    const size_t ops = 1 + rng.UniformIndex(8);
    for (size_t i = 0; i < ops; ++i) {
      NodeId u = static_cast<NodeId>(rng.UniformIndex(24));
      NodeId v = static_cast<NodeId>(rng.UniformIndex(24));
      if (u == v) continue;
      EdgeKey key = MakeEdgeKey(u, v);
      if (!touched.insert(key).second) continue;
      if (model.count(key)) {
        removed.push_back(E(u, v));
        next.erase(key);
      } else {
        inserted.push_back(E(u, v));
        next.insert(key);
      }
    }
    Result<GraphDelta> delta =
        MakeGraphDelta(std::move(inserted), std::move(removed));
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(g.ApplyDelta(*delta).ok());
    model = next;
    fp = UpdateFingerprint(fp, delta->inserted, delta->removed);

    ASSERT_EQ(g.NumEdges(), model.size());
    std::vector<EdgeKey> got = g.EdgeKeys();
    ASSERT_TRUE(std::equal(got.begin(), got.end(), model.begin(),
                           model.end()));
    ASSERT_EQ(fp, Fingerprint(g));
    for (NodeId u = 0; u < 24; ++u) {
      std::span<const NodeId> nbrs = g.Neighbors(u);
      ASSERT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
    }
  }
}

}  // namespace
}  // namespace tpp::graph
