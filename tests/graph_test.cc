// Unit tests for the Graph substrate.

#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "graph/edge.h"
#include "test_util.h"

namespace tpp::graph {
namespace {

using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

TEST(EdgeKeyTest, CanonicalAndInvertible) {
  EdgeKey k1 = MakeEdgeKey(3, 7);
  EdgeKey k2 = MakeEdgeKey(7, 3);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(EdgeKeyU(k1), 3u);
  EXPECT_EQ(EdgeKeyV(k1), 7u);
}

TEST(EdgeKeyTest, DistinctPairsDistinctKeys) {
  EXPECT_NE(MakeEdgeKey(0, 1), MakeEdgeKey(0, 2));
  EXPECT_NE(MakeEdgeKey(1, 2), MakeEdgeKey(0, 2));
  // Large ids do not collide across the 32-bit split.
  EXPECT_NE(MakeEdgeKey(0, 0xffffffff), MakeEdgeKey(1, 0xfffffffe));
}

TEST(EdgeTest, EqualityIsUnordered) {
  EXPECT_EQ(E(1, 2), E(2, 1));
  EXPECT_FALSE(E(1, 2) == E(1, 3));
}

TEST(GraphTest, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_TRUE(g.Edges().empty());
}

TEST(GraphTest, AddNodeGrows) {
  Graph g(2);
  NodeId id = g.AddNode();
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.Degree(id), 0u);
}

TEST(GraphTest, AddEdgeBasics) {
  Graph g(4);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(2, 1).ok());
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(1, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(3), 0u);
}

TEST(GraphTest, AddEdgeRejectsSelfLoop) {
  Graph g(3);
  Status s = g.AddEdge(1, 1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.NumEdges(), 0u);
}

TEST(GraphTest, AddEdgeRejectsOutOfRange) {
  Graph g(3);
  EXPECT_EQ(g.AddEdge(0, 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(g.AddEdge(9, 0).code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, AddEdgeRejectsDuplicate) {
  Graph g(3);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  EXPECT_EQ(g.AddEdge(1, 0).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphTest, RemoveEdge) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(g.RemoveEdge(2, 1).ok());
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_FALSE(g.HasEdge(1, 2));
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.RemoveEdge(1, 2).code(), StatusCode::kNotFound);
  EXPECT_EQ(g.RemoveEdge(0, 9).code(), StatusCode::kInvalidArgument);
}

TEST(GraphTest, RemoveEdgeKeyRoundTrip) {
  Graph g = MakeGraph(3, {{0, 2}});
  EXPECT_TRUE(g.HasEdgeKey(MakeEdgeKey(2, 0)));
  ASSERT_TRUE(g.RemoveEdgeKey(MakeEdgeKey(0, 2)).ok());
  EXPECT_FALSE(g.HasEdgeKey(MakeEdgeKey(0, 2)));
}

TEST(GraphTest, NeighborsAreSorted) {
  Graph g = MakeGraph(5, {{3, 0}, {3, 4}, {3, 1}, {3, 2}});
  auto nbrs = g.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  for (size_t i = 1; i < nbrs.size(); ++i) {
    EXPECT_LT(nbrs[i - 1], nbrs[i]);
  }
}

TEST(GraphTest, CommonNeighbors) {
  //    0
  //   /|\            2 and 3 share {0, 1}.
  //  2 1 3   edges: 0-2, 0-1, 0-3, 1-2, 1-3
  Graph g = MakeGraph(4, {{0, 2}, {0, 1}, {0, 3}, {1, 2}, {1, 3}});
  auto cn = g.CommonNeighbors(2, 3);
  ASSERT_EQ(cn.size(), 2u);
  EXPECT_EQ(cn[0], 0u);
  EXPECT_EQ(cn[1], 1u);
  EXPECT_EQ(g.CountCommonNeighbors(2, 3), 2u);
  EXPECT_EQ(g.CountCommonNeighbors(0, 1), 2u);
  EXPECT_TRUE(g.CommonNeighbors(0, 2).size() == 1);  // just node 1
}

TEST(GraphTest, EdgesSnapshotOrderedAndComplete) {
  Graph g = MakeGraph(4, {{2, 3}, {0, 1}, {1, 3}});
  std::vector<Edge> edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], E(0, 1));
  EXPECT_EQ(edges[1], E(1, 3));
  EXPECT_EQ(edges[2], E(2, 3));
  std::vector<EdgeKey> keys = g.EdgeKeys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
}

TEST(GraphTest, RemoveEdgesBulkIgnoresAbsent) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<Edge> doomed = {E(0, 1), E(0, 3), E(2, 1)};
  size_t removed = g.RemoveEdges(doomed);
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphTest, RemoveEdgesAcceptsSubspanWithoutCopy) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<Edge> plan = {E(0, 1), E(1, 2), E(2, 3)};
  // A plan suffix applies directly as a view; no vector is materialized.
  size_t removed = g.RemoveEdges(std::span<const Edge>(plan).subspan(1));
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(GraphTest, EqualityIsStructural) {
  Graph a = MakeGraph(3, {{0, 1}, {1, 2}});
  Graph b = MakeGraph(3, {{1, 2}, {0, 1}});
  Graph c = MakeGraph(3, {{0, 1}});
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(GraphTest, DegreeSumIsTwiceEdges) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  EXPECT_EQ(g.DegreeSum(), 2 * g.NumEdges());
}

TEST(GraphTest, DebugStringMentionsCounts) {
  Graph g = MakeGraph(3, {{0, 1}});
  EXPECT_EQ(g.DebugString(), "Graph(n=3, m=1)");
}

TEST(GraphTest, CopyIsIndependent) {
  Graph a = MakeGraph(3, {{0, 1}, {1, 2}});
  Graph b = a;
  ASSERT_TRUE(b.RemoveEdge(0, 1).ok());
  EXPECT_TRUE(a.HasEdge(0, 1));
  EXPECT_EQ(a.NumEdges(), 2u);
  EXPECT_EQ(b.NumEdges(), 1u);
}

TEST(BuildGraphTest, StrictRejectsBadEdges) {
  EXPECT_FALSE(BuildGraph(3, {E(0, 0)}).ok());
  EXPECT_FALSE(BuildGraph(3, {E(0, 5)}).ok());
  EXPECT_FALSE(BuildGraph(3, {E(0, 1), E(1, 0)}).ok());
  Result<Graph> ok = BuildGraph(3, {E(0, 1), E(1, 2)});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->NumEdges(), 2u);
}

TEST(BuildGraphTest, LenientSkipsBadEdges) {
  Graph g = BuildGraphLenient(3, {E(0, 0), E(0, 1), E(1, 0), E(2, 5)});
  EXPECT_EQ(g.NumEdges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

// BuildGraph names the edge an AddEdge loop over the list stops at: the
// first one, in list order, that is out of range, a self-loop, or a repeat.
TEST(BuildGraphTest, StrictReportsTheFirstBadEdgeInListOrder) {
  Result<Graph> dup_first = BuildGraph(3, {E(0, 1), E(1, 0), E(0, 5)});
  EXPECT_EQ(dup_first.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(dup_first.status().message(), "edge (1,0) exists");

  Result<Graph> range_first = BuildGraph(3, {E(0, 1), E(0, 5), E(1, 0)});
  EXPECT_EQ(range_first.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(range_first.status().message(),
            "edge (0,5) out of range for n=3");

  Result<Graph> loop_first =
      BuildGraph(4, {E(2, 3), E(1, 1), E(3, 2), E(9, 0)});
  EXPECT_EQ(loop_first.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(loop_first.status().message(), "self-loop at node 1");

  Result<Graph> late_dup =
      BuildGraph(4, {E(0, 1), E(1, 2), E(2, 3), E(3, 0), E(2, 1), E(0, 1)});
  EXPECT_EQ(late_dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(late_dup.status().message(), "edge (2,1) exists");
}

TEST(BuildGraphTest, LenientDropsLoopsRepeatsAndOutOfRangeEdges) {
  Graph g = BuildGraphLenient(
      5, {E(3, 4), E(1, 1), E(0, 3), E(4, 3), E(2, 7), E(3, 0), E(9, 9),
          E(0, 1), E(3, 4)});
  EXPECT_EQ(g, MakeGraph(5, {{0, 1}, {0, 3}, {3, 4}}));
  EXPECT_EQ(g.EdgeKeys(), (std::vector<EdgeKey>{MakeEdgeKey(0, 1),
                                                MakeEdgeKey(0, 3),
                                                MakeEdgeKey(3, 4)}));
}

// A seeded differential test of Graph's slotted storage against a plain
// edge-set oracle: random scripts of every mutation, copies mutated on
// both sides, and a hub that outgrows its slot many times over.
class GraphOracleTest : public ::testing::Test {
 protected:
  struct Model {
    size_t n = 0;
    std::set<EdgeKey> edges;
  };

  static void ExpectMatches(const Graph& g, const Model& m) {
    ASSERT_EQ(g.NumNodes(), m.n);
    ASSERT_EQ(g.NumEdges(), m.edges.size());
    std::vector<std::vector<NodeId>> lists(m.n);
    std::vector<Edge> edges;
    for (EdgeKey k : m.edges) {
      lists[EdgeKeyU(k)].push_back(EdgeKeyV(k));
      lists[EdgeKeyV(k)].push_back(EdgeKeyU(k));
      edges.emplace_back(EdgeKeyU(k), EdgeKeyV(k));
    }
    for (NodeId u = 0; u < m.n; ++u) {
      std::sort(lists[u].begin(), lists[u].end());
      ASSERT_TRUE(std::ranges::equal(g.Neighbors(u), lists[u])) << "node " << u;
      ASSERT_EQ(g.Degree(u), lists[u].size());
    }
    EXPECT_EQ(g.EdgeKeys(), std::vector<EdgeKey>(m.edges.begin(),
                                                 m.edges.end()));
    EXPECT_EQ(g.Edges(), edges);
    EXPECT_EQ(g.DegreeSum(), 2 * m.edges.size());
  }

  // A random pair, sometimes out of range or a self-loop.
  static Edge RandomPair(const Model& m, Rng& rng) {
    const auto pick = [&] {
      return static_cast<NodeId>(rng.UniformIndex(m.n + 1));  // n: invalid
    };
    const NodeId u = pick();
    return Edge(u, rng.Bernoulli(0.03) ? u : pick());
  }

  static Edge PresentEdge(const Model& m, Rng& rng) {
    auto it = m.edges.begin();
    std::advance(it, rng.UniformIndex(m.edges.size()));
    return Edge(EdgeKeyU(*it), EdgeKeyV(*it));
  }

  static bool Valid(const Model& m, const Edge& e) {
    return e.u != e.v && e.u < m.n && e.v < m.n;
  }

  // One random mutation applied to both the graph and the model; a failed
  // call must leave the graph as it was.
  static void Step(Graph& g, Model& m, Rng& rng) {
    const Graph before = g;
    bool ok = true;
    switch (rng.UniformIndex(6)) {
      case 0: {
        const Edge e = RandomPair(m, rng);
        ok = Valid(m, e) && !m.edges.contains(e.Key());
        EXPECT_EQ(g.AddEdge(e.u, e.v).ok(), ok);
        if (ok) m.edges.insert(e.Key());
        break;
      }
      case 1: {
        const Edge e = !m.edges.empty() && rng.Bernoulli(0.7)
                           ? PresentEdge(m, rng)
                           : RandomPair(m, rng);
        ok = Valid(m, e) && m.edges.contains(e.Key());
        EXPECT_EQ(g.RemoveEdge(e.u, e.v).ok(), ok);
        if (ok) m.edges.erase(e.Key());
        break;
      }
      case 2: {
        std::vector<Edge> batch;
        std::set<EdgeKey> keys;
        const size_t k = 1 + rng.UniformIndex(12);
        for (size_t i = 0; i < k; ++i) {
          const Edge e = RandomPair(m, rng);
          batch.push_back(e);
          ok = ok && Valid(m, e) && !m.edges.contains(e.Key()) &&
               keys.insert(e.Key()).second;
        }
        EXPECT_EQ(g.AddEdges(batch).ok(), ok);
        if (ok) m.edges.insert(keys.begin(), keys.end());
        break;
      }
      case 3: {
        std::vector<Edge> removed;
        std::vector<Edge> inserted;
        std::set<EdgeKey> touched;
        for (size_t i = 0; i < 4 && !m.edges.empty(); ++i) {
          const Edge e = PresentEdge(m, rng);
          if (touched.insert(e.Key()).second) removed.push_back(e);
        }
        for (size_t i = 0; i < 6; ++i) {
          const Edge e = RandomPair(m, rng);
          if (Valid(m, e) && !m.edges.contains(e.Key()) &&
              touched.insert(e.Key()).second) {
            inserted.push_back(e);
          }
        }
        // A quarter of the deltas are stale: one removal already gone or
        // one insert already present. They must fail and change nothing.
        const bool stale = rng.Bernoulli(0.25) && !removed.empty();
        if (stale) {
          if (rng.Bernoulli(0.5)) {
            m.edges.erase(removed.back().Key());
            ASSERT_TRUE(g.RemoveEdge(removed.back().u, removed.back().v).ok());
          } else {
            inserted.push_back(removed.back());
            removed.pop_back();
          }
        }
        Result<GraphDelta> delta =
            MakeGraphDelta(std::move(inserted), std::move(removed));
        ASSERT_TRUE(delta.ok()) << delta.status();
        const Graph prior = g;
        ok = !stale;
        EXPECT_EQ(g.ApplyDelta(*delta).ok(), ok);
        if (!ok) {
          EXPECT_EQ(g, prior);
          return ExpectMatches(g, m);
        }
        for (const Edge& e : delta->removed) m.edges.erase(e.Key());
        for (const Edge& e : delta->inserted) m.edges.insert(e.Key());
        break;
      }
      case 4:
        EXPECT_EQ(g.AddNode(), m.n);
        ++m.n;
        break;
      default: {
        // RemoveEdges skips absent edges and counts the present ones.
        std::vector<Edge> batch;
        std::set<EdgeKey> gone;
        for (size_t i = 0; i < 3; ++i) {
          const Edge e = !m.edges.empty() && rng.Bernoulli(0.5)
                             ? PresentEdge(m, rng)
                             : RandomPair(m, rng);
          batch.push_back(e);
          if (Valid(m, e) && m.edges.contains(e.Key())) gone.insert(e.Key());
        }
        EXPECT_EQ(g.RemoveEdges(batch), gone.size());
        for (EdgeKey k : gone) m.edges.erase(k);
        break;
      }
    }
    if (!ok) EXPECT_EQ(g, before);
    ExpectMatches(g, m);
  }
};

TEST(GraphTest, HasEdgeOutOfRangeIsFalse) {
  Graph g = MakeGraph(2, {{0, 1}});
  EXPECT_FALSE(g.HasEdge(0, 5));
  EXPECT_FALSE(g.HasEdge(5, 6));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST_F(GraphOracleTest, RandomScriptsMatchAnEdgeSetOracle) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    SCOPED_TRACE(StrFormat("seed=%llu", static_cast<unsigned long long>(seed)));
    Rng rng(seed);
    Model m;
    m.n = 40;
    Graph g(m.n);
    for (int step = 0; step < 600; ++step) {
      if (step % 60 == 30) {
        // Copy, then mutate both: the copy drops slack and holes yet
        // compares equal, and the two never share a list afterwards.
        Graph copy = g;
        Model copy_m = m;
        EXPECT_EQ(copy, g);
        EXPECT_LE(copy.MemoryBytes(), g.MemoryBytes());
        Graph assigned(1);
        assigned = g;
        EXPECT_EQ(assigned, g);
        const Model assigned_m = m;
        for (int i = 0; i < 20; ++i) {
          Step(g, m, rng);
          Step(copy, copy_m, rng);
        }
        ExpectMatches(g, m);
        ExpectMatches(copy, copy_m);
        ExpectMatches(assigned, assigned_m);
        EXPECT_EQ(g == copy, m.n == copy_m.n && m.edges == copy_m.edges);
        if (!copy_m.edges.empty()) {
          // Same node and edge counts, one edge moved: not equal.
          const Edge gone = PresentEdge(copy_m, rng);
          Edge added = RandomPair(copy_m, rng);
          while (!Valid(copy_m, added) || copy_m.edges.contains(added.Key())) {
            added = RandomPair(copy_m, rng);
          }
          Graph moved = copy;
          ASSERT_TRUE(moved.RemoveEdge(gone.u, gone.v).ok());
          ASSERT_TRUE(moved.AddEdge(added.u, added.v).ok());
          EXPECT_FALSE(moved == copy);
        }
        if (rng.Bernoulli(0.5)) {  // carry on with the copy
          g = std::move(copy);
          m = std::move(copy_m);
        }
      }
      Step(g, m, rng);
      if (HasFatalFailure()) return;
    }
    // Equality ignores slack: a compact rebuild of the same edges is equal.
    Result<Graph> rebuilt = BuildGraph(m.n, g.Edges());
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(*rebuilt, g);
    EXPECT_LE(rebuilt->MemoryBytes(), g.MemoryBytes());
  }
}

TEST_F(GraphOracleTest, HubOutgrowsItsSlotInACompactCopy) {
  Rng rng(7);
  Model m;
  m.n = 1101;
  Graph g(m.n);
  for (int i = 0; i < 400; ++i) {
    const Edge e = RandomPair(m, rng);
    if (Valid(m, e) && m.edges.insert(e.Key()).second) {
      ASSERT_TRUE(g.AddEdge(e.u, e.v).ok());
    }
  }
  // A copy is compact — every slot full — so the hub's first insert
  // already moves its list, and 1,000 inserts move it many times.
  Graph hub = g;
  Model hub_m = m;
  std::vector<NodeId> others(m.n - 1);
  for (NodeId v = 1; v < m.n; ++v) others[v - 1] = v;
  rng.Shuffle(others);
  size_t inserted = 0;
  for (NodeId v : others) {
    if (inserted == 1000) break;
    if (!hub_m.edges.insert(MakeEdgeKey(0, v)).second) continue;
    ASSERT_TRUE(hub.AddEdge(0, v).ok());
    if (++inserted % 100 == 0) ExpectMatches(hub, hub_m);
  }
  ASSERT_EQ(inserted, 1000u);
  ExpectMatches(hub, hub_m);
  ExpectMatches(g, m);  // the source never saw the inserts
  EXPECT_GE(hub.Degree(0), 1000u);
  const Graph compact = hub;
  EXPECT_EQ(compact, hub);
  EXPECT_LT(compact.MemoryBytes(), hub.MemoryBytes());
  ExpectMatches(compact, hub_m);
}

}  // namespace
}  // namespace tpp::graph
