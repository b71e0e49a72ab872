// Property tests: the production enumerator must agree with the
// independent brute-force oracle on random graphs, for every motif.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "common/rng.h"
#include "graph/generators.h"
#include "motif/enumerate.h"
#include "reference/brute_force.h"

namespace tpp::motif {
namespace {

using graph::Edge;
using graph::Graph;

// Canonical form of an instance list for set comparison.
std::multiset<std::tuple<int32_t, uint8_t, uint64_t, uint64_t, uint64_t,
                         uint64_t>>
Canon(const std::vector<TargetSubgraph>& instances) {
  std::multiset<std::tuple<int32_t, uint8_t, uint64_t, uint64_t, uint64_t,
                           uint64_t>>
      out;
  for (const TargetSubgraph& i : instances) {
    out.insert({i.target, i.num_edges, i.edges[0], i.edges[1], i.edges[2],
                i.edges[3]});
  }
  return out;
}

class MotifDifferentialTest
    : public ::testing::TestWithParam<std::tuple<MotifKind, uint64_t>> {};

TEST_P(MotifDifferentialTest, EnumerateMatchesBruteForce) {
  auto [kind, seed] = GetParam();
  Rng rng(seed);
  // Dense-ish small random graph so every motif occurs.
  Graph g = *graph::ErdosRenyiGnp(24, 0.25, rng);
  std::vector<Edge> edges = g.Edges();
  if (edges.empty()) GTEST_SKIP();
  // Pick a handful of targets, remove them, and compare instance sets.
  std::vector<Edge> targets = rng.SampleK(edges, std::min<size_t>(4,
                                                                  edges.size()));
  for (const Edge& t : targets) {
    ASSERT_TRUE(g.RemoveEdge(t.u, t.v).ok());
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    auto fast = EnumerateTargetSubgraphs(g, targets[i], kind,
                                         static_cast<int32_t>(i));
    auto slow = BruteForceTargetSubgraphs(g, targets[i], kind,
                                          static_cast<int32_t>(i));
    EXPECT_EQ(Canon(fast), Canon(slow))
        << "motif=" << MotifName(kind) << " target=" << i;
    EXPECT_EQ(CountTargetSubgraphs(g, targets[i], kind), slow.size());
  }
}

TEST_P(MotifDifferentialTest, InstanceEdgesExistInGraph) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 1000);
  Graph g = *graph::BarabasiAlbert(40, 3, rng);
  std::vector<Edge> edges = g.Edges();
  std::vector<Edge> targets = rng.SampleK(edges, 3);
  for (const Edge& t : targets) {
    ASSERT_TRUE(g.RemoveEdge(t.u, t.v).ok());
  }
  for (size_t i = 0; i < targets.size(); ++i) {
    for (const TargetSubgraph& inst :
         EnumerateTargetSubgraphs(g, targets[i], kind,
                                  static_cast<int32_t>(i))) {
      EXPECT_EQ(inst.num_edges, MotifEdgeCount(kind));
      for (uint8_t j = 0; j < inst.num_edges; ++j) {
        EXPECT_TRUE(g.HasEdgeKey(inst.edges[j]))
            << "instance edge missing from graph";
      }
      // The target link itself must never appear among instance edges.
      EXPECT_FALSE(inst.ContainsEdge(targets[i].Key()));
    }
  }
}

TEST_P(MotifDifferentialTest, InstancesAreDistinct) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 2000);
  Graph g = *graph::ErdosRenyiGnp(20, 0.3, rng);
  std::vector<Edge> edges = g.Edges();
  if (edges.empty()) GTEST_SKIP();
  Edge target = edges[rng.UniformIndex(edges.size())];
  ASSERT_TRUE(g.RemoveEdge(target.u, target.v).ok());
  auto instances = EnumerateTargetSubgraphs(g, target, kind);
  auto canon = Canon(instances);
  std::set<std::tuple<int32_t, uint8_t, uint64_t, uint64_t, uint64_t,
                      uint64_t>>
      unique(canon.begin(), canon.end());
  EXPECT_EQ(unique.size(), instances.size())
      << "duplicate instances emitted for " << MotifName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MotifDifferentialTest,
    ::testing::Combine(::testing::ValuesIn(kAllMotifs),
                       ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42)),
    [](const ::testing::TestParamInfo<std::tuple<MotifKind, uint64_t>>&
           info) {
      return std::string(MotifName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Deleting any instance edge must reduce the count by at least one; adding
// it back restores the count (the alive-iff-all-edges-present invariant).
class MotifDeletionTest : public ::testing::TestWithParam<MotifKind> {};

TEST_P(MotifDeletionTest, DeletingAnInstanceEdgeBreaksIt) {
  MotifKind kind = GetParam();
  Rng rng(99);
  Graph g = *graph::ErdosRenyiGnp(18, 0.35, rng);
  std::vector<Edge> edges = g.Edges();
  Edge target = edges[0];
  ASSERT_TRUE(g.RemoveEdge(target.u, target.v).ok());
  auto instances = EnumerateTargetSubgraphs(g, target, kind);
  if (instances.empty()) GTEST_SKIP();
  size_t before = instances.size();
  graph::EdgeKey victim = instances[0].edges[0];
  ASSERT_TRUE(g.RemoveEdgeKey(victim).ok());
  size_t after = CountTargetSubgraphs(g, target, kind);
  EXPECT_LT(after, before);
  ASSERT_TRUE(
      g.AddEdge(graph::EdgeKeyU(victim), graph::EdgeKeyV(victim)).ok());
  EXPECT_EQ(CountTargetSubgraphs(g, target, kind), before);
}

INSTANTIATE_TEST_SUITE_P(AllMotifs, MotifDeletionTest,
                         ::testing::ValuesIn(kAllMotifs));

}  // namespace
}  // namespace tpp::motif
