// Differential tests: NaiveEngine and IndexedEngine must return identical
// answers for every query on random instances and random deletion orders.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/generators.h"
#include "reference/naive_engine.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;

class EngineDifferentialTest
    : public ::testing::TestWithParam<std::tuple<motif::MotifKind,
                                                 uint64_t>> {};

TEST_P(EngineDifferentialTest, IdenticalUnderRandomDeletions) {
  auto [kind, seed] = GetParam();
  Rng rng(seed);
  Graph g = *graph::ErdosRenyiGnp(30, 0.2, rng);
  if (g.NumEdges() < 10) GTEST_SKIP();
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 5);
  TppInstance inst = *MakeInstance(g, targets, kind);

  NaiveEngine naive(inst);
  IndexedEngine indexed = *IndexedEngine::Create(inst);

  ASSERT_EQ(naive.TotalSimilarity(), indexed.TotalSimilarity());
  for (size_t t = 0; t < targets.size(); ++t) {
    ASSERT_EQ(naive.SimilarityOf(t), indexed.SimilarityOf(t));
  }

  // Interleave gain queries and deletions in a random but identical order.
  for (int step = 0; step < 12; ++step) {
    std::vector<EdgeKey> candidates =
        indexed.Candidates(CandidateScope::kAllEdges);
    if (candidates.empty()) break;
    // Spot-check gains on a few random candidates.
    for (int q = 0; q < 5 && !candidates.empty(); ++q) {
      EdgeKey e = candidates[rng.UniformIndex(candidates.size())];
      ASSERT_EQ(naive.Gain(e), indexed.Gain(e)) << "gain mismatch";
      ASSERT_EQ(naive.GainVector(e), indexed.GainVector(e))
          << "per-target gain mismatch";
    }
    // Delete one random edge in both engines.
    EdgeKey victim = candidates[rng.UniformIndex(candidates.size())];
    size_t rn = naive.DeleteEdge(victim);
    size_t ri = indexed.DeleteEdge(victim);
    ASSERT_EQ(rn, ri) << "realized gain mismatch";
    ASSERT_EQ(naive.TotalSimilarity(), indexed.TotalSimilarity());
    for (size_t t = 0; t < targets.size(); ++t) {
      ASSERT_EQ(naive.SimilarityOf(t), indexed.SimilarityOf(t));
    }
  }
}

// The live rows of a round view: (edge, total, per-target row) for every
// candidate with a positive gain, the row expanded from the view's cells.
// The engines' views differ in which dead candidates they keep (the
// indexed session's universe is static) and in which zero cells they
// carry (the indexed cells are the index's CSR-2 segments, the recount
// engine writes nonzero cells only), so the comparison is over live rows
// and per-target gains.
struct LiveRow {
  EdgeKey edge;
  uint32_t total;
  std::vector<size_t> row;
  bool operator==(const LiveRow&) const = default;
};

std::vector<LiveRow> LiveRows(const RoundGains& view, size_t num_targets) {
  std::vector<LiveRow> out;
  for (size_t i = 0; i < view.edges.size(); ++i) {
    if (view.totals[i] == 0) continue;
    out.push_back({view.edges[i], view.totals[i],
                   ::tpp::testing::DenseRow(view, i, num_targets)});
  }
  return out;
}

// The recount engine's always-dirty BeginRound fallback and the indexed
// engine's dirty-set rounds must agree on every live candidate's gain and
// per-target split, and charge the same work, round after round.
TEST_P(EngineDifferentialTest, RoundViewsAgree) {
  auto [kind, seed] = GetParam();
  for (CandidateScope scope : {CandidateScope::kTargetSubgraphEdges,
                               CandidateScope::kAllEdges}) {
    Rng rng(seed + 1000);
    Graph g = *graph::ErdosRenyiGnp(25, 0.25, rng);
    if (g.NumEdges() < 8) GTEST_SKIP();
    std::vector<Edge> targets = rng.SampleK(g.Edges(), 4);
    TppInstance inst = *MakeInstance(g, targets, kind);
    NaiveEngine naive(inst);
    IndexedEngine indexed = *IndexedEngine::Create(inst);
    for (int round = 0; round < 3; ++round) {
      const RoundGains& vn = naive.BeginRound(scope, /*per_target=*/true);
      const RoundGains& vi = indexed.BeginRound(scope, /*per_target=*/true);
      ASSERT_EQ(vn.num_candidates, vi.num_candidates) << "round " << round;
      std::vector<LiveRow> live = LiveRows(vn, targets.size());
      ASSERT_EQ(live, LiveRows(vi, targets.size())) << "round " << round;
      ASSERT_EQ(naive.GainEvaluations(), indexed.GainEvaluations());
      if (live.empty()) break;
      EdgeKey victim = live[rng.UniformIndex(live.size())].edge;
      ASSERT_EQ(naive.DeleteEdge(victim), indexed.DeleteEdge(victim));
    }
  }
}

TEST_P(EngineDifferentialTest, DeleteEdgeIsIdempotentOnBothEngines) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 2000);
  Graph g = *graph::ErdosRenyiGnp(20, 0.3, rng);
  if (g.NumEdges() < 5) GTEST_SKIP();
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 3);
  TppInstance inst = *MakeInstance(g, targets, kind);
  NaiveEngine naive(inst);
  IndexedEngine indexed = *IndexedEngine::Create(inst);

  // Deleting the same edge twice: the second call must return 0 on both
  // engines without CHECK-failing, leaving similarities untouched.
  std::vector<EdgeKey> candidates =
      indexed.Candidates(CandidateScope::kAllEdges);
  ASSERT_FALSE(candidates.empty());
  EdgeKey victim = candidates[rng.UniformIndex(candidates.size())];
  ASSERT_EQ(naive.DeleteEdge(victim), indexed.DeleteEdge(victim));
  size_t sim = indexed.TotalSimilarity();
  EXPECT_EQ(naive.DeleteEdge(victim), 0u);
  EXPECT_EQ(indexed.DeleteEdge(victim), 0u);
  EXPECT_EQ(naive.TotalSimilarity(), sim);
  EXPECT_EQ(indexed.TotalSimilarity(), sim);

  // An edge that never existed in the released graph behaves the same.
  const graph::Graph& current = indexed.CurrentGraph();
  for (graph::NodeId u = 0; u < current.NumNodes(); ++u) {
    for (graph::NodeId v = u + 1; v < current.NumNodes(); ++v) {
      if (current.HasEdge(u, v)) continue;
      EdgeKey never = graph::MakeEdgeKey(u, v);
      EXPECT_EQ(naive.DeleteEdge(never), 0u);
      EXPECT_EQ(indexed.DeleteEdge(never), 0u);
      EXPECT_EQ(naive.TotalSimilarity(), indexed.TotalSimilarity());
      return;
    }
  }
}

TEST_P(EngineDifferentialTest, RestrictedCandidatesAgree) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 500);
  Graph g = *graph::BarabasiAlbert(35, 3, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 4);
  TppInstance inst = *MakeInstance(g, targets, kind);
  NaiveEngine naive(inst);
  IndexedEngine indexed = *IndexedEngine::Create(inst);
  EXPECT_EQ(naive.Candidates(CandidateScope::kTargetSubgraphEdges),
            indexed.Candidates(CandidateScope::kTargetSubgraphEdges));
  // And after a deletion.
  auto candidates = indexed.Candidates(CandidateScope::kTargetSubgraphEdges);
  if (!candidates.empty()) {
    EdgeKey victim = candidates[rng.UniformIndex(candidates.size())];
    naive.DeleteEdge(victim);
    indexed.DeleteEdge(victim);
    EXPECT_EQ(naive.Candidates(CandidateScope::kTargetSubgraphEdges),
              indexed.Candidates(CandidateScope::kTargetSubgraphEdges));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineDifferentialTest,
    ::testing::Combine(::testing::ValuesIn(motif::kAllMotifs),
                       ::testing::Values(3, 11, 29, 71, 113)),
    [](const ::testing::TestParamInfo<std::tuple<motif::MotifKind,
                                                 uint64_t>>& info) {
      return std::string(motif::MotifName(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tpp::core
