// Randomized stress test for the CSR gain fast path: interleaves
// BeginRound's per-target cell views, Gain, GainVector, and DeleteEdge on
// generated graphs and cross-checks the index's cached alive counts
// against a from-scratch recount after every deletion. Guards the
// alive-count invariant documented in motif/incidence_index.h:
//   alive_count_[e] == |{i : alive_[i] and e in instance i}|.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/generators.h"
#include "motif/incidence_index.h"
#include "reference/legacy_incidence_index.h"
#include "test_util.h"

namespace tpp::motif {
namespace {

using ::tpp::testing::BuildFreshIndex;
using core::CandidateScope;
using core::IndexedEngine;
using core::RoundGains;
using core::TppInstance;
using graph::Edge;
using graph::EdgeKey;
using graph::Graph;

// Independent recount straight off the instance list: the gain of an
// edge is the number of alive instances containing it.
std::unordered_map<EdgeKey, size_t> BruteGains(const IncidenceIndex& idx) {
  std::unordered_map<EdgeKey, size_t> gains;
  for (size_t i = 0; i < idx.instances().size(); ++i) {
    if (!idx.IsAlive(i)) continue;
    const TargetSubgraph& instance = idx.instances()[i];
    for (size_t k = 0; k < instance.num_edges; ++k) {
      ++gains[instance.edges[k]];
    }
  }
  return gains;
}

class GainFastPathStressTest
    : public ::testing::TestWithParam<std::tuple<MotifKind, uint64_t>> {};

TEST_P(GainFastPathStressTest, CachedCountsSurviveRandomDeletions) {
  auto [kind, seed] = GetParam();
  Rng rng(seed);
  Graph g = *graph::HolmeKim(300, 4, 0.3, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 5);
  TppInstance inst = *core::MakeInstance(g, targets, kind);
  // Every round below restarts its session (the checks flush counts
  // between rounds), so each BeginRound is a full per-target view.
  IndexedEngine engine = *IndexedEngine::Create(inst);

  for (int step = 0; step < 20; ++step) {
    std::vector<EdgeKey> candidates =
        engine.Candidates(CandidateScope::kAllEdges);
    if (candidates.empty()) break;

    // Round view == cached counts == brute recount per edge, and each
    // row's cells == its gain vector. The view's universe is the interned
    // edge set: every candidate outside it has gain 0.
    const RoundGains& view =
        engine.BeginRound(CandidateScope::kAllEdges, /*per_target=*/true);
    const std::vector<EdgeKey> edges(view.edges.begin(), view.edges.end());
    const std::vector<uint32_t> totals(view.totals.begin(),
                                       view.totals.end());
    std::vector<std::vector<size_t>> rows;
    for (size_t i = 0; i < edges.size(); ++i) {
      rows.push_back(::tpp::testing::DenseRow(view, i, targets.size()));
    }
    for (EdgeKey e : candidates) {
      if (!std::ranges::binary_search(edges, e)) {
        ASSERT_EQ(engine.index().Gain(e), 0u)
            << "positive-gain edge " << e << " outside the round universe";
      }
    }
    const std::unordered_map<EdgeKey, size_t> brute =
        BruteGains(engine.index());
    for (size_t i = 0; i < edges.size(); ++i) {
      ASSERT_EQ(totals[i], engine.index().Gain(edges[i]));
      const auto it = brute.find(edges[i]);
      ASSERT_EQ(totals[i], it == brute.end() ? 0 : it->second)
          << "cached count diverged from instance recount";
      ASSERT_EQ(rows[i], engine.GainVector(edges[i]));
    }

    // The restricted candidate set is exactly the positive-gain edges.
    for (EdgeKey e : engine.index().AliveCandidateEdges()) {
      ASSERT_GT(engine.index().Gain(e), 0u);
    }

    // Per-target splits stay consistent with the total.
    EdgeKey probe = candidates[rng.UniformIndex(candidates.size())];
    std::vector<size_t> diffs = engine.GainVector(probe);
    size_t total = 0;
    for (size_t d : diffs) total += d;
    ASSERT_EQ(total, engine.index().Gain(probe));

    // Commit a deletion (occasionally re-deleting a dead edge) and
    // cross-check every maintained count against a from-scratch rebuild
    // on the current graph.
    EdgeKey victim = candidates[rng.UniformIndex(candidates.size())];
    size_t expected = engine.index().Gain(victim);
    size_t realized = engine.DeleteEdge(victim);
    ASSERT_EQ(realized, expected);
    ASSERT_EQ(engine.DeleteEdge(victim), 0u);  // idempotent re-delete

    auto rebuilt = BuildFreshIndex(engine.CurrentGraph(), inst.targets, kind);
    ASSERT_TRUE(rebuilt.ok());
    ASSERT_EQ(rebuilt->TotalAlive(), engine.TotalSimilarity());
    for (size_t tt = 0; tt < targets.size(); ++tt) {
      ASSERT_EQ(rebuilt->AliveForTarget(tt), engine.SimilarityOf(tt));
    }
    ASSERT_EQ(rebuilt->AliveCandidateEdges(),
              engine.index().AliveCandidateEdges());
    for (EdgeKey e : rebuilt->AliveCandidateEdges()) {
      ASSERT_EQ(rebuilt->Gain(e), engine.index().Gain(e))
          << "stale cached count after DeleteEdge";
    }
  }
}

TEST_P(GainFastPathStressTest, CsrMatchesLegacyReference) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 7000);
  Graph g = *graph::BarabasiAlbert(30, 3, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 4);
  TppInstance inst = *core::MakeInstance(g, targets, kind);

  auto csr = BuildFreshIndex(inst.released, inst.targets, kind);
  auto legacy =
      LegacyIncidenceIndex::Build(inst.released, inst.targets, kind);
  ASSERT_TRUE(csr.ok());
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(csr->TotalAlive(), legacy->TotalAlive());
  const std::span<const EdgeKey> interned = csr->InternedEdgeKeys();
  ASSERT_EQ(std::vector<EdgeKey>(interned.begin(), interned.end()),
            legacy->AllParticipatingEdges());

  for (int step = 0; step < 15; ++step) {
    std::vector<EdgeKey> candidates = csr->AliveCandidateEdges();
    ASSERT_EQ(candidates, legacy->AliveCandidateEdges());
    if (candidates.empty()) break;
    for (EdgeKey e : candidates) {
      ASSERT_EQ(csr->Gain(e), legacy->Gain(e));
      std::vector<size_t> ac(targets.size(), 0), al(targets.size(), 0);
      csr->AccumulateGains(e, &ac);
      legacy->AccumulateGains(e, &al);
      ASSERT_EQ(ac, al);
    }
    EdgeKey victim = candidates[rng.UniformIndex(candidates.size())];
    ASSERT_EQ(csr->DeleteEdge(victim), legacy->DeleteEdge(victim));
    ASSERT_EQ(csr->TotalAlive(), legacy->TotalAlive());
    ASSERT_EQ(csr->AliveCounts(), legacy->AliveCounts());
  }
  // Deleting every remaining candidate in key order, with no read in
  // between (the deferred queues absorb the whole burst), kills every
  // instance on both indexes and leaves every per-target split at zero.
  const std::vector<EdgeKey> remaining = csr->AliveCandidateEdges();
  ASSERT_EQ(remaining, legacy->AliveCandidateEdges());
  for (EdgeKey e : remaining) {
    ASSERT_EQ(csr->DeleteEdge(e), legacy->DeleteEdge(e));
  }
  ASSERT_EQ(csr->TotalAlive(), 0u);
  ASSERT_EQ(legacy->TotalAlive(), 0u);
  ASSERT_EQ(csr->AliveCounts(), legacy->AliveCounts());
  for (EdgeKey e : interned) {
    std::vector<size_t> ac(targets.size(), 0);
    csr->AccumulateGains(e, &ac);
    ASSERT_EQ(ac, std::vector<size_t>(targets.size(), 0));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GainFastPathStressTest,
    ::testing::Combine(::testing::ValuesIn(kAllMotifs),
                       ::testing::Values(5, 17, 43, 97)),
    [](const ::testing::TestParamInfo<std::tuple<MotifKind, uint64_t>>&
           info) {
      return std::string(MotifName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tpp::motif
