// Randomized stress test for the CSR gain fast path: interleaves
// BeginRound's threaded row fill, Gain, GainVector, and DeleteEdge on
// generated graphs and cross-checks the index's cached alive counts
// against a from-scratch recount after every deletion. Guards the alive-count invariant
// documented in motif/incidence_index.h:
//   alive_count_[e] == |{i : alive_[i] and e in instance i}|.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/generators.h"
#include "motif/incidence_index.h"
#include "reference/legacy_incidence_index.h"

namespace tpp::motif {
namespace {

using core::CandidateScope;
using core::IndexedEngine;
using core::RoundGains;
using core::TppInstance;
using graph::Edge;
using graph::EdgeKey;
using graph::Graph;

// Independent per-edge recount straight off the instance list: the gain of
// `e` is the number of alive instances containing it.
size_t BruteGain(const IncidenceIndex& idx, EdgeKey e) {
  size_t gain = 0;
  for (size_t i = 0; i < idx.instances().size(); ++i) {
    if (idx.IsAlive(i) && idx.instances()[i].ContainsEdge(e)) ++gain;
  }
  return gain;
}

class GainFastPathStressTest
    : public ::testing::TestWithParam<std::tuple<MotifKind, uint64_t>> {};

TEST_P(GainFastPathStressTest, CachedCountsSurviveRandomDeletions) {
  auto [kind, seed] = GetParam();
  Rng rng(seed);
  Graph g = *graph::ErdosRenyiGnp(32, 0.18, rng);
  if (g.NumEdges() < 12) GTEST_SKIP();
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 5);
  TppInstance inst = *core::MakeInstance(g, targets, kind);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  // Force the partitioned row fill (an explicit budget bypasses the
  // job-size heuristic), so the parallel chunking is exercised against
  // the serial oracles on every step.
  engine.set_threads(3);

  for (int step = 0; step < 20; ++step) {
    std::vector<EdgeKey> candidates =
        engine.Candidates(CandidateScope::kAllEdges);
    if (candidates.empty()) break;

    // Threaded round view == cached counts == brute recount per edge. The
    // view's universe is the graph's edge set at session start, which
    // covers every current candidate.
    const RoundGains& view =
        engine.BeginRound(CandidateScope::kAllEdges, /*per_target=*/true);
    const std::vector<EdgeKey> edges(view.edges.begin(), view.edges.end());
    const std::vector<uint32_t> totals(view.totals.begin(),
                                       view.totals.end());
    const std::vector<uint32_t> rows(view.rows.begin(), view.rows.end());
    ASSERT_TRUE(std::ranges::includes(edges, candidates));
    for (size_t i = 0; i < edges.size(); ++i) {
      ASSERT_EQ(totals[i], engine.index().Gain(edges[i]));
      ASSERT_EQ(totals[i], BruteGain(engine.index(), edges[i]))
          << "cached count diverged from instance recount";
      std::vector<size_t> diffs = engine.GainVector(edges[i]);
      for (size_t t = 0; t < targets.size(); ++t) {
        ASSERT_EQ(rows[i * targets.size() + t], diffs[t]);
      }
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

    auto rebuilt = IncidenceIndex::Build(engine.CurrentGraph(), inst.targets,
                                         kind);
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

  auto csr = IncidenceIndex::Build(inst.released, inst.targets, kind);
  auto legacy =
      LegacyIncidenceIndex::Build(inst.released, inst.targets, kind);
  ASSERT_TRUE(csr.ok());
  ASSERT_TRUE(legacy.ok());
  ASSERT_EQ(csr->TotalAlive(), legacy->TotalAlive());
  ASSERT_EQ(csr->AllParticipatingEdges(), legacy->AllParticipatingEdges());

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
