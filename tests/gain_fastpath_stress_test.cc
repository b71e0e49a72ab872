// Randomized stress test for the CSR gain fast path: interleaves
// BatchGain, Gain, CandidateGains, and DeleteEdge on generated graphs and
// cross-checks the index's cached alive counts against a from-scratch
// recount after every deletion. Guards the alive-count invariant
// documented in motif/incidence_index.h:
//   alive_count_[e] == |{i : alive_[i] and e in instance i}|.

#include <gtest/gtest.h>

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
  // Force the std::thread partitioned BatchGain path (an explicit budget
  // bypasses the batch-size heuristic), so the parallel chunking is
  // exercised against the serial oracle on every step.
  engine.set_threads(3);

  for (int step = 0; step < 20; ++step) {
    std::vector<EdgeKey> candidates =
        engine.Candidates(CandidateScope::kAllEdges);
    if (candidates.empty()) break;

    // Threaded batched sweep == cached counts == brute recount per edge.
    std::vector<size_t> batch = engine.BatchGain(candidates);
    ASSERT_EQ(batch.size(), candidates.size());
    for (size_t i = 0; i < candidates.size(); ++i) {
      ASSERT_EQ(batch[i], engine.index().Gain(candidates[i]));
      ASSERT_EQ(batch[i], BruteGain(engine.index(), candidates[i]))
          << "cached count diverged from instance recount";
    }

    // The one-scan restricted round agrees with its own spec.
    std::vector<EdgeKey> sweep_edges;
    std::vector<size_t> sweep_gains;
    engine.CandidateGains(CandidateScope::kTargetSubgraphEdges, &sweep_edges,
                          &sweep_gains);
    ASSERT_EQ(sweep_edges, engine.index().AliveCandidateEdges());
    for (size_t i = 0; i < sweep_edges.size(); ++i) {
      ASSERT_GT(sweep_gains[i], 0u);
      ASSERT_EQ(sweep_gains[i], engine.index().Gain(sweep_edges[i]));
    }

    // Per-target splits stay consistent with the total.
    EdgeKey probe = candidates[rng.UniformIndex(candidates.size())];
    std::vector<size_t> diffs = engine.GainVector(probe);
    size_t total = 0;
    for (size_t d : diffs) total += d;
    ASSERT_EQ(total, engine.index().Gain(probe));
    size_t t = rng.UniformIndex(targets.size());
    auto split = engine.GainFor(probe, t);
    ASSERT_EQ(split.own, diffs[t]);
    ASSERT_EQ(split.total(), total);

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
      size_t t = rng.UniformIndex(targets.size());
      auto sc = csr->GainFor(e, t);
      auto sl = legacy->GainFor(e, t);
      ASSERT_EQ(sc.own, sl.own);
      ASSERT_EQ(sc.cross, sl.cross);
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
