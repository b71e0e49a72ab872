// Randomized churn fuzz for the in-place index repair
// (IncidenceIndex::ApplyGraphDelta via IndexedEngine::ApplyEdit): after
// any committed base-graph edit the repaired index must be semantically
// identical to a cold Build on the edited graph — same per-key gains,
// same per-target splits, same alive candidate set, same dirty sets —
// and greedy plans solved on the repaired engine must come out
// byte-identical to plans solved on a freshly built engine. The interned
// universe itself is an ascending SUPERSET of the cold one (keys whose
// last instance died keep their dense id with alive count 0, so repairs
// never renumber survivors); the checks below therefore compare by KEY,
// never by dense id.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "core/report.h"
#include "core/solver.h"
#include "graph/generators.h"
#include "motif/incidence_index.h"
#include "reference/legacy_incidence_index.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;
using graph::GraphDelta;
using graph::MakeEdgeKey;
using graph::NodeId;
using motif::IncidenceIndex;
using motif::LegacyIncidenceIndex;
using motif::MotifKind;

// Builds a random normalized delta against `g`: removes up to
// `max_removes` present edges and inserts up to `max_inserts` absent
// non-target pairs. Never touches a key in `forbidden` (the target
// links), honoring the ApplyEdit contract.
GraphDelta RandomDelta(const Graph& g, const std::set<EdgeKey>& forbidden,
                       size_t max_removes, size_t max_inserts, Rng& rng) {
  GraphDelta delta;
  std::vector<Edge> edges = g.Edges();
  std::set<EdgeKey> touched;
  for (size_t i = 0; i < max_removes && !edges.empty(); ++i) {
    const Edge& e = edges[rng.UniformIndex(edges.size())];
    if (forbidden.count(e.Key()) || !touched.insert(e.Key()).second) {
      continue;
    }
    delta.removed.push_back(e);
  }
  const size_t n = g.NumNodes();
  for (size_t i = 0; i < 4 * max_inserts && delta.inserted.size() <
       max_inserts; ++i) {
    NodeId u = static_cast<NodeId>(rng.UniformIndex(n));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    EdgeKey key = MakeEdgeKey(u, v);
    if (g.HasEdge(u, v) || forbidden.count(key)) continue;
    if (!touched.insert(key).second) continue;
    delta.inserted.push_back(Edge(u, v));
  }
  auto by_key = [](const Edge& a, const Edge& b) {
    return a.Key() < b.Key();
  };
  std::sort(delta.inserted.begin(), delta.inserted.end(), by_key);
  std::sort(delta.removed.begin(), delta.removed.end(), by_key);
  return delta;
}

class IndexRepairTest
    : public ::testing::TestWithParam<std::tuple<MotifKind, uint64_t>> {};

TEST_P(IndexRepairTest, RepairedMatchesColdBuildUnderChurn) {
  auto [kind, seed] = GetParam();
  Rng rng(seed);
  Graph g = *graph::ErdosRenyiGnp(26, 0.18, rng);
  if (g.NumEdges() < 12) GTEST_SKIP();
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 4);
  std::set<EdgeKey> target_keys;
  for (const Edge& t : targets) target_keys.insert(t.Key());
  TppInstance inst = *MakeInstance(g, targets, kind);
  IndexedEngine engine = *IndexedEngine::Create(inst);

  for (int commit = 0; commit < 6; ++commit) {
    GraphDelta delta =
        RandomDelta(engine.CurrentGraph(), target_keys, 3, 3, rng);
    if (delta.empty()) continue;
    ASSERT_TRUE(engine.ApplyEdit(delta).ok()) << "commit " << commit;

    Result<IncidenceIndex> cold =
        IncidenceIndex::Build(engine.CurrentGraph(), targets, kind);
    ASSERT_TRUE(cold.ok());
    LegacyIncidenceIndex legacy = *LegacyIncidenceIndex::Build(
        engine.CurrentGraph(), targets, kind);
    IncidenceIndex& repaired = engine.index();

    // The repaired universe is an ascending superset of the cold one:
    // every cold key embeds in order, and the extra keys (edges whose
    // last instance died in some earlier commit) must hold gain 0 — the
    // per-key loop below checks that via cold->Gain returning 0 for keys
    // it never interned.
    std::span<const EdgeKey> rk = repaired.InternedEdgeKeys();
    std::span<const EdgeKey> ck = cold->InternedEdgeKeys();
    ASSERT_TRUE(std::is_sorted(rk.begin(), rk.end()));
    ASSERT_TRUE(std::includes(rk.begin(), rk.end(), ck.begin(), ck.end()))
        << "cold universe not embedded in repaired at commit " << commit;

    // Identical alive state and per-target splits.
    ASSERT_EQ(repaired.TotalAlive(), cold->TotalAlive());
    ASSERT_EQ(repaired.TotalAlive(), legacy.TotalAlive());
    ASSERT_EQ(repaired.AliveCounts(), cold->AliveCounts());
    ASSERT_EQ(repaired.instances().size(), cold->instances().size());

    std::vector<size_t> row_r(targets.size());
    std::vector<size_t> row_c(targets.size());
    for (EdgeKey key : rk) {
      ASSERT_EQ(repaired.Gain(key), cold->Gain(key)) << "gain diverged";
      ASSERT_EQ(repaired.Gain(key), legacy.Gain(key))
          << "gain diverged from legacy reference";
      std::fill(row_r.begin(), row_r.end(), 0);
      std::fill(row_c.begin(), row_c.end(), 0);
      repaired.AccumulateGains(key, &row_r);
      cold->AccumulateGains(key, &row_c);
      ASSERT_EQ(row_r, row_c) << "per-target split diverged";
    }
    ASSERT_EQ(repaired.AliveCandidateEdges(), cold->AliveCandidateEdges());
  }
}

TEST_P(IndexRepairTest, DirtySetsMatchColdBuildAfterRepair) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 500);
  Graph g = *graph::ErdosRenyiGnp(24, 0.2, rng);
  if (g.NumEdges() < 12) GTEST_SKIP();
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 3);
  std::set<EdgeKey> target_keys;
  for (const Edge& t : targets) target_keys.insert(t.Key());
  TppInstance inst = *MakeInstance(g, targets, kind);
  IndexedEngine engine = *IndexedEngine::Create(inst);

  GraphDelta delta =
      RandomDelta(engine.CurrentGraph(), target_keys, 2, 3, rng);
  if (delta.empty()) GTEST_SKIP();
  ASSERT_TRUE(engine.ApplyEdit(delta).ok());

  // Deep-copy the repaired index and cold-build its twin; identical
  // deletion sequences must report identical dirty sets (the incremental
  // round engine's re-evaluation contract) and identical count arrays.
  IncidenceIndex repaired = engine.index();
  IncidenceIndex cold =
      *IncidenceIndex::Build(engine.CurrentGraph(), targets, kind);
  // Dense ids differ between the two universes (the repaired one is a
  // superset), so dirty sets and count arrays compare by KEY.
  auto dirty_keys = [](const IncidenceIndex& idx,
                       std::vector<uint32_t>& ids) {
    std::span<const EdgeKey> keys = idx.InternedEdgeKeys();
    std::vector<EdgeKey> out;
    out.reserve(ids.size());
    for (uint32_t id : ids) out.push_back(keys[id]);
    std::sort(out.begin(), out.end());
    return out;
  };
  for (int step = 0; step < 8; ++step) {
    std::vector<EdgeKey> candidates = repaired.AliveCandidateEdges();
    if (candidates.empty()) break;
    EdgeKey victim = candidates[rng.UniformIndex(candidates.size())];
    std::vector<uint32_t> dirty_r;
    std::vector<uint32_t> dirty_c;
    ASSERT_EQ(repaired.DeleteEdge(victim, &dirty_r),
              cold.DeleteEdge(victim, &dirty_c));
    ASSERT_EQ(dirty_keys(repaired, dirty_r), dirty_keys(cold, dirty_c))
        << "dirty set diverged";
    repaired.FlushDeferredCounts();
    cold.FlushDeferredCounts();
    std::span<const EdgeKey> rk = repaired.InternedEdgeKeys();
    const std::vector<uint32_t>& counts_r = repaired.PerEdgeAliveCounts();
    for (size_t id = 0; id < rk.size(); ++id) {
      ASSERT_EQ(counts_r[id], cold.Gain(rk[id]))
          << "alive count diverged for key " << rk[id];
    }
  }
}

TEST_P(IndexRepairTest, PlansByteIdenticalAfterRepair) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 1000);
  Graph g = *graph::ErdosRenyiGnp(26, 0.18, rng);
  if (g.NumEdges() < 12) GTEST_SKIP();
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 4);
  std::set<EdgeKey> target_keys;
  for (const Edge& t : targets) target_keys.insert(t.Key());
  TppInstance inst = *MakeInstance(g, targets, kind);
  IndexedEngine engine = *IndexedEngine::Create(inst);

  SolverSpec spec;
  spec.algorithm = "sgb";
  spec.scope = CandidateScope::kTargetSubgraphEdges;
  spec.budget = 6;

  for (int commit = 0; commit < 4; ++commit) {
    GraphDelta delta =
        RandomDelta(engine.CurrentGraph(), target_keys, 2, 3, rng);
    if (delta.empty()) continue;
    ASSERT_TRUE(engine.ApplyEdit(delta).ok());

    TppInstance edited;
    edited.released = engine.CurrentGraph();
    edited.targets = targets;
    edited.motif = kind;

    IndexedEngine repaired_clone = engine.Clone();
    Rng solve_rng_a(7);
    Result<ProtectionResult> via_repair =
        RunSolver(spec, repaired_clone, edited, solve_rng_a);
    ASSERT_TRUE(via_repair.ok());

    IndexedEngine fresh = *IndexedEngine::Create(edited);
    Rng solve_rng_b(7);
    Result<ProtectionResult> via_fresh =
        RunSolver(spec, fresh, edited, solve_rng_b);
    ASSERT_TRUE(via_fresh.ok());

    EXPECT_EQ(SerializeDeletionPlan(edited, *via_repair),
              SerializeDeletionPlan(edited, *via_fresh))
        << "plan bytes diverged at commit " << commit;
  }
}

TEST(IndexRepairErrorTest, TargetLinkDeltaRejectedAndEngineUntouched) {
  Rng rng(11);
  Graph g = *graph::ErdosRenyiGnp(20, 0.25, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 3);
  TppInstance inst = *MakeInstance(g, targets, MotifKind::kTriangle);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  const size_t before = engine.TotalSimilarity();
  const Graph graph_before = engine.CurrentGraph();

  GraphDelta delta;
  delta.inserted = {targets[0]};  // re-inserting a target link is an edit
                                  // to the problem, not the base graph
  Status s = engine.ApplyEdit(delta);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(engine.TotalSimilarity(), before);
  EXPECT_EQ(engine.CurrentGraph(), graph_before);
}

TEST(IndexRepairErrorTest, MismatchedDeltaRejectedAndEngineUntouched) {
  Rng rng(12);
  Graph g = *graph::ErdosRenyiGnp(20, 0.25, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 3);
  TppInstance inst = *MakeInstance(g, targets, MotifKind::kTriangle);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  const Graph graph_before = engine.CurrentGraph();

  // Find a pair absent from the released graph and "remove" it.
  GraphDelta delta;
  for (NodeId u = 0; delta.removed.empty(); ++u) {
    for (NodeId v = u + 1; v < 20; ++v) {
      if (!graph_before.HasEdge(u, v)) {
        delta.removed.push_back(Edge(u, v));
        break;
      }
    }
  }
  EXPECT_FALSE(engine.ApplyEdit(delta).ok());
  EXPECT_EQ(engine.CurrentGraph(), graph_before);
}

TEST(IndexRepairErrorTest, NonFreshEngineRejected) {
  Rng rng(13);
  Graph g = *graph::ErdosRenyiGnp(20, 0.25, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 3);
  TppInstance inst = *MakeInstance(g, targets, MotifKind::kTriangle);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  std::vector<EdgeKey> candidates =
      engine.Candidates(CandidateScope::kTargetSubgraphEdges);
  if (candidates.empty()) GTEST_SKIP();
  engine.DeleteEdge(candidates[0]);

  GraphDelta delta;
  delta.removed = {graph::Edge(graph::EdgeKeyU(candidates.back()),
                               graph::EdgeKeyV(candidates.back()))};
  EXPECT_FALSE(engine.ApplyEdit(delta).ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllMotifs, IndexRepairTest,
    ::testing::Combine(::testing::ValuesIn(motif::kAllMotifs),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<std::tuple<MotifKind, uint64_t>>&
           info) {
      return std::string(motif::MotifName(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tpp::core
