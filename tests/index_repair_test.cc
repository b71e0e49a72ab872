// Randomized churn fuzz for the in-place index repair
// (IncidenceIndex::ApplyGraphDelta: the delta applies to the graph first,
// then the index repairs around it): after any committed base-graph edit
// the repaired index must be semantically identical to a cold Build on the
// edited graph — same per-key gains, same per-target splits, same alive
// candidate set, same dirty sets — and greedy plans solved over the
// repaired index must come out byte-identical to plans solved on a
// freshly built engine. The interned universe itself is an ascending
// SUPERSET of the cold one (keys whose last instance died keep their
// dense id with alive count 0, so repairs never renumber survivors); the
// checks below therefore compare by KEY, never by dense id.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "core/report.h"
#include "core/solver.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "motif/enumerate.h"
#include "motif/incidence_index.h"
#include "reference/legacy_incidence_index.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using ::tpp::testing::BuildFreshIndex;
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
// links), honoring the ApplyGraphDelta contract.
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

// One committed edit: the graph advances first (the repair enumerates
// created instances on the post-edit graph), then the index repairs.
Status CommitEdit(Graph& g, IncidenceIndex& index,
                  const std::vector<Edge>& targets, MotifKind kind,
                  const GraphDelta& delta) {
  TPP_RETURN_IF_ERROR(g.ApplyDelta(delta));
  return index.ApplyGraphDelta(g, targets, kind, delta);
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
  IncidenceIndex repaired =
      *BuildFreshIndex(inst.released, targets, kind);

  for (int commit = 0; commit < 6; ++commit) {
    GraphDelta delta = RandomDelta(inst.released, target_keys, 3, 3, rng);
    if (delta.empty()) continue;
    ASSERT_TRUE(CommitEdit(inst.released, repaired, targets, kind, delta)
                    .ok())
        << "commit " << commit;

    Result<IncidenceIndex> cold =
        BuildFreshIndex(inst.released, targets, kind);
    ASSERT_TRUE(cold.ok());
    LegacyIncidenceIndex legacy =
        *LegacyIncidenceIndex::Build(inst.released, targets, kind);

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
  IncidenceIndex repaired =
      *BuildFreshIndex(inst.released, targets, kind);

  GraphDelta delta = RandomDelta(inst.released, target_keys, 2, 3, rng);
  if (delta.empty()) GTEST_SKIP();
  ASSERT_TRUE(CommitEdit(inst.released, repaired, targets, kind, delta).ok());

  // Cold-build the repaired index's twin; identical deletion sequences
  // must report identical dirty sets (the incremental round engine's
  // re-evaluation contract) and identical count arrays.
  IncidenceIndex cold = *BuildFreshIndex(inst.released, targets, kind);
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
  TppInstance edited = *MakeInstance(g, targets, kind);
  IncidenceIndex repaired =
      *BuildFreshIndex(edited.released, targets, kind);

  SolverSpec spec;
  spec.algorithm = "sgb";
  spec.scope = CandidateScope::kTargetSubgraphEdges;
  spec.budget = 6;

  for (int commit = 0; commit < 4; ++commit) {
    GraphDelta delta = RandomDelta(edited.released, target_keys, 2, 3, rng);
    if (delta.empty()) continue;
    ASSERT_TRUE(
        CommitEdit(edited.released, repaired, targets, kind, delta).ok());
    ASSERT_TRUE(g.ApplyDelta(delta).ok());  // the base, edited alongside

    // The repository hands requests an engine over a copy of the repaired
    // index and a copy of the edited base minus the targets.
    IndexedEngine via_repair_engine =
        *IndexedEngine::Adopt(g, edited, repaired);
    ASSERT_EQ(via_repair_engine.CurrentGraph(), edited.released);
    Rng solve_rng_a(7);
    Result<ProtectionResult> via_repair =
        RunSolver(spec, via_repair_engine, edited, solve_rng_a);
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

// InstanceRepository repairs against the edited BASE, target links
// present: the repair must drop every created instance that uses a target
// link and come out BitIdentical to the repair against the edited G - T.
// Two targets share an endpoint u — (u, v) and (u, w), v and w not
// adjacent — and every commit also inserts links at w toward v and its
// neighbors (the first is (w, v) itself), closing paths from v through
// the target link (u, w), so created base instances that hold a target
// link occur for every motif.
TEST_P(IndexRepairTest, RepairOnBaseIsBitIdenticalToRepairOnReleased) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 2000);
  Graph base = *graph::ErdosRenyiGnp(26, 0.2, rng);
  NodeId u = 0;
  for (NodeId x = 0; x < base.NumNodes(); ++x) {
    if (base.Degree(x) > base.Degree(u)) u = x;
  }
  NodeId v = u;
  NodeId w = u;
  for (NodeId a : base.Neighbors(u)) {
    for (NodeId b : base.Neighbors(u)) {
      if (v == u && a != b && !base.HasEdge(a, b)) {
        v = a;
        w = b;
      }
    }
  }
  ASSERT_NE(v, u);
  std::vector<Edge> targets = {Edge(u, v), Edge(u, w)};
  std::set<EdgeKey> target_keys = {MakeEdgeKey(u, v), MakeEdgeKey(u, w)};
  for (const Edge& e : rng.SampleK(base.Edges(), 4)) {
    if (targets.size() < 4 && target_keys.insert(e.Key()).second) {
      targets.push_back(e);
    }
  }
  TppInstance inst = *MakeInstance(base, targets, kind);
  IncidenceIndex on_released =
      *BuildFreshIndex(inst.released, targets, kind);
  IncidenceIndex on_base = on_released;

  size_t through_target = 0;  // created base instances holding a target
  for (int commit = 0; commit < 8; ++commit) {
    GraphDelta random = RandomDelta(inst.released, target_keys, 2, 2, rng);
    std::vector<Edge> inserted = random.inserted;
    std::set<EdgeKey> used;
    for (const Edge& e : random.inserted) used.insert(e.Key());
    for (const Edge& e : random.removed) used.insert(e.Key());
    // Links at w toward v or v's neighbors: the created paths run
    // v ... x - w - u, through the target link (u, w).
    std::vector<NodeId> toward = {v};
    for (NodeId x : inst.released.Neighbors(v)) toward.push_back(x);
    const size_t want = random.inserted.size() + 2;
    for (size_t tries = 0; tries < 8 && inserted.size() < want; ++tries) {
      const NodeId x = commit == 0 && tries == 0
                           ? v
                           : toward[rng.UniformIndex(toward.size())];
      if (x == w || base.HasEdge(w, x)) continue;
      if (!used.insert(MakeEdgeKey(w, x)).second) continue;
      inserted.emplace_back(std::min(w, x), std::max(w, x));
    }
    Result<GraphDelta> delta =
        graph::MakeGraphDelta(std::move(inserted), std::move(random.removed));
    ASSERT_TRUE(delta.ok()) << delta.status();
    if (delta->empty()) continue;

    ASSERT_TRUE(
        CommitEdit(inst.released, on_released, targets, kind, *delta).ok());
    ASSERT_TRUE(CommitEdit(base, on_base, targets, kind, *delta).ok());
    ASSERT_TRUE(on_base.BitIdentical(on_released)) << "commit " << commit;

    std::set<EdgeKey> inserted_keys;
    for (const Edge& e : delta->inserted) inserted_keys.insert(e.Key());
    for (size_t t = 0; t < targets.size(); ++t) {
      for (const motif::TargetSubgraph& found :
           motif::EnumerateTargetSubgraphs(base, targets[t], kind,
                                           static_cast<int32_t>(t))) {
        bool has_target = false;
        bool has_insert = false;
        for (uint8_t j = 0; j < found.num_edges; ++j) {
          has_target |= target_keys.count(found.edges[j]) > 0;
          has_insert |= inserted_keys.count(found.edges[j]) > 0;
        }
        through_target += has_target && has_insert ? 1 : 0;
      }
    }
  }
  EXPECT_GT(through_target, 0u);
}

// Long churn on the Arenas-like fixture, the way InstanceRepository keeps a
// group: one index built on the base, repaired in place on the edited
// base through 1,000 seeded commits (one link removed and one inserted
// each), and checked every 100 commits against a cold build of the edited
// base — per-key gains, per-target splits, alive tallies and the alive
// candidate set. The grow-only universe's dead rows (interned keys with
// alive count 0) are exactly the keys the cold build does not intern;
// their count at the last checkpoint is recorded per motif.
TEST(IndexRepairLongChurnTest, ThousandCommitsMatchColdBuildAtCheckpoints) {
  constexpr int kCommits = 1000;
  constexpr int kCheckEvery = 100;
  for (MotifKind kind : motif::kAllMotifs) {
    SCOPED_TRACE(std::string(motif::MotifName(kind)));
    Graph base = *graph::MakeArenasEmailLike(1);
    Rng rng(4200 + static_cast<uint64_t>(kind));
    const std::vector<Edge> targets =
        rng.SampleK(base.Edges(), kind == MotifKind::kPentagon ? 40 : 100);
    std::set<EdgeKey> target_keys;
    for (const Edge& t : targets) target_keys.insert(t.Key());
    IncidenceIndex repaired = *BuildFreshIndex(base, targets, kind);
    size_t dead_rows = 0;
    for (int commit = 1; commit <= kCommits; ++commit) {
      const GraphDelta delta = RandomDelta(base, target_keys, 1, 1, rng);
      ASSERT_TRUE(CommitEdit(base, repaired, targets, kind, delta).ok())
          << "commit " << commit;
      if (commit % kCheckEvery != 0) continue;
      SCOPED_TRACE("commit " + std::to_string(commit));
      IncidenceIndex cold = *BuildFreshIndex(base, targets, kind);
      std::span<const EdgeKey> rk = repaired.InternedEdgeKeys();
      std::span<const EdgeKey> ck = cold.InternedEdgeKeys();
      ASSERT_TRUE(std::includes(rk.begin(), rk.end(), ck.begin(), ck.end()));
      ASSERT_EQ(repaired.TotalAlive(), cold.TotalAlive());
      ASSERT_EQ(repaired.AliveCounts(), cold.AliveCounts());
      ASSERT_EQ(repaired.AliveCandidateEdges(), cold.AliveCandidateEdges());
      std::vector<size_t> row_r(targets.size());
      std::vector<size_t> row_c(targets.size());
      dead_rows = 0;
      for (EdgeKey key : rk) {
        ASSERT_EQ(repaired.Gain(key), cold.Gain(key)) << key;
        dead_rows += repaired.Gain(key) == 0 ? 1 : 0;
        std::fill(row_r.begin(), row_r.end(), 0);
        std::fill(row_c.begin(), row_c.end(), 0);
        repaired.AccumulateGains(key, &row_r);
        cold.AccumulateGains(key, &row_c);
        ASSERT_EQ(row_r, row_c) << key;
      }
      ASSERT_EQ(dead_rows, rk.size() - ck.size());
    }
    ::testing::Test::RecordProperty(
        "dead_rows_" + std::string(motif::MotifName(kind)),
        std::to_string(dead_rows) + " of " +
            std::to_string(repaired.NumInternedEdges()));
  }
}

// A fresh index over a small random graph for the rejection cases.
struct ErrorFixture {
  Graph released;
  std::vector<Edge> targets;
  IncidenceIndex index;
};

ErrorFixture MakeErrorFixture(uint64_t seed) {
  Rng rng(seed);
  Graph g = *graph::ErdosRenyiGnp(20, 0.25, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 3);
  TppInstance inst = *MakeInstance(g, targets, MotifKind::kTriangle);
  IncidenceIndex index =
      *BuildFreshIndex(inst.released, targets, MotifKind::kTriangle);
  return {std::move(inst.released), std::move(targets), std::move(index)};
}

// A rejected repair must leave the index exactly as it was.
TEST(IndexRepairErrorTest, TargetLinkDeltaRejectedAndIndexUntouched) {
  ErrorFixture fx = MakeErrorFixture(11);
  const IncidenceIndex before = fx.index;
  const Graph graph_before = fx.released;

  GraphDelta delta;
  delta.inserted = {fx.targets[0]};  // re-inserting a target link is an
                                     // edit to the problem, not the base
  Graph edited = fx.released;
  ASSERT_TRUE(edited.ApplyDelta(delta).ok());
  EXPECT_FALSE(fx.index
                   .ApplyGraphDelta(edited, fx.targets, MotifKind::kTriangle,
                                    delta)
                   .ok());
  EXPECT_TRUE(fx.index.BitIdentical(before));
  EXPECT_EQ(fx.released, graph_before);
}

TEST(IndexRepairErrorTest, MismatchedDeltaRejectedAndIndexUntouched) {
  ErrorFixture fx = MakeErrorFixture(12);
  const IncidenceIndex before = fx.index;
  const Graph graph_before = fx.released;

  // A pair absent from the released graph: "removing" it fails at the
  // graph, which stays unchanged; claiming it was inserted without
  // inserting it fails at the index, which stays unchanged.
  GraphDelta delta;
  for (NodeId u = 0; delta.removed.empty(); ++u) {
    for (NodeId v = u + 1; v < 20; ++v) {
      if (!graph_before.HasEdge(u, v)) {
        delta.removed.push_back(Edge(u, v));
        break;
      }
    }
  }
  Graph edited = fx.released;
  EXPECT_FALSE(edited.ApplyDelta(delta).ok());
  EXPECT_EQ(edited, graph_before);

  GraphDelta phantom;
  phantom.inserted = delta.removed;
  EXPECT_FALSE(fx.index
                   .ApplyGraphDelta(fx.released, fx.targets,
                                    MotifKind::kTriangle, phantom)
                   .ok());
  // The index keeps the node count it was built over (a snapshot carries
  // it too), so a graph of another size fails at the index as well.
  Graph grown = fx.released;
  grown.AddNode();
  EXPECT_EQ(fx.index.ApplyGraphDelta(grown, fx.targets, MotifKind::kTriangle,
                                     GraphDelta{}).message(),
            "graph has 21 nodes but the index was built over 20");
  EXPECT_TRUE(fx.index.BitIdentical(before));
  EXPECT_EQ(fx.released, graph_before);
}

TEST(IndexRepairErrorTest, NonFreshIndexRejected) {
  ErrorFixture fx = MakeErrorFixture(13);
  std::vector<EdgeKey> candidates = fx.index.AliveCandidateEdges();
  if (candidates.empty()) GTEST_SKIP();
  fx.index.DeleteEdge(candidates[0]);
  const IncidenceIndex before = fx.index;

  GraphDelta delta;
  delta.removed = {graph::Edge(graph::EdgeKeyU(candidates.back()),
                               graph::EdgeKeyV(candidates.back()))};
  ASSERT_TRUE(fx.released.ApplyDelta(delta).ok());
  EXPECT_FALSE(fx.index
                   .ApplyGraphDelta(fx.released, fx.targets,
                                    MotifKind::kTriangle, delta)
                   .ok());
  EXPECT_TRUE(fx.index.BitIdentical(before));
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
