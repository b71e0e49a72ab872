// Differential coverage of the incremental round engine: dirty-set gain
// maintenance (Engine::BeginRound on IndexedEngine's persistent session
// state) against the cold reference sweeps (tests/reference/), over every
// solver x motif x candidate scope, plus the
// deferred-maintenance protocol of the IncidenceIndex (count and cell
// flushes, dirty-set exactness under randomized delete orders), the
// per-target cell views BeginRound serves straight from the index's CSR-2
// segments, and the sparse CT/WT paths at 2,000 targets.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "core/greedy.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "core/round_argmax.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "motif/incidence_index.h"
#include "reference/greedy_reference.h"
#include "reference/legacy_incidence_index.h"
#include "reference/naive_engine.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using ::tpp::testing::BuildFreshIndex;
using graph::Edge;
using graph::EdgeKey;
using graph::Graph;
using motif::IncidenceIndex;
using motif::LegacyIncidenceIndex;
using motif::MotifKind;
using ::tpp::testing::ScopedGlobalThreads;

TppInstance SampledInstance(const Graph& g, size_t count, uint64_t seed,
                            MotifKind kind) {
  Rng rng(seed);
  auto targets = *SampleTargets(g, count, rng);
  return *MakeInstance(g, targets, kind);
}

Graph TestGraph(uint64_t seed) {
  Rng rng(seed);
  return *graph::HolmeKim(180, 4, 0.3, rng);
}

// Everything the solvers report except wall-clock timestamps.
void ExpectBitIdentical(const ProtectionResult& a, const ProtectionResult& b,
                        const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.initial_similarity, b.initial_similarity);
  EXPECT_EQ(a.final_similarity, b.final_similarity);
  EXPECT_EQ(a.gain_evaluations, b.gain_evaluations);
  ASSERT_EQ(a.picks.size(), b.picks.size());
  for (size_t i = 0; i < a.picks.size(); ++i) {
    EXPECT_EQ(a.protectors[i], b.protectors[i]) << "pick " << i;
    EXPECT_EQ(a.picks[i].realized_gain, b.picks[i].realized_gain)
        << "pick " << i;
    EXPECT_EQ(a.picks[i].for_target, b.picks[i].for_target) << "pick " << i;
    EXPECT_EQ(a.picks[i].similarity_after, b.picks[i].similarity_after)
        << "pick " << i;
  }
}

// Runs `solver` through the production loop, or through the cold
// reference sweep when `cold` is set. `full` is checked against the cold
// SGB sweep at budget = the current similarity, which is what
// FullProtection runs.
Result<ProtectionResult> RunSolver(const std::string& solver, bool cold,
                                   Engine& engine,
                                   const GreedyOptions& options,
                                   const std::vector<size_t>& budgets) {
  if (solver == "sgb") {
    return cold ? SgbGreedyCold(engine, 25, options)
                : SgbGreedy(engine, 25, options);
  }
  if (solver == "full") {
    return cold ? SgbGreedyCold(engine, engine.TotalSimilarity(), options)
                : FullProtection(engine, options);
  }
  if (solver == "ct") {
    return cold ? CtGreedyCold(engine, budgets, options)
                : CtGreedy(engine, budgets, options);
  }
  return cold ? WtGreedyCold(engine, budgets, options)
              : WtGreedy(engine, budgets, options);
}

// The same with CT/WT budgets of 2 per target.
Result<ProtectionResult> RunSolver(const std::string& solver, bool cold,
                                   Engine& engine,
                                   const GreedyOptions& options) {
  return RunSolver(solver, cold, engine, options,
                   std::vector<size_t>(engine.NumTargets(), 2));
}

// Number of CT picks that spent their target's last unit of budget.
size_t Exhaustions(const ProtectionResult& result,
                   const std::vector<size_t>& budgets) {
  std::vector<size_t> spent(budgets.size(), 0);
  size_t exhaustions = 0;
  for (const PickTrace& pick : result.picks) {
    if (++spent[pick.for_target] == budgets[pick.for_target]) ++exhaustions;
  }
  return exhaustions;
}

class IncrementalRoundsTest : public ::testing::TestWithParam<MotifKind> {};

// The tentpole differential: incremental rounds must reproduce the cold
// sweep bit for bit — picks, traces, and the gain-evaluation work metric —
// for all four solvers under both candidate scopes, on two instances:
//   - a small one with CT/WT budgets of 2 per target;
//   - a wide one (180 targets on a dense clustered graph) whose interned
//     universe — the round universe under either scope — spans at least
//     16 selector blocks for every motif, with CT/WT budgets mostly 0 or
//     1, so that CT exhausts a target (and re-seats the rows that had it
//     as best target) across many blocks on most rounds. Its production
//     runs go at global thread budgets of 1 and 4.
TEST_P(IncrementalRoundsTest, MatchesColdSweepAllSolversBothScopes) {
  const MotifKind kind = GetParam();
  struct Case {
    std::string name;
    TppInstance inst;
    std::vector<size_t> budgets;
    std::vector<int> threads;
  };
  std::vector<Case> cases;
  cases.push_back({"small", SampledInstance(TestGraph(11), 10, 5, kind),
                   std::vector<size_t>(10, 2), {0}});
  {
    Rng rng(17);
    const Graph g = *graph::HolmeKim(400, 8, 1.0, rng);
    Case wide{"wide", SampledInstance(g, 180, 3, kind), {}, {1, 4}};
    for (size_t t = 0; t < 180; ++t) {
      wide.budgets.push_back(t % 8 == 0 ? 2 : rng.UniformIndex(2));
    }
    cases.push_back(std::move(wide));
  }
  for (const Case& c : cases) {
    const IndexedEngine prototype = *IndexedEngine::Create(c.inst);
    if (c.name == "wide") {
      const size_t universe = prototype.index().NumInternedEdges();
      ASSERT_GE(universe, 16 * RoundArgmax::kBlock);
    }
    for (CandidateScope scope :
         {CandidateScope::kAllEdges, CandidateScope::kTargetSubgraphEdges}) {
      for (const std::string solver : {"sgb", "full", "ct", "wt"}) {
        const std::string what =
            c.name + "/" + solver +
            (scope == CandidateScope::kAllEdges ? "/all" : "/subgraph");
        GreedyOptions options;
        options.scope = scope;
        IndexedEngine cold_engine = prototype.Clone();
        auto cold_result = RunSolver(solver, /*cold=*/true, cold_engine,
                                     options, c.budgets);
        ASSERT_TRUE(cold_result.ok()) << what;
        for (int threads : c.threads) {
          ScopedGlobalThreads budget(threads);
          IndexedEngine incr_engine = prototype.Clone();
          auto incr_result = RunSolver(solver, /*cold=*/false, incr_engine,
                                       options, c.budgets);
          ASSERT_TRUE(incr_result.ok()) << what;
          ExpectBitIdentical(*cold_result, *incr_result,
                             what + "/threads=" + std::to_string(threads));
          ASSERT_GT(incr_result->picks.size(), 0u) << what;
        }
        if (solver == "full") {
          EXPECT_EQ(cold_result->final_similarity, 0u) << what;
        }
        if (c.name == "wide" && solver == "ct") {
          EXPECT_GE(2 * Exhaustions(*cold_result, c.budgets),
                    cold_result->picks.size())
              << what;
        }
      }
    }
  }
}

// NaiveEngine rides the base-class always-dirty fallback; its incremental
// runs must match both its own cold sweeps and the indexed engine.
TEST_P(IncrementalRoundsTest, NaiveFallbackMatchesColdAndIndexed) {
  const MotifKind kind = GetParam();
  graph::Fig2StyleExample fx = graph::MakeFig2StyleExample();
  TppInstance inst;
  inst.released = fx.graph;
  inst.targets = fx.targets;
  inst.motif = kind;
  for (const std::string solver : {"sgb", "ct", "wt"}) {
    const GreedyOptions options;
    NaiveEngine naive_cold(inst);
    NaiveEngine naive_incr(inst);
    IndexedEngine indexed = *IndexedEngine::Create(inst);
    auto rc = RunSolver(solver, /*cold=*/true, naive_cold, options);
    auto ri = RunSolver(solver, /*cold=*/false, naive_incr, options);
    auto rx = RunSolver(solver, /*cold=*/false, indexed, options);
    ASSERT_TRUE(rc.ok());
    ASSERT_TRUE(ri.ok());
    ASSERT_TRUE(rx.ok());
    ExpectBitIdentical(*rc, *ri, solver + "/naive cold vs incremental");
    ExpectBitIdentical(*rc, *rx, solver + "/naive vs indexed incremental");
  }
}

// Randomized delete orders: after every DeleteEdge the dirty set must be
// EXACT — it contains precisely the edges whose cached gain changed — and
// the deferred index must agree with the always-eager legacy index on
// every gain and gain vector.
TEST_P(IncrementalRoundsTest, DirtySetsExactUnderRandomDeleteOrders) {
  const MotifKind kind = GetParam();
  const Graph g = TestGraph(23);
  for (uint64_t seed : {1u, 2u, 3u}) {
    const TppInstance inst = SampledInstance(g, 8, seed + 40, kind);
    IncidenceIndex idx =
        *BuildFreshIndex(inst.released, inst.targets, inst.motif);
    LegacyIncidenceIndex legacy = *LegacyIncidenceIndex::Build(
        inst.released, inst.targets, inst.motif);
    // Dense ids are positions in the interned key span: all[k] has id k.
    const std::vector<EdgeKey> all(idx.InternedEdgeKeys().begin(),
                                   idx.InternedEdgeKeys().end());
    std::vector<EdgeKey> order = all;
    Rng shuffle(seed);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle.UniformIndex(i)]);
    }
    std::vector<size_t> before(all.size());
    std::vector<uint32_t> dirty;
    for (EdgeKey victim : order) {
      for (size_t k = 0; k < all.size(); ++k) before[k] = idx.Gain(all[k]);
      dirty.clear();
      const size_t killed = idx.DeleteEdge(victim, &dirty);
      ASSERT_EQ(killed, legacy.DeleteEdge(victim));
      std::sort(dirty.begin(), dirty.end());
      for (size_t k = 0; k < all.size(); ++k) {
        const size_t now = idx.Gain(all[k]);
        ASSERT_EQ(now, legacy.Gain(all[k])) << "edge " << all[k];
        const bool is_dirty = std::binary_search(
            dirty.begin(), dirty.end(), static_cast<uint32_t>(k));
        ASSERT_EQ(now != before[k], is_dirty)
            << "edge " << all[k] << " changed=" << (now != before[k]);
      }
    }
    ASSERT_EQ(idx.TotalAlive(), 0u);
  }
}

// The two-granularity flush protocol: deletes queue maintenance, count
// reads flush counts only, per-target reads flush everything — with
// correct values at every stage.
TEST_P(IncrementalRoundsTest, DeferredFlushGranularity) {
  const MotifKind kind = GetParam();
  const Graph g = TestGraph(31);
  const TppInstance inst = SampledInstance(g, 6, 9, kind);
  IncidenceIndex idx =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  IncidenceIndex eager =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  std::vector<EdgeKey> candidates = idx.AliveCandidateEdges();
  ASSERT_FALSE(candidates.empty());
  const EdgeKey victim = candidates[candidates.size() / 2];
  // Keep `eager` fully flushed after the same delete.
  ASSERT_EQ(idx.DeleteEdge(victim), eager.DeleteEdge(victim));
  eager.FlushDeferredMaintenance();
  ASSERT_TRUE(idx.HasDeferredMaintenance());
  // A count read settles the counts but leaves cell upkeep queued...
  EXPECT_EQ(idx.Gain(victim), 0u);
  EXPECT_EQ(idx.NumAliveEdges(), eager.NumAliveEdges());
  EXPECT_TRUE(idx.HasDeferredMaintenance());
  // ...and a per-target read settles everything.
  std::vector<size_t> split(idx.NumTargets(), 0);
  std::vector<size_t> expected(eager.NumTargets(), 0);
  idx.AccumulateGains(candidates.front(), &split);
  eager.AccumulateGains(candidates.front(), &expected);
  EXPECT_EQ(split, expected);
  EXPECT_FALSE(idx.HasDeferredMaintenance());
  EXPECT_TRUE(idx.BitIdentical(eager));
}

// Deferred flushes interleaved with the per-target views: each round's
// batch of DeleteEdge calls queues maintenance, and the next BeginRound
// flushes it and serves the index's CSR-2 cells in place. An engine run at
// a global budget of four workers must report exactly what it reports at
// one — totals, cells and dirty lists — every round, under both scopes,
// and every live row's cells must be its gain vector. The instance (500
// targets on a dense clustered graph) deletes half the live candidates
// each round, so the dirty sets are wide. TSan (CI job) checks that the
// views need no synchronization.
TEST_P(IncrementalRoundsTest, DeferredFlushInterleavesWithCellViews) {
  const MotifKind kind = GetParam();
  Rng graph_rng(47);
  const Graph g = *graph::HolmeKim(300, 8, 1.0, graph_rng);
  const TppInstance inst = SampledInstance(g, 500, 13, kind);
  const IndexedEngine prototype = *IndexedEngine::Create(inst);
  for (CandidateScope scope : {CandidateScope::kTargetSubgraphEdges,
                               CandidateScope::kAllEdges}) {
    SCOPED_TRACE(scope == CandidateScope::kAllEdges ? "all" : "restricted");
    IndexedEngine wide = prototype.Clone();
    IndexedEngine serial = prototype.Clone();
    IndexedEngine probe = prototype.Clone();  // gain vectors, same deletes
    Rng rng(99);
    for (int round = 0; round < 8; ++round) {
      const RoundGains* wide_view = nullptr;
      const RoundGains* serial_view = nullptr;
      {
        ScopedGlobalThreads budget(4);
        wide_view = &wide.BeginRound(scope, /*per_target=*/true);
      }
      {
        ScopedGlobalThreads budget(1);
        serial_view = &serial.BeginRound(scope, /*per_target=*/true);
      }
      const RoundGains& a = *wide_view;
      const RoundGains& b = *serial_view;
      ASSERT_EQ(a.all_dirty, b.all_dirty) << "round " << round;
      ASSERT_EQ(a.num_candidates, b.num_candidates) << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.edges, b.edges)) << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.totals, b.totals))
          << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.cell_offsets, b.cell_offsets))
          << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.cell_targets, b.cell_targets))
          << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.cell_gains, b.cell_gains))
          << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.dirty, b.dirty)) << "round " << round;
      std::vector<EdgeKey> live;
      for (size_t i = 0; i < a.edges.size(); ++i) {
        if (a.totals[i] == 0) continue;
        live.push_back(a.edges[i]);
        ASSERT_EQ(::tpp::testing::DenseRow(a, i, inst.targets.size()),
                  probe.GainVector(a.edges[i]))
            << "round " << round << " edge " << a.edges[i];
      }
      if (live.empty()) break;
      for (EdgeKey victim :
           rng.SampleK(live, std::max<size_t>(1, live.size() / 2))) {
        const size_t killed = wide.DeleteEdge(victim);
        ASSERT_EQ(killed, serial.DeleteEdge(victim));
        ASSERT_EQ(killed, probe.DeleteEdge(victim));
      }
    }
    EXPECT_EQ(wide.GainEvaluations(), serial.GainEvaluations());
  }
}

// A count-level read between a session's DeleteEdge and the next
// BeginRound flushes the queued kills WITHOUT dirty collection — that
// dirty information is gone, and the session must restart with a full
// re-evaluation instead of serving stale gains (regression test for the
// unguarded-flush bug: solver runs interrupted by any public read must
// stay bit-identical to the cold sweep).
TEST_P(IncrementalRoundsTest, CountReadBetweenRoundsRestartsSession) {
  const MotifKind kind = GetParam();
  const Graph g = TestGraph(71);
  const TppInstance inst = SampledInstance(g, 8, 29, kind);
  const IndexedEngine prototype = *IndexedEngine::Create(inst);
  // Unit form: delete inside a session, poke a count read, and check the
  // next round restarts with correct totals.
  {
    IndexedEngine engine = prototype.Clone();
    NaiveEngine naive(inst);
    const RoundGains& r1 =
        engine.BeginRound(CandidateScope::kTargetSubgraphEdges, true);
    ASSERT_TRUE(r1.all_dirty);
    size_t victim_row = 0;
    while (victim_row < r1.totals.size() && r1.totals[victim_row] == 0) {
      ++victim_row;
    }
    ASSERT_LT(victim_row, r1.totals.size());
    const EdgeKey victim = r1.edges[victim_row];
    ASSERT_EQ(engine.DeleteEdge(victim), naive.DeleteEdge(victim));
    (void)engine.SimilarityOf(0);  // non-dirty count flush
    const RoundGains& r2 =
        engine.BeginRound(CandidateScope::kTargetSubgraphEdges, true);
    EXPECT_TRUE(r2.all_dirty);  // restarted, not stale
    for (size_t i = 0; i < r2.edges.size(); ++i) {
      ASSERT_EQ(r2.totals[i], naive.Gain(r2.edges[i])) << r2.edges[i];
    }
  }
  // End-to-end form: split solver runs with an interleaved read must
  // match the cold sweep doing the same.
  for (const std::string solver : {"sgb", "ct", "wt"}) {
    GreedyOptions options;
    options.scope = CandidateScope::kTargetSubgraphEdges;
    IndexedEngine cold_engine = prototype.Clone();
    IndexedEngine incr_engine = prototype.Clone();
    auto run_split = [&](IndexedEngine& engine, bool cold) -> ProtectionResult {
      ProtectionResult first = *RunSolver(solver, cold, engine, options);
      (void)engine.SimilarityOf(0);        // count read mid-sequence
      (void)engine.Gain(graph::MakeEdgeKey(0, 1));
      // Continue on the same engine.
      return *RunSolver(solver, cold, engine, options);
    };
    ProtectionResult cold_second = run_split(cold_engine, /*cold=*/true);
    ProtectionResult incr_second = run_split(incr_engine, /*cold=*/false);
    ExpectBitIdentical(cold_second, incr_second, solver + "/split+read");
    EXPECT_EQ(cold_engine.TotalSimilarity(), incr_engine.TotalSimilarity());
  }
}

// Clone must reset the incremental session: a clone of an engine with a
// live session behaves exactly like a freshly built engine.
TEST_P(IncrementalRoundsTest, CloneResetsRoundSession) {
  const MotifKind kind = GetParam();
  const Graph g = TestGraph(61);
  const TppInstance inst = SampledInstance(g, 6, 21, kind);
  IndexedEngine prototype = *IndexedEngine::Create(inst);
  // Open a session on the prototype and advance it a few rounds.
  GreedyOptions options;
  options.scope = CandidateScope::kTargetSubgraphEdges;
  ASSERT_TRUE(SgbGreedy(prototype, 3, options).ok());
  IndexedEngine clone = prototype.Clone();
  EXPECT_EQ(clone.GainEvaluations(), 0u);
  // The clone carries the prototype's deletions but no session: its first
  // BeginRound is a full evaluation whose view matches a fresh engine's.
  const RoundGains& round =
      clone.BeginRound(CandidateScope::kTargetSubgraphEdges, true);
  EXPECT_TRUE(round.all_dirty);
  EXPECT_EQ(round.num_candidates, clone.index().NumAliveEdges());
  // And a full run on a clone of a FRESH prototype matches a fresh build.
  IndexedEngine fresh = *IndexedEngine::Create(inst);
  IndexedEngine fresh_clone = fresh.Clone();
  auto from_fresh = SgbGreedy(fresh, 10, options);
  auto from_clone = SgbGreedy(fresh_clone, 10, options);
  ASSERT_TRUE(from_fresh.ok());
  ASSERT_TRUE(from_clone.ok());
  ExpectBitIdentical(*from_fresh, *from_clone, "fresh vs clone");
}

// The sparse CT/WT paths at 2,000 targets: 30 targets sampled from a
// clustered 60-node core, where target subgraphs overlap and rows carry
// several cells, plus 1,970 isolated links with no target subgraph,
// shuffled together so the core targets spread over the whole id range.
constexpr size_t kWideTargets = 2000;
constexpr size_t kCoreTargets = 30;

TppInstance ThousandsOfTargets() {
  Rng rng(5);
  const Graph core = *graph::HolmeKim(60, 4, 0.8, rng);
  const size_t isolated = kWideTargets - kCoreTargets;
  Graph g(core.NumNodes() + 2 * isolated);
  for (const Edge& e : core.Edges()) TPP_CHECK(g.AddEdge(e.u, e.v).ok());
  std::vector<Edge> targets = rng.SampleK(core.Edges(), kCoreTargets);
  for (size_t k = 0; k < isolated; ++k) {
    const auto u = static_cast<graph::NodeId>(core.NumNodes() + 2 * k);
    TPP_CHECK(g.AddEdge(u, u + 1).ok());
    targets.emplace_back(u, u + 1);
  }
  rng.Shuffle(targets);
  return *MakeInstance(g, targets, MotifKind::kTriangle);
}

// Targets of `inst` that have at least one target subgraph (most, not all,
// of the core targets).
std::vector<bool> CoreTargets(const TppInstance& inst) {
  IndexedEngine engine = *IndexedEngine::Create(inst);
  std::vector<bool> core(inst.targets.size());
  for (size_t t = 0; t < core.size(); ++t) core[t] = engine.SimilarityOf(t);
  return core;
}

// Runs `solver` ("ct" or "wt") through the cold reference loop and
// incrementally on both engines, and checks the incremental runs match the
// cold one bit for bit. (The recount engine's own cold loop is left out:
// at 2,000 targets each of its rounds recounts every target per candidate,
// and NaiveFallbackMatchesColdAndIndexed covers it.) Returns the indexed
// incremental run.
ProtectionResult RunEverywhere(const std::string& solver,
                               const TppInstance& inst,
                               const std::vector<size_t>& budgets) {
  GreedyOptions options;
  options.scope = CandidateScope::kTargetSubgraphEdges;
  const IndexedEngine prototype = *IndexedEngine::Create(inst);
  IndexedEngine indexed_cold = prototype.Clone();
  IndexedEngine indexed_incr = prototype.Clone();
  NaiveEngine naive_incr(inst);
  auto ic = RunSolver(solver, /*cold=*/true, indexed_cold, options, budgets);
  auto ii = RunSolver(solver, /*cold=*/false, indexed_incr, options, budgets);
  auto ni = RunSolver(solver, /*cold=*/false, naive_incr, options, budgets);
  TPP_CHECK(ic.ok() && ii.ok() && ni.ok());
  ExpectBitIdentical(*ic, *ii, solver + "/indexed cold vs incremental");
  ExpectBitIdentical(*ic, *ni, solver + "/cold vs naive incremental");
  // The full scope runs on the same cells; only the charged candidate
  // count differs.
  options.scope = CandidateScope::kAllEdges;
  IndexedEngine all_cold = prototype.Clone();
  IndexedEngine all_incr = prototype.Clone();
  auto ac = RunSolver(solver, /*cold=*/true, all_cold, options, budgets);
  auto ai = RunSolver(solver, /*cold=*/false, all_incr, options, budgets);
  TPP_CHECK(ac.ok() && ai.ok());
  ExpectBitIdentical(*ac, *ai, solver + "/indexed cold vs incremental/all");
  return *ii;
}

// What a CT run's picks made the sparse loop do, replayed on a fresh
// engine: picks whose own gain was 0 for every unspent target (resolved
// through the first-unspent marker), and rows that an exhaustion had to
// re-seat through the target -> rows transpose — rows the pick's deletion
// left untouched whose first argmax over the unspent targets was the
// exhausted target.
struct CtPaths {
  size_t zero_own_picks = 0;
  size_t transpose_reseats = 0;
};

CtPaths ReplayCt(const TppInstance& inst, const std::vector<size_t>& budgets,
                 const ProtectionResult& result) {
  IndexedEngine engine = *IndexedEngine::Create(inst);
  std::vector<size_t> left = budgets;
  CtPaths paths;
  for (const PickTrace& pick : result.picks) {
    const std::vector<EdgeKey> candidates =
        engine.Candidates(CandidateScope::kTargetSubgraphEdges);
    if (engine.GainVector(pick.edge)[pick.for_target] == 0) {
      ++paths.zero_own_picks;
    }
    const bool exhausts = left[pick.for_target] == 1;
    std::vector<EdgeKey> seated;  // rows whose first argmax is the target
    std::vector<std::vector<size_t>> before;
    if (exhausts) {
      for (EdgeKey e : candidates) {
        if (e == pick.edge) continue;
        std::vector<size_t> gains = engine.GainVector(e);
        size_t best = 0;
        size_t best_t = gains.size();
        for (size_t t = 0; t < gains.size(); ++t) {
          if (left[t] > 0 && gains[t] > best) {
            best = gains[t];
            best_t = t;
          }
        }
        if (best_t == pick.for_target) {
          seated.push_back(e);
          before.push_back(std::move(gains));
        }
      }
    }
    --left[pick.for_target];
    engine.DeleteEdge(pick.edge);
    for (size_t k = 0; k < seated.size(); ++k) {
      if (engine.GainVector(seated[k]) == before[k]) ++paths.transpose_reseats;
    }
  }
  return paths;
}

// CT with budgets that are mostly 0: every other target with a subgraph
// gets 1, and so do five targets without one. Every core target with budget exhausts on its
// first pick, re-seating the rows that preferred it, and once no unspent
// target has any gain left the remaining picks go to isolated targets
// with own gain 0.
TEST(SparseCellRoundsTest, CtZeroOwnPicksAndExhaustionReseats) {
  const TppInstance inst = ThousandsOfTargets();
  const std::vector<bool> core = CoreTargets(inst);
  std::vector<size_t> budgets(kWideTargets, 0);
  size_t core_seen = 0;
  size_t isolated_budgeted = 0;
  for (size_t t = 0; t < kWideTargets; ++t) {
    if (core[t]) {
      budgets[t] = core_seen++ % 2;
    } else if (isolated_budgeted < 5 && t % 97 == 0) {
      budgets[t] = 1;
      ++isolated_budgeted;
    }
  }
  ASSERT_GT(core_seen, kCoreTargets / 2);
  ASSERT_EQ(isolated_budgeted, 5u);
  const ProtectionResult result = RunEverywhere("ct", inst, budgets);
  const CtPaths paths = ReplayCt(inst, budgets, result);
  EXPECT_GT(paths.zero_own_picks, 0u);
  EXPECT_GT(paths.transpose_reseats, 0u);
}

// CT with 0-2 per target over the core and a few isolated targets: many
// exhaustions while other targets still have gains.
TEST(SparseCellRoundsTest, CtMixedBudgetsWithZeros) {
  const TppInstance inst = ThousandsOfTargets();
  const std::vector<bool> core = CoreTargets(inst);
  Rng rng(8);
  std::vector<size_t> budgets(kWideTargets, 0);
  for (size_t t = 0; t < kWideTargets; ++t) {
    if (core[t] || t % 401 == 0) budgets[t] = rng.UniformIndex(3);
  }
  const ProtectionResult result = RunEverywhere("ct", inst, budgets);
  const CtPaths paths = ReplayCt(inst, budgets, result);
  EXPECT_GT(Exhaustions(result, budgets), 10u);
  EXPECT_GT(paths.transpose_reseats, 0u);
}

// WT switches its focal target once per budgeted target: every core target
// and a few isolated ones (whose rounds find nothing to pick).
TEST(SparseCellRoundsTest, WtManyTargetSwitches) {
  const TppInstance inst = ThousandsOfTargets();
  const std::vector<bool> core = CoreTargets(inst);
  std::vector<size_t> budgets(kWideTargets, 0);
  for (size_t t = 0; t < kWideTargets; ++t) {
    if (core[t]) budgets[t] = 1 + t % 2;
    if (t % 401 == 0) budgets[t] = 1;
  }
  const ProtectionResult result = RunEverywhere("wt", inst, budgets);
  std::vector<size_t> focal;
  for (const PickTrace& pick : result.picks) {
    if (focal.empty() || focal.back() != pick.for_target) {
      focal.push_back(pick.for_target);
    }
  }
  EXPECT_GT(focal.size(), kCoreTargets / 2);
}

INSTANTIATE_TEST_SUITE_P(AllMotifs, IncrementalRoundsTest,
                         ::testing::Values(MotifKind::kTriangle,
                                           MotifKind::kRectangle,
                                           MotifKind::kRecTri,
                                           MotifKind::kPentagon),
                         [](const auto& info) {
                           return std::string(motif::MotifName(info.param));
                         });

}  // namespace
}  // namespace tpp::core
