// Differential coverage of the incremental round engine: dirty-set gain
// maintenance (Engine::BeginRound on the persistent GainTable) against the
// cold reference sweeps (tests/reference/), over every solver x motif x
// candidate scope, plus the
// deferred-maintenance protocol of the IncidenceIndex (count and cell
// flushes, dirty-set exactness under randomized delete orders) and the
// interleaving of deferred flushes with BeginRound's parallel per-target
// row fan (exercised under TSan in CI).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/indexed_engine.h"
#include "core/naive_engine.h"
#include "core/problem.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "motif/incidence_index.h"
#include "reference/greedy_reference.h"
#include "reference/legacy_incidence_index.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;
using motif::IncidenceIndex;
using motif::LegacyIncidenceIndex;
using motif::MotifKind;

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
// reference sweep when `cold` is set.
Result<ProtectionResult> RunSolver(const std::string& solver, bool cold,
                                   Engine& engine,
                                   const GreedyOptions& options) {
  if (solver == "sgb") {
    return cold ? SgbGreedyCold(engine, 25, options)
                : SgbGreedy(engine, 25, options);
  }
  std::vector<size_t> budgets(engine.NumTargets(), 2);
  if (solver == "ct") {
    return cold ? CtGreedyCold(engine, budgets, options)
                : CtGreedy(engine, budgets, options);
  }
  return cold ? WtGreedyCold(engine, budgets, options)
              : WtGreedy(engine, budgets, options);
}

class IncrementalRoundsTest : public ::testing::TestWithParam<MotifKind> {};

// The tentpole differential: incremental rounds must reproduce the cold
// sweep bit for bit — picks, traces, and the gain-evaluation work metric —
// for all three solvers under both candidate scopes.
TEST_P(IncrementalRoundsTest, MatchesColdSweepAllSolversBothScopes) {
  const MotifKind kind = GetParam();
  const Graph g = TestGraph(11);
  const TppInstance inst = SampledInstance(g, 10, 5, kind);
  const IndexedEngine prototype = *IndexedEngine::Create(inst);
  for (CandidateScope scope :
       {CandidateScope::kAllEdges, CandidateScope::kTargetSubgraphEdges}) {
    for (const std::string solver : {"sgb", "ct", "wt"}) {
      GreedyOptions options;
      options.scope = scope;
      IndexedEngine cold_engine = prototype.Clone();
      IndexedEngine incr_engine = prototype.Clone();
      auto cold_result = RunSolver(solver, /*cold=*/true, cold_engine, options);
      auto incr_result =
          RunSolver(solver, /*cold=*/false, incr_engine, options);
      ASSERT_TRUE(cold_result.ok());
      ASSERT_TRUE(incr_result.ok());
      ExpectBitIdentical(
          *cold_result, *incr_result,
          solver + (scope == CandidateScope::kAllEdges ? "/all" : "/subgraph"));
      ASSERT_GT(incr_result->picks.size(), 0u);
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
        *IncidenceIndex::Build(inst.released, inst.targets, inst.motif);
    LegacyIncidenceIndex legacy = *LegacyIncidenceIndex::Build(
        inst.released, inst.targets, inst.motif);
    std::vector<EdgeKey> order = idx.AllParticipatingEdges();
    Rng shuffle(seed);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[shuffle.UniformIndex(i)]);
    }
    const std::vector<EdgeKey> all = idx.AllParticipatingEdges();
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
        const bool is_dirty =
            std::binary_search(dirty.begin(), dirty.end(),
                               idx.InternedIdOf(all[k]));
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
      *IncidenceIndex::Build(inst.released, inst.targets, inst.motif);
  IncidenceIndex eager =
      *IncidenceIndex::Build(inst.released, inst.targets, inst.motif);
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

// Deferred flushes interleaved with the production row fan: each round's
// DeleteEdge queues maintenance, and the next BeginRound flushes it, then
// patches the dirty per-target rows on the pool. An engine forced onto
// four workers must report exactly what a single-worker engine does —
// totals, rows and dirty lists — every round, under both scopes. TSan (CI
// job) checks the synchronization story.
TEST_P(IncrementalRoundsTest, DeferredFlushInterleavesWithParallelRowFan) {
  const MotifKind kind = GetParam();
  const Graph g = TestGraph(47);
  const TppInstance inst = SampledInstance(g, 6, 13, kind);
  const IndexedEngine prototype = *IndexedEngine::Create(inst);
  for (CandidateScope scope : {CandidateScope::kTargetSubgraphEdges,
                               CandidateScope::kAllEdges}) {
    SCOPED_TRACE(scope == CandidateScope::kAllEdges ? "all" : "restricted");
    IndexedEngine fanned = prototype.Clone();
    IndexedEngine serial = prototype.Clone();
    fanned.set_threads(4);
    serial.set_threads(1);
    Rng rng(99);
    int fanned_patches = 0;  // incremental rounds with >= 2 dirty rows
    for (int round = 0; round < 8; ++round) {
      const RoundGains& a = fanned.BeginRound(scope, /*per_target=*/true);
      const RoundGains& b = serial.BeginRound(scope, /*per_target=*/true);
      ASSERT_EQ(a.all_dirty, b.all_dirty) << "round " << round;
      ASSERT_EQ(a.num_candidates, b.num_candidates) << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.edges, b.edges)) << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.totals, b.totals))
          << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.rows, b.rows)) << "round " << round;
      ASSERT_TRUE(std::ranges::equal(a.dirty, b.dirty)) << "round " << round;
      if (!a.all_dirty && a.dirty.size() >= 2) ++fanned_patches;
      std::vector<EdgeKey> live;
      for (size_t i = 0; i < a.edges.size(); ++i) {
        if (a.totals[i] > 0) live.push_back(a.edges[i]);
      }
      if (live.empty()) break;
      const EdgeKey victim = live[rng.UniformIndex(live.size())];
      ASSERT_EQ(fanned.DeleteEdge(victim), serial.DeleteEdge(victim));
    }
    EXPECT_EQ(fanned.GainEvaluations(), serial.GainEvaluations());
    EXPECT_GT(fanned_patches, 0) << "the dirty-row patch never fanned out";
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
