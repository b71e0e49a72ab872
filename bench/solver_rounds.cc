// Round-loop benchmark of the greedy selectors: for every (solver, motif)
// pair on the Fig. 5 Arenas-like fixture — solvers sgb, full (SGB until
// similarity reaches zero), ct and wt; motifs Triangle, Rectangle, RecTri
// and Pentagon — the bench times the production loop (core/greedy.h:
// incremental rounds over Engine::BeginRound, picking through the
// block-max selector of core/round_argmax.h) against the cold reference
// sweep
// (tests/reference/greedy_reference.h: every candidate re-evaluated every
// round) and emits a machine-readable BENCH_solver_rounds.json so the perf
// trajectory of the solve loop is tracked across PRs (tools/bench_guard.cc
// fails CI on regressions against the committed floors).
//
// Each row reports its repetition count and, per loop, the median and the
// interquartile range of the per-rep wall times. Each loop is timed in its
// own pass — all production reps, then all cold reps — so neither loop's
// timings depend on what the other left in the caches and the allocator.
// EVERY rep of either loop cross-checks bit-identity against the first
// production result: picks, realized gains, charged targets, similarity
// trajectory, final similarity, and the gain-evaluation work metric must
// match (a mismatch aborts the bench, failing CI).
//
// The bench also replays the production run's picks through a fresh
// IncidenceIndex collecting each round's dirty set, reporting its
// mean/max size next to the live candidate count — the measured locality
// that makes dirty-driven rounds pay off.
//
// Flags: --quick (fewer repetitions, CI smoke mode), --threads=N,
//        --out=PATH (default BENCH_solver_rounds.json).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/timer.h"
#include "core/tpp.h"
#include "graph/datasets.h"
#include "harness_common.h"
#include "motif/incidence_index.h"
#include "reference/greedy_reference.h"

namespace tpp::bench {
namespace {

using core::CandidateScope;
using core::GreedyOptions;
using core::IndexedEngine;
using core::ProtectionResult;
using core::TppInstance;
using graph::EdgeKey;
using motif::IncidenceIndex;
using motif::MotifKind;

// 200 sampled targets, like bench/index_build: the round loops only
// differentiate on candidate sets big enough that a per-round sweep is
// real work (a 20-target Arenas sample has 26 Triangle candidates —
// setup noise dominates there).
constexpr size_t kNumTargets = 200;
constexpr size_t kSgbBudget = 600;
constexpr size_t kPerTargetBudget = 2;

struct SolverResult {
  std::string solver;
  std::string motif;
  size_t rounds = 0;          ///< committed picks
  size_t universe = 0;        ///< round-view universe size
  double candidates_mean = 0; ///< live candidates per round
  double dirty_mean = 0;      ///< dirty-set size per committed pick
  size_t dirty_max = 0;
  size_t reps = 0;
  Spread cold_ms;        ///< cold reference sweep
  Spread production_ms;  ///< production loop
  double Speedup() const {
    return production_ms.median > 0 ? cold_ms.median / production_ms.median
                                    : 0;
  }
};

TppInstance MakeArenas(MotifKind kind) {
  Result<graph::Graph> g = graph::MakeArenasEmailLike(1);
  TPP_CHECK(g.ok());
  Rng rng(7);
  auto targets = *core::SampleTargets(*g, kNumTargets, rng);
  return *core::MakeInstance(*g, targets, kind);
}

// Runs `solver` through the cold reference sweep or the production loop.
Result<ProtectionResult> RunSolverOnce(std::string_view solver, bool cold,
                                       IndexedEngine& engine,
                                       const GreedyOptions& options) {
  if (solver == "sgb") {
    return cold ? core::SgbGreedyCold(engine, kSgbBudget, options)
                : core::SgbGreedy(engine, kSgbBudget, options);
  }
  if (solver == "full") {
    return cold ? core::SgbGreedyCold(engine, engine.TotalSimilarity(),
                                      options)
                : core::FullProtection(engine, options);
  }
  std::vector<size_t> budgets(kNumTargets, kPerTargetBudget);
  if (solver == "ct") {
    return cold ? core::CtGreedyCold(engine, budgets, options)
                : core::CtGreedy(engine, budgets, options);
  }
  TPP_CHECK(solver == "wt");
  return cold ? core::WtGreedyCold(engine, budgets, options)
              : core::WtGreedy(engine, budgets, options);
}

// The bit-identity contract: everything a greedy run reports except
// wall-clock timestamps, the gain-evaluation work metric included.
void CheckBitIdentical(const ProtectionResult& reference,
                       const ProtectionResult& other) {
  TPP_CHECK_EQ(reference.initial_similarity, other.initial_similarity);
  TPP_CHECK_EQ(reference.final_similarity, other.final_similarity);
  TPP_CHECK_EQ(reference.gain_evaluations, other.gain_evaluations);
  TPP_CHECK_EQ(reference.picks.size(), other.picks.size());
  for (size_t i = 0; i < reference.picks.size(); ++i) {
    TPP_CHECK(reference.protectors[i] == other.protectors[i]);
    TPP_CHECK_EQ(reference.picks[i].edge, other.picks[i].edge);
    TPP_CHECK_EQ(reference.picks[i].realized_gain,
                 other.picks[i].realized_gain);
    TPP_CHECK_EQ(reference.picks[i].for_target, other.picks[i].for_target);
    TPP_CHECK_EQ(reference.picks[i].similarity_after,
                 other.picks[i].similarity_after);
  }
}

SolverResult RunConfig(std::string_view solver, MotifKind kind, bool quick) {
  const TppInstance inst = MakeArenas(kind);
  const IndexedEngine prototype = *IndexedEngine::Create(inst);
  GreedyOptions options;
  options.scope = CandidateScope::kTargetSubgraphEdges;

  SolverResult out;
  out.solver = std::string(solver);
  out.motif = std::string(motif::MotifName(kind));
  out.universe = prototype.index().NumInternedEdges();
  out.reps = quick ? 3 : 31;

  std::vector<double> cold_ms, production_ms;
  auto timed_run = [&](bool cold, std::vector<double>& samples) {
    IndexedEngine engine = prototype.Clone();
    WallTimer timer;
    ProtectionResult result = *RunSolverOnce(solver, cold, engine, options);
    samples.push_back(timer.Millis());
    return result;
  };
  // One pass per loop: every production rep, then every cold rep.
  const ProtectionResult reference = timed_run(/*cold=*/false, production_ms);
  for (size_t r = 1; r < out.reps; ++r) {
    CheckBitIdentical(reference, timed_run(/*cold=*/false, production_ms));
  }
  for (size_t r = 0; r < out.reps; ++r) {
    CheckBitIdentical(reference, timed_run(/*cold=*/true, cold_ms));
  }
  out.cold_ms = SpreadOf(cold_ms);
  out.production_ms = SpreadOf(production_ms);
  out.rounds = reference.picks.size();

  // Replay the picks on a copy of the prototype's fresh index to measure
  // each round's dirty set and live candidate count — the locality the
  // dirty-driven rounds exploit (untimed; diagnostics only).
  IncidenceIndex replay = prototype.index();
  std::vector<uint32_t> dirty;
  size_t dirty_total = 0, candidates_total = 0;
  for (const core::PickTrace& pick : reference.picks) {
    candidates_total += replay.NumAliveEdges();
    dirty.clear();
    replay.DeleteEdge(pick.edge, &dirty);
    dirty_total += dirty.size();
    out.dirty_max = std::max(out.dirty_max, dirty.size());
  }
  if (!reference.picks.empty()) {
    out.dirty_mean = static_cast<double>(dirty_total) /
                     static_cast<double>(reference.picks.size());
    out.candidates_mean = static_cast<double>(candidates_total) /
                          static_cast<double>(reference.picks.size());
  }
  return out;
}

// Total cold vs production median time of the CT/WT round loops across
// motifs — the acceptance headline of the incremental engine (the SGB and
// full rows select from totals alone and are excluded).
double AggregateCtWtSpeedup(const std::vector<SolverResult>& results) {
  double cold = 0, production = 0;
  for (const SolverResult& result : results) {
    if (result.solver != "ct" && result.solver != "wt") continue;
    cold += result.cold_ms.median;
    production += result.production_ms.median;
  }
  return production > 0 ? cold / production : 0;
}

void WriteJson(const std::string& path, bool quick,
               const std::vector<SolverResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"solver_rounds\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"num_targets\": %zu,\n", kNumTargets);
  std::fprintf(f, "  \"scope\": \"subgraph\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"threads\": %d,\n", GlobalThreadCount());
  std::fprintf(f, "  \"bit_identical_to_cold_sweep\": true,\n");
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const SolverResult& r = results[i];
    std::fprintf(
        f,
        "    {\"solver\": \"%s\", \"motif\": \"%s\", \"rounds\": %zu, "
        "\"universe_edges\": %zu, \"candidates_mean\": %.1f, "
        "\"dirty_mean\": %.1f, \"dirty_max\": %zu, \"reps\": %zu, "
        "\"cold_ms\": %.3f, \"cold_iqr_ms\": %.3f, "
        "\"incremental_ms\": %.3f, \"incremental_iqr_ms\": %.3f, "
        "\"speedup\": %.2f}%s\n",
        r.solver.c_str(), r.motif.c_str(), r.rounds, r.universe,
        r.candidates_mean, r.dirty_mean, r.dirty_max, r.reps,
        r.cold_ms.median, r.cold_ms.Iqr(), r.production_ms.median,
        r.production_ms.Iqr(), r.Speedup(),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"ct_wt_aggregate_speedup\": %.2f\n}\n",
               AggregateCtWtSpeedup(results));
  std::fclose(f);
  std::printf("[json] %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  Result<ParsedArgs> args = ParsedArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Status threads_status = ApplyThreadsFlag(*args);
  if (!threads_status.ok()) {
    std::fprintf(stderr, "error: %s\n", threads_status.ToString().c_str());
    return 2;
  }
  const bool quick = args->GetBool("quick");
  const std::string out_path =
      args->GetString("out", "BENCH_solver_rounds.json");

  std::printf("== solver rounds: cold reference vs production loop, "
              "Arenas-email-like, |T|=%zu, scope=subgraph%s ==\n\n",
              kNumTargets, quick ? ", quick" : "");
  std::vector<SolverResult> results;
  for (std::string_view solver : {"sgb", "full", "ct", "wt"}) {
    for (MotifKind kind : {MotifKind::kTriangle, MotifKind::kRectangle,
                           MotifKind::kRecTri, MotifKind::kPentagon}) {
      SolverResult result = RunConfig(solver, kind, quick);
      std::printf("%-4s %-9s %3zu rounds  %6zu edges  "
                  "dirty %7.1f (max %5zu)  %2zu reps  "
                  "cold %9.3f ms (iqr %7.3f)  "
                  "production %8.3f ms (iqr %7.3f)  %5.2fx\n",
                  result.solver.c_str(), result.motif.c_str(), result.rounds,
                  result.universe, result.dirty_mean, result.dirty_max,
                  result.reps, result.cold_ms.median, result.cold_ms.Iqr(),
                  result.production_ms.median, result.production_ms.Iqr(),
                  result.Speedup());
      results.push_back(std::move(result));
    }
  }
  std::printf("\nct/wt aggregate round-loop speedup: %.2fx (medians); "
              "every run bit-identical to the cold reference\n",
              AggregateCtWtSpeedup(results));
  WriteJson(out_path, quick, results);
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
