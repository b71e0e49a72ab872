#include "reference/greedy_reference.h"

#include <utility>

#include "common/strings.h"
#include "common/timer.h"
#include "graph/edge.h"

namespace tpp::core {

using graph::EdgeKey;
using graph::EdgeKeyU;
using graph::EdgeKeyV;

namespace {

void CommitPick(Engine& engine, EdgeKey edge, size_t for_target,
                const WallTimer& timer, ProtectionResult& result) {
  size_t realized = engine.DeleteEdge(edge);
  PickTrace trace;
  trace.edge = edge;
  trace.realized_gain = realized;
  trace.for_target = for_target;
  trace.similarity_after = engine.TotalSimilarity();
  trace.cumulative_seconds = timer.Seconds();
  result.picks.push_back(trace);
  result.protectors.emplace_back(EdgeKeyU(edge), EdgeKeyV(edge));
}

void FinalizeResult(Engine& engine, const WallTimer& timer,
                    ProtectionResult& result) {
  result.final_similarity = engine.TotalSimilarity();
  result.gain_evaluations = engine.GainEvaluations();
  result.total_seconds = timer.Seconds();
}

// A candidate's gain split for one target: (own, cross) alive instances.
// std::pair's lexicographic order is the exact-arithmetic form of the
// paper's own + cross / C score.
using OwnCross = std::pair<size_t, size_t>;

}  // namespace

// Cold SGB iteration, the plain Alg. 1 sweep: one Gain per candidate in
// ascending key order, take the first strict maximum.
Result<ProtectionResult> SgbGreedyCold(Engine& engine, size_t budget,
                                       const GreedyOptions& options) {
  WallTimer timer;
  ProtectionResult result;
  result.initial_similarity = engine.TotalSimilarity();
  std::vector<EdgeKey> candidates;
  while (result.protectors.size() < budget) {
    TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "sgb-greedy"));
    engine.CandidatesInto(options.scope, &candidates);
    EdgeKey best_edge = 0;
    size_t best_gain = 0;
    for (EdgeKey e : candidates) {
      const size_t gain = engine.Gain(e);
      if (gain > best_gain) {  // strict: first max wins => smallest key
        best_gain = gain;
        best_edge = e;
      }
    }
    if (best_gain == 0) break;
    CommitPick(engine, best_edge, PickTrace::kNoTarget, timer, result);
  }
  FinalizeResult(engine, timer, result);
  return result;
}

// Cold CT rounds: one GainVector per candidate per round, with the
// candidate list and the diff buffer hoisted out of the loops (reused
// capacity, no per-candidate allocation).
Result<ProtectionResult> CtGreedyCold(Engine& engine,
                                      const std::vector<size_t>& budgets,
                                      const GreedyOptions& options) {
  if (budgets.size() != engine.NumTargets()) {
    return Status::InvalidArgument(
        StrFormat("budget vector size %zu != target count %zu",
                  budgets.size(), engine.NumTargets()));
  }
  WallTimer timer;
  ProtectionResult result;
  result.initial_similarity = engine.TotalSimilarity();

  std::vector<size_t> spent(budgets.size(), 0);
  size_t total_budget = 0;
  for (size_t b : budgets) total_budget += b;

  std::vector<EdgeKey> candidates;
  std::vector<size_t> diffs(budgets.size());
  while (result.protectors.size() < total_budget) {
    TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "ct-greedy"));
    engine.CandidatesInto(options.scope, &candidates);
    bool found = false;
    size_t best_target = 0;
    EdgeKey best_edge = 0;
    OwnCross best_gain;
    for (EdgeKey e : candidates) {
      // One evaluation yields the per-target split for every (t, e) pair —
      // this is what keeps CT at the paper's O(k n m (log N)^2). No
      // batched prefilter here: on the recount engine a total-gain sweep
      // would double the per-round motif enumeration work.
      engine.GainVectorInto(e, diffs);
      size_t total = 0;
      for (size_t d : diffs) total += d;
      if (total == 0) continue;
      for (size_t t = 0; t < budgets.size(); ++t) {
        if (spent[t] >= budgets[t]) continue;  // budget used up (set T')
        OwnCross gain{diffs[t], total - diffs[t]};
        if (!found || best_gain < gain) {
          found = true;
          best_gain = gain;
          best_edge = e;
          best_target = t;
        }
      }
    }
    if (!found) break;  // best delta is zero everywhere
    ++spent[best_target];
    CommitPick(engine, best_edge, best_target, timer, result);
  }
  FinalizeResult(engine, timer, result);
  return result;
}

// Cold WT rounds, with the same buffer hoisting as CtGreedyCold.
Result<ProtectionResult> WtGreedyCold(Engine& engine,
                                      const std::vector<size_t>& budgets,
                                      const GreedyOptions& options) {
  if (budgets.size() != engine.NumTargets()) {
    return Status::InvalidArgument(
        StrFormat("budget vector size %zu != target count %zu",
                  budgets.size(), engine.NumTargets()));
  }
  WallTimer timer;
  ProtectionResult result;
  result.initial_similarity = engine.TotalSimilarity();

  std::vector<EdgeKey> candidates;
  std::vector<size_t> diffs(budgets.size());
  for (size_t t = 0; t < budgets.size(); ++t) {
    for (size_t b = 0; b < budgets[t]; ++b) {
      TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "wt-greedy"));
      engine.CandidatesInto(options.scope, &candidates);
      bool found = false;
      EdgeKey best_edge = 0;
      OwnCross best_gain;
      for (EdgeKey e : candidates) {
        // Single GainVector per candidate, as in CT (see the note there).
        engine.GainVectorInto(e, diffs);
        if (diffs[t] == 0) continue;  // within-target: own gain required
        size_t total = 0;
        for (size_t d : diffs) total += d;
        OwnCross gain{diffs[t], total - diffs[t]};
        if (!found || best_gain < gain) {
          found = true;
          best_gain = gain;
          best_edge = e;
        }
      }
      if (!found) break;  // target t fully protected; move to next target
      CommitPick(engine, best_edge, t, timer, result);
    }
  }
  FinalizeResult(engine, timer, result);
  return result;
}

}  // namespace tpp::core
