#include "core/greedy.h"

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

}  // namespace

// SGB: one BeginRound per pick. The round view's universe is a static
// ascending superset of the cold candidate set in which dead or deleted
// candidates hold total 0, so the first-strict-max scan reproduces the
// cold sweep's smallest-key tie-break exactly; on the indexed engine the
// totals alias the eagerly-maintained alive counts and a round costs one
// flat scan, with no candidate-vector rebuild at all.
Result<ProtectionResult> SgbGreedy(Engine& engine, size_t budget,
                                   const GreedyOptions& options) {
  WallTimer timer;
  ProtectionResult result;
  result.initial_similarity = engine.TotalSimilarity();
  while (result.protectors.size() < budget) {
    TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "sgb-greedy"));
    const RoundGains& round = engine.BeginRound(options.scope,
                                                /*per_target=*/false);
    uint32_t best_gain = 0;
    size_t best_i = 0;
    for (size_t i = 0; i < round.totals.size(); ++i) {
      if (round.totals[i] > best_gain) {  // strict: first max wins
        best_gain = round.totals[i];
        best_i = i;
      }
    }
    if (best_gain == 0) break;
    CommitPick(engine, round.edges[best_i], PickTrace::kNoTarget, timer,
               result);
  }
  FinalizeResult(engine, timer, result);
  return result;
}

// CT. Each candidate's winning (target, own, cross) triple is determined
// by its per-target gain row and the unspent-target set, both of which
// change rarely: rows change only for the committed deletion's
// dirty set, the unspent set only when a pick exhausts a target. The loop
// caches (own, best target) per universe row and patches exactly those
// events, so a round is one flat (own, cross) scan instead of a
// |candidates| x |targets| re-evaluation.
//
// Equivalence to the cold reference loop: for a fixed candidate the pairs
// (row[t], total - row[t]) over unspent t are lexicographically maximized
// at the FIRST argmax of row[t] (larger own implies smaller cross), which
// is exactly what the cold (e, t) scan's strict-improvement rule selects;
// across candidates both loops take the first strict maximum in ascending
// key order. Removing an exhausted target re-seats only rows whose cached
// best target was that target (values are unchanged and a first-argmax
// elsewhere stays the first argmax), which is the re-seat set below.
Result<ProtectionResult> CtGreedy(Engine& engine,
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

  const size_t num_targets = budgets.size();
  std::vector<size_t> spent(num_targets, 0);
  size_t total_budget = 0;
  for (size_t b : budgets) total_budget += b;

  constexpr uint32_t kNoExhaust = 0xffffffffu;
  std::vector<uint32_t> own;     // cached best own gain per universe row
  std::vector<uint32_t> best_t;  // cached first-argmax target per row
  bool rebuild_all = true;
  uint32_t exhausted = kNoExhaust;

  while (result.protectors.size() < total_budget) {
    TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "ct-greedy"));
    const RoundGains& round = engine.BeginRound(options.scope,
                                                /*per_target=*/true);
    const size_t universe = round.edges.size();
    auto recompute = [&](size_t i) {
      const uint32_t* row = round.rows.data() + i * round.num_targets;
      uint32_t o = 0;
      uint32_t bt = 0;
      bool seen = false;
      for (size_t t = 0; t < num_targets; ++t) {
        if (spent[t] >= budgets[t]) continue;
        if (!seen || row[t] > o) {
          seen = true;
          o = row[t];
          bt = static_cast<uint32_t>(t);
        }
      }
      own[i] = seen ? o : 0;
      best_t[i] = seen ? bt : kNoExhaust;
    };
    if (round.all_dirty || rebuild_all || own.size() != universe) {
      own.assign(universe, 0);
      best_t.assign(universe, kNoExhaust);
      for (size_t i = 0; i < universe; ++i) {
        if (round.totals[i] > 0) recompute(i);
      }
      rebuild_all = false;
    } else {
      for (uint32_t i : round.dirty) {
        if (round.totals[i] > 0) recompute(i);
      }
      if (exhausted != kNoExhaust) {
        for (size_t i = 0; i < universe; ++i) {
          if (round.totals[i] > 0 && best_t[i] == exhausted) recompute(i);
        }
      }
    }
    exhausted = kNoExhaust;

    bool found = false;
    size_t best_i = 0;
    uint32_t bo = 0;
    uint32_t bc = 0;
    for (size_t i = 0; i < universe; ++i) {
      const uint32_t total = round.totals[i];
      if (total == 0) continue;
      const uint32_t o = own[i];
      const uint32_t c = total - o;
      if (!found || bo < o || (bo == o && bc < c)) {  // lexicographic
        found = true;
        bo = o;
        bc = c;
        best_i = i;
      }
    }
    if (!found) break;  // best delta is zero everywhere
    const size_t best_target = best_t[best_i];
    ++spent[best_target];
    if (spent[best_target] >= budgets[best_target]) {
      exhausted = static_cast<uint32_t>(best_target);
    }
    CommitPick(engine, round.edges[best_i], best_target, timer, result);
  }
  FinalizeResult(engine, timer, result);
  return result;
}

// WT: the focal target is fixed until its budget is spent, so the cached
// own gain of a row is just its rows[] cell for that target — re-read for
// the dirty set each round and for every row on a target switch. Selection
// is the same first-strict-max scan as CT restricted to candidates with
// positive own gain (the cold loop's diffs[t] == 0 skip).
Result<ProtectionResult> WtGreedy(Engine& engine,
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

  std::vector<uint32_t> own;
  for (size_t t = 0; t < budgets.size(); ++t) {
    bool target_cached = false;
    for (size_t b = 0; b < budgets[t]; ++b) {
      TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "wt-greedy"));
      const RoundGains& round = engine.BeginRound(options.scope,
                                                  /*per_target=*/true);
      const size_t universe = round.edges.size();
      const uint32_t* rows = round.rows.data();
      const size_t stride = round.num_targets;
      if (round.all_dirty || !target_cached || own.size() != universe) {
        own.resize(universe);
        for (size_t i = 0; i < universe; ++i) own[i] = rows[i * stride + t];
        target_cached = true;
      } else {
        for (uint32_t i : round.dirty) own[i] = rows[i * stride + t];
      }

      bool found = false;
      size_t best_i = 0;
      uint32_t bo = 0;
      uint32_t bc = 0;
      for (size_t i = 0; i < universe; ++i) {
        const uint32_t total = round.totals[i];
        if (total == 0) continue;
        const uint32_t o = own[i];
        if (o == 0) continue;  // within-target: own gain required
        const uint32_t c = total - o;
        if (!found || bo < o || (bo == o && bc < c)) {  // lexicographic
          found = true;
          bo = o;
          bc = c;
          best_i = i;
        }
      }
      if (!found) break;  // target t fully protected; move to next target
      CommitPick(engine, round.edges[best_i], t, timer, result);
    }
  }
  FinalizeResult(engine, timer, result);
  return result;
}

Result<ProtectionResult> FullProtection(Engine& engine,
                                        const GreedyOptions& options) {
  // The candidate pool is finite and each pick strictly reduces the number
  // of alive target subgraphs, so SGB with budget == current similarity
  // always reaches zero.
  size_t bound = engine.TotalSimilarity();
  return SgbGreedy(engine, bound, options);
}

}  // namespace tpp::core
