#include "core/greedy.h"

#include <algorithm>

#include "common/strings.h"
#include "common/timer.h"
#include "core/round_argmax.h"
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

// Packs the CT/WT (own, cross) lexicographic rule into one ordered key:
// own gain in the high word, cross gain (total - own) in the low word.
// A row with positive total never packs to 0, which stays reserved for
// rows that cannot be picked.
uint64_t OwnCrossKey(uint32_t own, uint32_t total) {
  return uint64_t{own} << 32 | static_cast<uint32_t>(total - own);
}

// Re-keys `argmax` for one round: every row when `force` is set, the
// round is all-dirty, or the selector does not span the universe yet
// (each loop's first round), else only the dirty rows — the rows whose
// totals and per-target rows changed. Returns whether it rekeyed every
// row.
template <typename KeyOf>
bool Rekey(const RoundGains& round, bool force, RoundArgmax& argmax,
           KeyOf key_of) {
  const size_t universe = round.totals.size();
  if (force || round.all_dirty || argmax.size() != universe) {
    argmax.Rebuild(universe, key_of);
    return true;
  }
  for (uint32_t i : round.dirty) argmax.Set(i, key_of(i));
  return false;
}

}  // namespace

// SGB: one BeginRound per pick. The round view's universe is a static
// ascending superset of the cold candidate set in which dead or deleted
// candidates hold total 0, so the selector's first max (ties to the
// smallest row) reproduces the cold sweep's smallest-key tie-break
// exactly. The keys are the totals, re-keyed for the dirty rows only, so
// a round costs O(dirty + universe / 64) instead of a universe scan.
Result<ProtectionResult> SgbGreedy(Engine& engine, size_t budget,
                                   const GreedyOptions& options) {
  WallTimer timer;
  ProtectionResult result;
  result.initial_similarity = engine.TotalSimilarity();
  RoundArgmax argmax;
  while (result.protectors.size() < budget) {
    TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "sgb-greedy"));
    const RoundGains& round = engine.BeginRound(options.scope,
                                                /*per_target=*/false);
    Rekey(round, /*force=*/false, argmax,
          [&](size_t i) -> uint64_t { return round.totals[i]; });
    const size_t best_i = argmax.Best();
    if (best_i == RoundArgmax::kNone) break;
    CommitPick(engine, round.edges[best_i], PickTrace::kNoTarget, timer,
               result);
  }
  FinalizeResult(engine, timer, result);
  return result;
}

// CT. Each candidate's winning (target, own, cross) triple is determined
// by its per-target gain row and the unspent-target set, both of which
// change rarely: rows change only for the committed deletion's dirty set,
// the unspent set only when a pick exhausts a target. The loop caches the
// best target per universe row, keys the selector by the packed
// (own, cross) pair, and patches exactly those events.
//
// Equivalence to the cold reference loop: for a fixed candidate the pairs
// (row[t], total - row[t]) over unspent t are lexicographically maximized
// at the FIRST argmax of row[t] (larger own implies smaller cross), which
// is exactly what the cold (e, t) scan's strict-improvement rule selects;
// across candidates both loops take the first maximum of (own, cross) in
// ascending key order, which is the selector's first max of the packed
// keys. Removing an exhausted target re-seats only rows whose cached best
// target was that target (values are unchanged and a first argmax
// elsewhere stays the first argmax), which is the re-seat set below; a
// re-seat walks the ascending list of unspent targets, which drops each
// target as its budget runs out.
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

  std::vector<size_t> left = budgets;
  std::vector<uint32_t> unspent;  // ascending targets with budget left
  size_t total_budget = 0;
  for (size_t t = 0; t < budgets.size(); ++t) {
    total_budget += budgets[t];
    if (budgets[t] > 0) unspent.push_back(static_cast<uint32_t>(t));
  }

  constexpr uint32_t kNone = 0xffffffffu;  // no target
  std::vector<uint32_t> best_t;  // cached first-argmax target per row
  RoundArgmax argmax;
  uint32_t exhausted = kNone;

  // The loop runs only while some target has budget left, so `unspent`
  // is never empty inside it.
  while (result.protectors.size() < total_budget) {
    TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "ct-greedy"));
    const RoundGains& round = engine.BeginRound(options.scope,
                                                /*per_target=*/true);
    const size_t universe = round.totals.size();
    // Re-seats row i over the unspent targets and returns its key.
    auto seat = [&](size_t i) -> uint64_t {
      const uint32_t total = round.totals[i];
      if (total == 0) {
        best_t[i] = kNone;
        return 0;
      }
      const uint32_t* row = round.rows.data() + i * round.num_targets;
      uint32_t o = row[unspent[0]];
      uint32_t bt = unspent[0];
      for (uint32_t t : unspent) {
        if (row[t] > o) {
          o = row[t];
          bt = t;
        }
      }
      best_t[i] = bt;
      return OwnCrossKey(o, total);
    };
    if (best_t.size() != universe) best_t.assign(universe, kNone);
    const bool rebuilt = Rekey(round, /*force=*/false, argmax, seat);
    if (!rebuilt && exhausted != kNone) {
      for (size_t i = 0; i < universe; ++i) {
        if (best_t[i] == exhausted) argmax.Set(i, seat(i));
      }
    }
    exhausted = kNone;

    const size_t best_i = argmax.Best();
    if (best_i == RoundArgmax::kNone) break;  // zero gain everywhere
    const uint32_t best_target = best_t[best_i];
    if (--left[best_target] == 0) {
      unspent.erase(std::find(unspent.begin(), unspent.end(), best_target));
      exhausted = best_target;
    }
    CommitPick(engine, round.edges[best_i], best_target, timer, result);
  }
  FinalizeResult(engine, timer, result);
  return result;
}

// WT: the focal target is fixed until its budget is spent, so a row's own
// gain is just its rows[] cell for that target — re-keyed for the dirty
// set each round and for every row on a target switch. Selection is the
// same packed (own, cross) first max as CT, with rows of zero own gain
// keyed 0 (the cold loop's diffs[t] == 0 skip).
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

  RoundArgmax argmax;
  for (size_t t = 0; t < budgets.size(); ++t) {
    bool target_keyed = false;
    for (size_t b = 0; b < budgets[t]; ++b) {
      TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "wt-greedy"));
      const RoundGains& round = engine.BeginRound(options.scope,
                                                  /*per_target=*/true);
      Rekey(round, /*force=*/!target_keyed, argmax,
            [&](size_t i) -> uint64_t {
              const uint32_t total = round.totals[i];
              const uint32_t o = round.rows[i * round.num_targets + t];
              return total > 0 && o > 0 ? OwnCrossKey(o, total) : 0;
            });
      target_keyed = true;
      const size_t best_i = argmax.Best();
      // Target t is fully protected: move to the next target.
      if (best_i == RoundArgmax::kNone) break;
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
