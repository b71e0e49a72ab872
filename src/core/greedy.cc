#include "core/greedy.h"

#include <span>
#include <vector>

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

// The gain of row i's cell for target t, or 0 when the row has none (the
// cells ascend by target).
uint32_t CellGain(const RoundGains& round, size_t i, uint32_t t) {
  uint32_t p = round.cell_offsets[i];
  const uint32_t end = round.cell_offsets[i + 1];
  while (p < end && round.cell_targets[p] < t) ++p;
  return p < end && round.cell_targets[p] == t ? round.cell_gains[p] : 0;
}

// Target -> rows transpose of a round's cell layout: Of(round, t) lists,
// ascending, the rows holding a cell for target t. The layout changes
// only on all-dirty rounds (core/gain_table.h), where the loops Reset()
// it; the next Of() rebuilds it with one counting pass over the cells, so
// it costs O(cells + targets) and is never built by a loop whose rounds
// are all all-dirty.
class TargetRows {
 public:
  explicit TargetRows(size_t num_targets) : num_targets_(num_targets) {}

  void Reset() { offsets_.clear(); }

  std::span<const uint32_t> Of(const RoundGains& round, uint32_t t) {
    if (offsets_.empty()) Build(round);
    return std::span<const uint32_t>(rows_).subspan(
        offsets_[t], offsets_[t + 1] - offsets_[t]);
  }

 private:
  void Build(const RoundGains& round) {
    offsets_.assign(num_targets_ + 1, 0);
    for (uint32_t t : round.cell_targets) ++offsets_[t + 1];
    for (size_t t = 0; t < num_targets_; ++t) offsets_[t + 1] += offsets_[t];
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    rows_.resize(round.cell_targets.size());
    for (uint32_t i = 0; i < round.totals.size(); ++i) {
      for (uint32_t p = round.cell_offsets[i]; p < round.cell_offsets[i + 1];
           ++p) {
        rows_[cursor[round.cell_targets[p]]++] = i;
      }
    }
  }

  size_t num_targets_;
  std::vector<uint32_t> offsets_;  // num_targets_ + 1 entries once built
  std::vector<uint32_t> rows_;
};

// Re-keys `argmax` for one round: every row when the round is all-dirty
// or the selector does not span the universe yet (each loop's first
// round), else only the dirty rows — the rows whose totals and cells
// changed. Returns whether it rekeyed every row.
template <typename KeyOf>
bool Rekey(const RoundGains& round, RoundArgmax& argmax, KeyOf key_of) {
  const size_t universe = round.totals.size();
  if (round.all_dirty || argmax.size() != universe) {
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
    Rekey(round, argmax,
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
// by its per-target cells and the unspent-target set, both of which change
// rarely: cells change only for the committed deletion's dirty set, the
// unspent set only when a pick exhausts a target. The loop caches the
// best target per universe row, keys the selector by the packed
// (own, cross) pair, and patches exactly those events.
//
// Equivalence to the cold reference loop: for a fixed candidate the pairs
// (gain[t], total - gain[t]) over unspent t are lexicographically
// maximized at the FIRST argmax of gain[t] (larger own implies smaller
// cross), which is what the cold (e, t) scan's strict-improvement rule
// selects. A positive maximum sits on a cell, and the cells ascend by
// target, so the first strict maximum over the unspent cells is that first
// argmax; a zero maximum's first argmax is the lowest unspent target, which
// the row records as kFirstUnspent and the pick resolves. Across
// candidates both loops take the first maximum of (own, cross) in
// ascending key order, the selector's first max of the packed keys. An
// exhausted target re-seats only rows whose cached best target it was
// (values are unchanged, a first argmax elsewhere stays the first argmax,
// and a kFirstUnspent row keeps its key); each holds a positive cell for
// the target, so the transpose lists it.
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
  std::vector<size_t> left = budgets;
  std::vector<uint8_t> unspent(num_targets);  // budget left, per target
  size_t total_budget = 0;
  for (size_t t = 0; t < num_targets; ++t) {
    total_budget += budgets[t];
    unspent[t] = budgets[t] > 0;
  }
  // No unspent target lies below this one. Targets only ever become
  // spent, so the cursor moves forward only.
  size_t first_unspent = 0;

  constexpr uint32_t kNone = 0xffffffffu;          // no target
  constexpr uint32_t kFirstUnspent = 0xfffffffeu;  // every unspent cell 0
  std::vector<uint32_t> best_t;  // cached first-argmax target per row
  TargetRows target_rows(num_targets);
  RoundArgmax argmax;
  uint32_t exhausted = kNone;

  // The loop runs only while some target has budget left, so an unspent
  // target exists inside it.
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
      uint32_t o = 0;
      uint32_t bt = kFirstUnspent;
      for (uint32_t p = round.cell_offsets[i]; p < round.cell_offsets[i + 1];
           ++p) {
        const uint32_t t = round.cell_targets[p];
        if (unspent[t] && round.cell_gains[p] > o) {
          o = round.cell_gains[p];
          bt = t;
        }
      }
      best_t[i] = bt;
      return OwnCrossKey(o, total);
    };
    if (round.all_dirty) target_rows.Reset();
    if (best_t.size() != universe) best_t.assign(universe, kNone);
    const bool rebuilt = Rekey(round, argmax, seat);
    if (!rebuilt && exhausted != kNone) {
      for (uint32_t i : target_rows.Of(round, exhausted)) {
        if (best_t[i] == exhausted) argmax.Set(i, seat(i));
      }
    }
    exhausted = kNone;

    const size_t best_i = argmax.Best();
    if (best_i == RoundArgmax::kNone) break;  // zero gain everywhere
    uint32_t best_target = best_t[best_i];
    if (best_target == kFirstUnspent) {
      while (!unspent[first_unspent]) ++first_unspent;
      best_target = static_cast<uint32_t>(first_unspent);
    }
    if (--left[best_target] == 0) {
      unspent[best_target] = 0;
      exhausted = best_target;
    }
    CommitPick(engine, round.edges[best_i], best_target, timer, result);
  }
  FinalizeResult(engine, timer, result);
  return result;
}

// WT: the focal target is fixed until its budget is spent, so a row's own
// gain is just its cell for that target — re-keyed for the dirty set each
// round. A target switch re-keys only the rows holding a cell for the old
// focal target (to 0) and then those holding one for the new target: every
// other row has no own gain under either and stays at 0. Selection is the
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

  constexpr uint32_t kNone = 0xffffffffu;  // no target keyed yet
  TargetRows target_rows(budgets.size());
  RoundArgmax argmax;
  uint32_t keyed = kNone;  // the focal target the selector's keys hold
  for (uint32_t t = 0; t < budgets.size(); ++t) {
    for (size_t b = 0; b < budgets[t]; ++b) {
      TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "wt-greedy"));
      const RoundGains& round = engine.BeginRound(options.scope,
                                                  /*per_target=*/true);
      auto key_of = [&](size_t i) -> uint64_t {
        const uint32_t total = round.totals[i];
        const uint32_t o = CellGain(round, i, t);
        return total > 0 && o > 0 ? OwnCrossKey(o, total) : 0;
      };
      if (round.all_dirty) target_rows.Reset();
      const bool rebuilt = Rekey(round, argmax, key_of);
      if (!rebuilt && keyed != t) {
        if (keyed != kNone) {
          for (uint32_t i : target_rows.Of(round, keyed)) argmax.Set(i, 0);
        }
        for (uint32_t i : target_rows.Of(round, t)) argmax.Set(i, key_of(i));
      }
      keyed = t;
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
