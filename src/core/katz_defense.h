// TPP against the Katz index (paper §VII future work item 1).
//
// The Katz dissimilarity C - sum_t katz(t) is monotone under edge
// deletion (removing edges can only remove walks) but NOT submodular, so
// the paper's greedy guarantees do not transfer. This module provides a
// documented best-effort defense: a greedy that at each step deletes the
// candidate edge with the largest estimated reduction in total truncated
// Katz score across all targets.
//
// Gain estimation is first-order: the walks through a candidate edge are
// counted from per-target forward/backward walk tables (exact for walks
// using the edge once; walks revisiting the edge — rare at small maximum
// lengths — make the estimate a lower bound). After each committed
// deletion the exact scores are recomputed, so the reported trajectory is
// exact even though the per-step choice is heuristic.

#ifndef TPP_CORE_KATZ_DEFENSE_H_
#define TPP_CORE_KATZ_DEFENSE_H_

#include <vector>

#include "common/result.h"
#include "core/problem.h"
#include "linkpred/katz.h"

namespace tpp::core {

/// Options for the Katz defense.
struct KatzDefenseOptions {
  linkpred::KatzParams katz;   ///< attack model parameters
  size_t budget = 10;          ///< maximum protector deletions
  /// Stop once the total Katz score over all targets falls to or below
  /// this value (0 demands walk-disconnection within max_length).
  double stop_score = 0.0;
};

/// Outcome of a Katz defense run.
struct KatzDefenseResult {
  std::vector<graph::Edge> protectors;   ///< deletion order
  double initial_score = 0.0;            ///< sum of target Katz scores
  double final_score = 0.0;
  std::vector<double> score_trajectory;  ///< exact score after each pick
};

/// Runs the greedy Katz defense on a copy of `released` (the phase-1
/// graph: `targets` already removed). Candidates are restricted to edges
/// lying on some walk of length <= katz.max_length between a target's
/// endpoints (the Katz analogue of Lemma 5: other deletions cannot change
/// any target's score).
Result<KatzDefenseResult> GreedyKatzDefense(
    const graph::Graph& released, const std::vector<graph::Edge>& targets,
    const KatzDefenseOptions& options);

/// Total truncated Katz score over all targets on `g`.
Result<double> TotalKatzScore(const graph::Graph& g,
                              const std::vector<graph::Edge>& targets,
                              const linkpred::KatzParams& params);

}  // namespace tpp::core

#endif  // TPP_CORE_KATZ_DEFENSE_H_
