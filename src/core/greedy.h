// The paper's three greedy protector-selection algorithms.
//
//   SGB-Greedy (Alg. 1): single global budget, 1-1/e approximation.
//   CT-Greedy  (Alg. 2): per-target budgets, picks globally across targets
//                        (partition matroid), 1/2 approximation.
//   WT-Greedy  (Alg. 3): per-target budgets, satisfies targets one by one,
//                        1-e^{-(1-1/e)} ~ 0.46 approximation.
//
// Each runs against any Engine; the candidate scope selects between the
// base algorithms (kAllEdges) and their scalable "-R" variants
// (kTargetSubgraphEdges, Lemma 5).
//
// Every algorithm has exactly one loop: incremental rounds over
// Engine::BeginRound, where per-candidate gains persist across rounds and
// only the dirty set of each committed deletion is re-evaluated, and the
// pick is the first max of the round's ascending-key universe, kept by a
// block-max selector (core/round_argmax.h) patched for the same dirty set.
// The loops are bit-identical in picks, traces and gain-evaluation counts
// to the textbook cold sweeps (re-evaluate every candidate every round),
// which live in the test-only reference library (tests/reference/) as
// their differential baseline.

#ifndef TPP_CORE_GREEDY_H_
#define TPP_CORE_GREEDY_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "core/engine.h"

namespace tpp::core {

/// Shared knobs for the greedy algorithms.
struct GreedyOptions {
  /// Candidate protector scope; kTargetSubgraphEdges gives the "-R"
  /// variants with identical output (Lemma 5).
  CandidateScope scope = CandidateScope::kAllEdges;
  /// Cooperative cancellation: when set, every greedy loop polls the
  /// token at each round boundary and returns its status (deadline
  /// exceeded / aborted) instead of committing further picks. Polling is
  /// read-only and a pick is the atom of engine mutation, so a canceled
  /// run leaves the engine in the exact state of its last COMPLETED
  /// round — never half-mutated — and an un-expired token changes no
  /// output at all. nullptr (the default) means uncancelable.
  const CancellationToken* cancel = nullptr;
};

/// One committed protector deletion, for evolution plots and audits.
struct PickTrace {
  graph::EdgeKey edge = 0;       ///< the deleted protector
  size_t realized_gain = 0;      ///< target subgraphs actually broken
  size_t for_target = kNoTarget; ///< paying target (CT/WT); kNoTarget = SGB
  size_t similarity_after = 0;   ///< s(P, T) after this deletion
  double cumulative_seconds = 0; ///< wall time from start through this pick

  static constexpr size_t kNoTarget = std::numeric_limits<size_t>::max();
};

/// Outcome of one protector-selection run.
struct ProtectionResult {
  std::vector<graph::Edge> protectors;  ///< deletion order
  std::vector<PickTrace> picks;         ///< one entry per deletion
  size_t initial_similarity = 0;        ///< s({}, T)
  size_t final_similarity = 0;          ///< s(P, T)
  uint64_t gain_evaluations = 0;        ///< engine work performed
  double total_seconds = 0;             ///< wall time of the selection

  /// Total dissimilarity increase achieved (= initial - final similarity).
  size_t TotalGain() const { return initial_similarity - final_similarity; }
};

/// SGB-Greedy (Algorithm 1): selects up to `budget` protectors, each
/// maximizing the global dissimilarity gain; stops early when the best
/// gain is zero. Ties break toward the smallest edge key.
Result<ProtectionResult> SgbGreedy(Engine& engine, size_t budget,
                                   const GreedyOptions& options = {});

/// CT-Greedy (Algorithm 2): cross-target picking under per-target budgets
/// `K` (|K| == NumTargets()). Each step maximizes (own gain, cross gain)
/// lexicographically over all (target with remaining budget, candidate)
/// pairs — the paper's own + cross/C scoring with exact arithmetic.
Result<ProtectionResult> CtGreedy(Engine& engine,
                                  const std::vector<size_t>& budgets,
                                  const GreedyOptions& options = {});

/// WT-Greedy (Algorithm 3): satisfies targets in index order; target t
/// greedily spends k_t picks maximizing (own gain for t, cross gain).
/// When t has no positive own gain left, its remaining budget is skipped
/// and selection moves to the next target (see DESIGN.md on the paper's
/// `return` at this point).
Result<ProtectionResult> WtGreedy(Engine& engine,
                                  const std::vector<size_t>& budgets,
                                  const GreedyOptions& options = {});

/// Runs SGB-Greedy with an unlimited budget until total similarity reaches
/// zero, returning the critical budget k* (paper §VI: full protection).
Result<ProtectionResult> FullProtection(Engine& engine,
                                        const GreedyOptions& options = {});

}  // namespace tpp::core

#endif  // TPP_CORE_GREEDY_H_
