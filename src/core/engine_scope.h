// CandidateScope: which edges a greedy algorithm may consider. Split out
// of core/engine.h so code that only names a scope (the plan cache's
// request fingerprint) does not pull in the whole Engine interface.

#ifndef TPP_CORE_ENGINE_SCOPE_H_
#define TPP_CORE_ENGINE_SCOPE_H_

namespace tpp::core {

/// Which edges a greedy algorithm may consider as protectors.
enum class CandidateScope {
  /// Every remaining edge of the released graph — the paper's base
  /// SGB/CT/WT-Greedy algorithms.
  kAllEdges,
  /// Only edges participating in at least one alive target subgraph
  /// (Lemma 5) — the scalable "-R" algorithms.
  kTargetSubgraphEdges,
};

}  // namespace tpp::core

#endif  // TPP_CORE_ENGINE_SCOPE_H_
