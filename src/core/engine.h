// Engine: the similarity oracle the greedy algorithms run against.
//
// The contract is exactly what the paper's Algorithms 1-3 and the
// baselines need: similarity reads, a per-candidate gain (Gain) and its
// per-target split (GainVectorInto), the candidate set (CandidatesInto),
// committed deletions, and the incremental round view (BeginRound) the
// production greedy loops select from. GainVector and Candidates are
// non-virtual allocating conveniences over the two Into forms.
//
// IndexedEngine (indexed_engine.h) is the production implementation: it
// answers from the precomputed CSR incidence index — Gain is an O(1)
// cached alive-count lookup, GainVectorInto scans the edge's short
// per-target count segment, and DeleteEdge pays the index-maintenance
// cost once per killed instance (see motif/incidence_index.h for the
// layout and the alive-count invariant). The test-only NaiveEngine
// (tests/reference/naive_engine.h) recounts motifs on the live graph for
// every gain query, reproducing the paper's cost model. Both must return
// identical values for every query; this is enforced by differential
// tests.
//
// Deletion contract: DeleteEdge on an edge that is absent from the current
// graph — never present, or already deleted — returns 0 and changes
// nothing. It must not CHECK-fail; greedy drivers and baselines rely on
// deletions being safely re-issuable.

#ifndef TPP_CORE_ENGINE_H_
#define TPP_CORE_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/engine_scope.h"
#include "core/gain_table.h"
#include "graph/graph.h"

namespace tpp::core {

/// Mutable similarity oracle for one TPP instance. Deletions are
/// irreversible; create a fresh engine to restart an experiment.
class Engine {
 public:
  virtual ~Engine() = default;

  /// Number of targets |T|.
  virtual size_t NumTargets() const = 0;

  /// Current per-target similarity s(P, t).
  virtual size_t SimilarityOf(size_t t) = 0;

  /// Current total similarity s(P, T).
  virtual size_t TotalSimilarity() = 0;

  /// Dissimilarity gain of deleting `e` now: s(P,T) - s(P + e, T).
  /// Does not commit the deletion.
  virtual size_t Gain(graph::EdgeKey e) = 0;

  /// Per-target gains of deleting `e`, written into `out` (size
  /// NumTargets()): out[t] = s(P,t) - s(P + e, t). One evaluation yields
  /// the gain split for EVERY target, which is what keeps CT-Greedy at
  /// the same asymptotic cost as SGB-Greedy (the paper's O(k n m (log N)^2)
  /// analysis assumes this). Counts one gain evaluation.
  virtual void GainVectorInto(graph::EdgeKey e, std::span<size_t> out) = 0;

  /// Allocating form of GainVectorInto; counts one gain evaluation.
  std::vector<size_t> GainVector(graph::EdgeKey e) {
    std::vector<size_t> out(NumTargets(), 0);
    GainVectorInto(e, out);
    return out;
  }

  /// Commits the deletion of `e` from the released graph. Returns the
  /// number of target subgraphs broken (== the gain it realized); returns
  /// 0 without failing when `e` is absent or already deleted.
  virtual size_t DeleteEdge(graph::EdgeKey e) = 0;

  /// Candidate protector edges under `scope`, written into `out` (its
  /// capacity is reused across rounds), sorted ascending by key for
  /// deterministic tie-breaking. Already-deleted edges never appear.
  /// Counts no gain evaluations.
  virtual void CandidatesInto(CandidateScope scope,
                              std::vector<graph::EdgeKey>* out) = 0;

  /// Allocating form of CandidatesInto.
  std::vector<graph::EdgeKey> Candidates(CandidateScope scope) {
    std::vector<graph::EdgeKey> out;
    CandidatesInto(scope, &out);
    return out;
  }

  /// The whole query side of one INCREMENTAL greedy round. Returns a view
  /// whose totals (and per-target cells — each row's sparse (target, gain)
  /// pairs, see core/gain_table.h — when `per_target` is set) reflect the
  /// current graph state, re-evaluating only candidates dirtied by the
  /// deletions committed since the previous BeginRound of the same session
  /// (same per_target; the scope is no session key, it decides only
  /// `num_candidates`). The view's `dirty` lists exactly those row
  /// indices, so selection layers can patch their own cached aggregates
  /// instead of rescanning per-target data.
  ///
  /// Accounting: counts `num_candidates` gain evaluations — one per LIVE
  /// candidate, identical to the cold Candidates()+GainVector()/Gain()
  /// sweep it replaces, regardless of how few rows were physically
  /// re-evaluated. The paper's work metric therefore reports the same
  /// numbers on both paths; only wall time changes.
  ///
  /// IndexedEngine implements it with dirty-set maintenance, its view
  /// aliasing the index's own counts and CSR-2 cells; NaiveEngine with an
  /// always-dirty cold sweep that writes its nonzero cells.
  virtual const RoundGains& BeginRound(CandidateScope scope,
                                       bool per_target) = 0;

  /// The current (phase-1 + committed deletions) graph; used by the random
  /// baselines and by utility analysis of the final release.
  virtual const graph::Graph& CurrentGraph() const = 0;

  /// Number of gain evaluations performed so far; the work metric reported
  /// by the running-time experiments. Each Gain/GainVectorInto call
  /// counts 1 and BeginRound counts one per live candidate, so every
  /// greedy round reports |candidates| evaluations exactly as the
  /// historical serial loops did — the paper's work metric stays
  /// comparable across PRs.
  virtual uint64_t GainEvaluations() const = 0;
};

}  // namespace tpp::core

#endif  // TPP_CORE_ENGINE_H_
