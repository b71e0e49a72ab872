// Engine: the similarity oracle the greedy algorithms run against.
//
// The contract is exactly what the paper's Algorithms 1-3 and the
// baselines need: similarity reads, a per-candidate gain (Gain) and its
// per-target split (GainVector / GainVectorInto), the candidate set
// (Candidates / CandidatesInto), committed deletions, and the incremental
// round view (BeginRound) the production greedy loops select from.
//
// Two implementations share this contract:
//   * NaiveEngine  (naive_engine.h)   — recounts motifs on the live graph
//     for every gain query, reproducing the paper's cost model;
//   * IndexedEngine (indexed_engine.h) — answers from the precomputed
//     CSR incidence index (our scalable engine): Gain is an O(1) cached
//     alive-count lookup, GainVector scans the edge's short per-target
//     count segment, and DeleteEdge pays the index-maintenance cost once
//     per killed instance (see motif/incidence_index.h for the layout and
//     the alive-count invariant).
// Both must return identical values for every query; this is enforced by
// differential tests.
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

  /// Per-target gains of deleting `e`: out[t] = s(P,t) - s(P + e, t).
  /// One evaluation yields the gain split for EVERY target, which is what
  /// keeps CT-Greedy at the same asymptotic cost as SGB-Greedy (the
  /// paper's O(k n m (log N)^2) analysis assumes this).
  virtual std::vector<size_t> GainVector(graph::EdgeKey e) = 0;

  /// Allocation-free form of GainVector: writes the per-target gains into
  /// `out` (size NumTargets()). Counts one gain evaluation, exactly like
  /// GainVector — the BeginRound fallback and the cold CT/WT reference
  /// loops reuse one buffer across the whole run through this.
  virtual void GainVectorInto(graph::EdgeKey e, std::span<size_t> out) = 0;

  /// Commits the deletion of `e` from the released graph. Returns the
  /// number of target subgraphs broken (== the gain it realized); returns
  /// 0 without failing when `e` is absent or already deleted.
  virtual size_t DeleteEdge(graph::EdgeKey e) = 0;

  /// Candidate protector edges under `scope`, sorted ascending by key for
  /// deterministic tie-breaking. Already-deleted edges never appear.
  virtual std::vector<graph::EdgeKey> Candidates(CandidateScope scope) = 0;

  /// Fill form of Candidates: reuses `out`'s capacity across rounds. Same
  /// contents and accounting (none) as Candidates.
  virtual void CandidatesInto(CandidateScope scope,
                              std::vector<graph::EdgeKey>* out) {
    *out = Candidates(scope);
  }

  /// The whole query side of one INCREMENTAL greedy round. Returns a view
  /// whose totals (and per-target rows, when `per_target` is set) reflect
  /// the current graph state, re-evaluating only candidates dirtied by the
  /// deletions committed since the previous BeginRound of the same session
  /// (same scope and per_target). The view's `dirty` lists exactly those
  /// row indices, so selection layers can patch their own cached
  /// aggregates instead of rescanning per-target data.
  ///
  /// Accounting: counts `num_candidates` gain evaluations — one per LIVE
  /// candidate, identical to the cold Candidates()+GainVector()/Gain()
  /// sweep it replaces, regardless of how few rows were physically
  /// re-evaluated. The paper's work metric therefore reports the same
  /// numbers on both paths; only wall time changes.
  ///
  /// The base implementation is the trivial always-dirty fallback
  /// (NaiveEngine uses it as-is): it rebuilds the candidate universe with
  /// CandidatesInto and re-evaluates every candidate each round with one
  /// Gain (or, for per-target rows, one GainVectorInto) in candidate
  /// order, returning all_dirty views — bit-identical results, cold-sweep
  /// cost.
  /// IndexedEngine overrides it with dirty-set maintenance on its
  /// persistent GainTable.
  virtual const RoundGains& BeginRound(CandidateScope scope, bool per_target);

  /// The current (phase-1 + committed deletions) graph; used by the random
  /// baselines and by utility analysis of the final release.
  virtual const graph::Graph& CurrentGraph() const = 0;

  /// Number of gain evaluations performed so far; the work metric reported
  /// by the running-time experiments. Each Gain/GainVector/GainVectorInto
  /// call counts 1 and BeginRound counts one per live candidate, so every
  /// greedy round reports |candidates| evaluations exactly as the
  /// historical serial loops did — the paper's work metric stays
  /// comparable across PRs.
  virtual uint64_t GainEvaluations() const = 0;

 protected:
  /// Storage behind the base-class BeginRound fallback; engines that
  /// override BeginRound carry their own table instead.
  GainTable fallback_table_;
};

}  // namespace tpp::core

#endif  // TPP_CORE_ENGINE_H_
