// IndexedEngine: CSR-incidence-index-backed similarity oracle.

#ifndef TPP_CORE_INDEXED_ENGINE_H_
#define TPP_CORE_INDEXED_ENGINE_H_

#include <span>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/problem.h"
#include "motif/incidence_index.h"

namespace tpp::core {

/// Engine that enumerates all target subgraphs once at construction and
/// then answers every query from the CSR IncidenceIndex: Gain is an O(1)
/// cached-count lookup, GainVectorInto scans one short per-target count
/// segment, and DeleteEdge does work proportional to the instances it
/// kills. Returns exactly the same values as NaiveEngine
/// (differential-tested) at a fraction of the cost; this is the engine the
/// benchmarks use wherever the paper's own timing is not the object of
/// study.
class IndexedEngine : public Engine {
 public:
  /// Builds the incidence index on `instance.released` with
  /// motif::IncidenceIndex::BuildCached through a link cache of its own
  /// (bit-identical at any thread budget; `build_stats` receives the
  /// per-stage timings). Fails if a target is still present in the
  /// released graph.
  static Result<IndexedEngine> Create(
      const TppInstance& instance,
      const motif::IncidenceIndex::BuildOptions& build_options = {},
      motif::IncidenceIndex::BuildStats* build_stats = nullptr);

  /// Wraps an already-built index (a shared group's copy, a repaired
  /// one, or a warm-store snapshot) around a private copy of `base` minus
  /// `problem`'s targets — the released graph, derived from the one base
  /// graph rather than kept per target set. Fails when the index's target
  /// count does not match the problem's or a target is not an edge of
  /// `base`.
  static Result<IndexedEngine> Adopt(const graph::Graph& base,
                                     const TppProblem& problem,
                                     motif::IncidenceIndex index);

  size_t NumTargets() const override { return index_.NumTargets(); }
  size_t SimilarityOf(size_t t) override { return index_.AliveForTarget(t); }
  size_t TotalSimilarity() override { return index_.TotalAlive(); }
  size_t Gain(graph::EdgeKey e) override {
    ++gain_evals_;
    return index_.Gain(e);
  }
  /// Zero-fill plus one pass over the edge's CSR-2 segment, no
  /// allocation. Counts one evaluation.
  void GainVectorInto(graph::EdgeKey e, std::span<size_t> out) override;
  size_t DeleteEdge(graph::EdgeKey e) override;
  void CandidatesInto(CandidateScope scope,
                      std::vector<graph::EdgeKey>* out) override;
  /// Incremental rounds read in place from the index. The candidate
  /// universe is the interned edge set under EITHER scope, static for a
  /// whole session: totals alias the index's eagerly-maintained alive
  /// counts, the per-target cells alias its CSR-2 segments (brought
  /// current by one FlushDeferredMaintenance per round), and the dirty
  /// rows are the ids the round's deferred-count flush reports. Graph
  /// edges outside every target subgraph have gain 0 forever
  /// (Lemma 5), so a full-scope round leaves them out and still picks
  /// exactly what the literal full sweep picks. The scope decides only
  /// `num_candidates`: one evaluation is charged per live candidate of
  /// that scope (see Engine::BeginRound).
  const RoundGains& BeginRound(CandidateScope scope,
                               bool per_target) override;
  const graph::Graph& CurrentGraph() const override { return g_; }
  uint64_t GainEvaluations() const override { return gain_evals_; }

  /// Private copy of the current graph and the index's alive-count state,
  /// so the copy can commit deletions without touching this engine —
  /// what tests, benches and the serving trace use to run several solves
  /// from one built engine (the serving path itself Adopts a copied
  /// index). Cloning a freshly-built engine is indistinguishable from
  /// building a second engine from the same instance: same graph, same
  /// index contents, work counter at zero. Any incremental round session
  /// is RESET on the copy (the clone's first BeginRound is a full
  /// evaluation).
  IndexedEngine Clone() const {
    IndexedEngine copy(*this);
    copy.gain_evals_ = 0;
    copy.session_active_ = false;
    return copy;
  }

  /// Access to the underlying index (for reporting and differential
  /// tests). Non-const because count-level reads flush the index's
  /// deferred maintenance; the const overload serves flush-free
  /// inspection (BitIdentical, instances()).
  motif::IncidenceIndex& index() { return index_; }
  const motif::IncidenceIndex& index() const { return index_; }

 private:
  IndexedEngine(graph::Graph g, motif::IncidenceIndex index)
      : g_(std::move(g)), index_(std::move(index)) {}

  graph::Graph g_;
  motif::IncidenceIndex index_;
  uint64_t gain_evals_ = 0;

  // Incremental round session state (see BeginRound). view_.edges,
  // view_.totals and the view's cells alias the index's interned key,
  // alive-count and CSR-2 arrays; dirty_ backs view_.dirty. A BeginRound
  // with a different per_target restarts the session.
  RoundGains view_;
  std::vector<uint32_t> dirty_;
  bool session_active_ = false;
  bool session_per_target_ = false;
  // Index count-flush epoch as of this session's last BeginRound; a
  // mismatch means a non-dirty flush intervened (its dirty set is lost)
  // and the session restarts. See BeginRound.
  uint64_t session_flush_epoch_ = 0;
};

}  // namespace tpp::core

#endif  // TPP_CORE_INDEXED_ENGINE_H_
