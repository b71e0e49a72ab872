// IndexedEngine: CSR-incidence-index-backed similarity oracle.

#ifndef TPP_CORE_INDEXED_ENGINE_H_
#define TPP_CORE_INDEXED_ENGINE_H_

#include <functional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/problem.h"
#include "motif/incidence_index.h"

namespace tpp::core {

/// Engine that enumerates all target subgraphs once at construction and
/// then answers every query from the CSR IncidenceIndex: Gain is an O(1)
/// cached-count lookup, GainVector scans one short per-target count
/// segment, and DeleteEdge does work proportional to the instances it
/// kills. Returns exactly the same values as NaiveEngine
/// (differential-tested) at a fraction of the cost; this is the engine the
/// benchmarks use wherever the paper's own timing is not the object of
/// study.
class IndexedEngine : public Engine {
 public:
  /// Builds the incidence index (parallel over the shared pool at the
  /// global thread budget; bit-identical at any thread count); fails if a
  /// target is still present in the released graph.
  static Result<IndexedEngine> Create(const TppInstance& instance);

  /// Create with an explicit index-build thread budget and optional
  /// per-stage build timings (motif::IncidenceIndex::BuildStats).
  static Result<IndexedEngine> Create(
      const TppInstance& instance,
      const motif::IncidenceIndex::BuildOptions& build_options,
      motif::IncidenceIndex::BuildStats* build_stats = nullptr);

  /// Wraps an already-built index around `instance`'s released graph —
  /// the warm-start path: the index came from a snapshot file
  /// (motif/index_snapshot.h) instead of a cold Build. Fails when the
  /// index's target count does not match the instance's.
  static Result<IndexedEngine> Adopt(const TppInstance& instance,
                                     motif::IncidenceIndex index);

  size_t NumTargets() const override { return index_.NumTargets(); }
  size_t SimilarityOf(size_t t) override { return index_.AliveForTarget(t); }
  size_t TotalSimilarity() override { return index_.TotalAlive(); }
  size_t Gain(graph::EdgeKey e) override {
    ++gain_evals_;
    return index_.Gain(e);
  }
  std::vector<size_t> GainVector(graph::EdgeKey e) override;
  /// In-place GainVector: zero-fill plus one pass over the edge's CSR-2
  /// segment, no allocation. Counts one evaluation.
  void GainVectorInto(graph::EdgeKey e, std::span<size_t> out) override;
  size_t DeleteEdge(graph::EdgeKey e) override;
  std::vector<graph::EdgeKey> Candidates(CandidateScope scope) override;
  void CandidatesInto(CandidateScope scope,
                      std::vector<graph::EdgeKey>* out) override;
  /// Incremental rounds on the persistent gain table. The candidate
  /// universe is static for a whole session — the interned edge set
  /// (restricted scope, where totals alias the index's eagerly-maintained
  /// alive counts and need no per-round work at all) or the graph's edge
  /// set at session start (full scope) — and per-target rows are patched
  /// only for the dirty ids the round's deferred-count flush reports,
  /// through the parallel row fill when the dirty set is wide. Charges
  /// one evaluation per live candidate (see Engine::BeginRound).
  const RoundGains& BeginRound(CandidateScope scope,
                               bool per_target) override;
  const graph::Graph& CurrentGraph() const override { return g_; }
  uint64_t GainEvaluations() const override { return gain_evals_; }

  /// Cheap private copy for shared-instance batching: duplicates the
  /// current graph and the index's alive-count state so the clone can
  /// commit deletions without touching this engine. Cloning a
  /// freshly-built engine is indistinguishable from building a second
  /// engine from the same instance — same graph, same index contents,
  /// work counter at zero — at the cost of a flat-array copy instead of a
  /// full motif re-enumeration. The thread budget is inherited; any
  /// incremental round session is RESET on the copy (the clone's first
  /// BeginRound is a full evaluation), so prototype engines shared by the
  /// batch pipeline never leak round state into per-request clones.
  IndexedEngine Clone() const {
    IndexedEngine copy(*this);
    copy.gain_evals_ = 0;
    copy.table_.Reset();
    copy.session_dirty_.clear();
    copy.row_ids_ = {};
    copy.id_to_row_ = {};
    copy.session_flush_epoch_ = 0;
    return copy;
  }

  /// Applies a committed base-graph edit (graph::Graph::EditSession
  /// delta) to this engine IN PLACE: advances the engine's graph copy and
  /// repairs the incidence index around the delta neighborhood
  /// (motif::IncidenceIndex::ApplyGraphDelta) instead of re-enumerating —
  /// the result answers every query exactly as an engine freshly built
  /// from the edited graph would (plans come out byte-identical;
  /// bench/graph_mutation.cc checks this every rep). Requires a FRESH
  /// engine — no deletions committed yet (prototype engines between
  /// batches, not per-request clones mid-solve); errors leave both graph
  /// and index unchanged. Any incremental round session is reset, exactly
  /// as on Clone. The delta must not touch a target link: edits to target
  /// links change the problem itself, so the owning service rebuilds
  /// those groups instead (service/instance_repository.h). `cancel`
  /// (optional) is polled before the repair mutates anything; once the
  /// repair starts it runs to completion.
  Status ApplyEdit(const graph::GraphDelta& delta,
                   const CancellationToken* cancel = nullptr);

  /// Overrides the worker-thread budget of BeginRound's per-target row
  /// fills on this engine and disables the job-size heuristic (exactly
  /// this many workers, capped by the row count); 0 (the default) defers
  /// to tpp::GlobalThreadCount(), which only parallelizes fills large
  /// enough to amortize the fan-out.
  void set_threads(int threads) { threads_ = threads; }

  /// Access to the underlying index (for reporting and differential
  /// tests). Non-const because count-level reads flush the index's
  /// deferred maintenance; the const overload serves flush-free
  /// inspection (BitIdentical, instances()).
  motif::IncidenceIndex& index() { return index_; }
  const motif::IncidenceIndex& index() const { return index_; }

 private:
  IndexedEngine(graph::Graph g, motif::IncidenceIndex index,
                std::vector<graph::Edge> targets, motif::MotifKind motif)
      : g_(std::move(g)),
        index_(std::move(index)),
        targets_(std::move(targets)),
        motif_(motif) {}

  // Shared worker-sizing and dispatch of the row-granular parallel jobs
  // (FillGainRows, BeginRound's dirty-row patch): honors set_threads()
  // exactly, otherwise parallelizes only jobs big enough to amortize the
  // fan-out (kMinRowsPerThread).
  void ParallelRowJob(size_t n,
                      const std::function<void(size_t, size_t)>& body);

  // Parallel CSR-2 row fill behind a round session's first per-target
  // BeginRound: ids[i] is written to out[i * stride] (kNoEdge ids produce
  // zero rows). Flushes deferred maintenance, then fans out.
  void FillGainRows(std::span<const uint32_t> ids, size_t stride,
                    uint32_t* out);

  // (Re)starts an incremental round session for (scope, per_target).
  void InitRoundSession(CandidateScope scope, bool per_target);

  graph::Graph g_;
  motif::IncidenceIndex index_;
  // Build identity retained for ApplyEdit: the index repair re-derives
  // created instances per target, and the index itself only records the
  // motif's arity.
  std::vector<graph::Edge> targets_;
  motif::MotifKind motif_ = motif::MotifKind::kTriangle;
  uint64_t gain_evals_ = 0;
  int threads_ = 0;

  // Incremental round session state (see BeginRound). table_.edges /
  // totals stay empty under the restricted scope: the view aliases the
  // index's interned key and alive-count arrays directly.
  GainTable table_;
  std::vector<uint32_t> session_dirty_;  // flush-emitted ids, per round
  std::vector<uint32_t> row_ids_;    // full scope: row -> interned id
  std::vector<uint32_t> id_to_row_;  // full scope: interned id -> row
  // Index count-flush epoch as of this session's last BeginRound; a
  // mismatch means a non-dirty flush intervened (its dirty set is lost)
  // and the session restarts. See BeginRound.
  uint64_t session_flush_epoch_ = 0;
};

}  // namespace tpp::core

#endif  // TPP_CORE_INDEXED_ENGINE_H_
