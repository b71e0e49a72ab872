#include "core/indexed_engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/strings.h"
#include "motif/link_instances.h"

namespace tpp::core {

using graph::EdgeKey;

Result<IndexedEngine> IndexedEngine::Create(
    const TppInstance& instance,
    const motif::IncidenceIndex::BuildOptions& build_options,
    motif::IncidenceIndex::BuildStats* build_stats) {
  for (const graph::Edge& target : instance.targets) {
    if (instance.released.HasEdge(target.u, target.v)) {
      return Status::FailedPrecondition(
          StrFormat("target (%u,%u) still present; run phase-1 deletion first",
                    target.u, target.v));
    }
  }
  motif::LinkInstanceCache cache;
  TPP_ASSIGN_OR_RETURN(
      motif::IncidenceIndex index,
      motif::IncidenceIndex::BuildCached(instance.released, instance.targets,
                                         instance.motif, cache, build_options,
                                         build_stats));
  return IndexedEngine(instance.released, std::move(index));
}

Result<IndexedEngine> IndexedEngine::Adopt(const graph::Graph& base,
                                           const TppProblem& problem,
                                           motif::IncidenceIndex index) {
  if (index.NumTargets() != problem.targets.size()) {
    return Status::InvalidArgument(
        "adopted index was built over a different target count");
  }
  graph::Graph released = base;
  for (const graph::Edge& t : problem.targets) {
    TPP_RETURN_IF_ERROR(released.RemoveEdge(t.u, t.v));
  }
  return IndexedEngine(std::move(released), std::move(index));
}

void IndexedEngine::GainVectorInto(EdgeKey e, std::span<size_t> out) {
  ++gain_evals_;
  std::fill(out.begin(), out.end(), size_t{0});
  index_.AccumulateGains(e, out);
}

size_t IndexedEngine::DeleteEdge(EdgeKey e) {
  if (!g_.HasEdgeKey(e)) return 0;  // absent or already deleted: no-op
  Status s = g_.RemoveEdgeKey(e);
  TPP_CHECK(s.ok());
  // Kill marks only; count and cell maintenance stays queued in the index
  // until the next gain read (BeginRound collects the dirty set from the
  // flush it performs then).
  return index_.DeleteEdge(e);
}

void IndexedEngine::CandidatesInto(CandidateScope scope,
                                   std::vector<EdgeKey>* out) {
  if (scope == CandidateScope::kAllEdges) {
    *out = g_.EdgeKeys();
    return;
  }
  index_.AliveCandidateEdgesInto(out);
}

const RoundGains& IndexedEngine::BeginRound(CandidateScope scope,
                                            bool per_target) {
  // A count-flush epoch different from the one this session recorded
  // means some other read (Gain, GainVector, SimilarityOf, Candidates, a
  // direct index access, ...) flushed queued kills WITHOUT dirty
  // collection since the last round — that dirty information is gone, so
  // the only correct continuation is a full re-evaluation. Sessions
  // whose rounds only interleave DeleteEdge with BeginRound (the greedy
  // loops) never trip this. The scope is no session key: both scopes
  // share the universe and differ only in `num_candidates`.
  const bool restart = !session_active_ || session_per_target_ != per_target ||
                       index_.CountsFlushEpoch() != session_flush_epoch_;
  if (restart) {
    index_.FlushDeferredCounts();
    // The universe is the interned edge set under either scope: row index
    // == dense edge id, so the totals alias the index's eagerly-maintained
    // alive counts and the per-target cells are its CSR-2 segments — no
    // copy. Dead candidates keep total 0 and can never win a pick, and
    // neither can a graph edge outside every target subgraph (gain 0
    // forever, Lemma 5), so full-scope rounds need no rows for those.
    view_ = RoundGains{};
    view_.edges = index_.InternedEdgeKeys();
    view_.totals = index_.PerEdgeAliveCounts();
    if (per_target) {
      view_.cell_offsets = index_.TargetCellOffsets();
      view_.cell_targets = index_.TargetCellIds();
      view_.cell_gains = index_.TargetCellCounts();
    }
    session_active_ = true;
    session_per_target_ = per_target;
  } else {
    // Incremental round: the count flush applies everything the session's
    // deletions queued and emits exactly the dirty set — the candidates
    // whose gains changed, as dense ids, which are the rows. Everything
    // else keeps last round's state.
    dirty_.clear();
    index_.FlushDeferredCounts(&dirty_);
    std::sort(dirty_.begin(), dirty_.end());
    view_.dirty = dirty_;
    view_.all_dirty = false;
  }
  // The cells alias the index's CSR-2 counts: bring them current. A
  // session without per-target cells (SGB-style) never pays the CSR-2
  // half of the maintenance at all.
  if (per_target) index_.FlushDeferredMaintenance();
  session_flush_epoch_ = index_.CountsFlushEpoch();
  view_.num_candidates =
      scope == CandidateScope::kTargetSubgraphEdges ? index_.NumAliveEdges()
                                                    : g_.NumEdges();
  // One evaluation per live candidate, exactly the cold sweep's count.
  gain_evals_ += view_.num_candidates;
  return view_;
}

}  // namespace tpp::core
