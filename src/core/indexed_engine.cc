#include "core/indexed_engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"

namespace tpp::core {

using graph::EdgeKey;

Result<IndexedEngine> IndexedEngine::Create(const TppInstance& instance) {
  return Create(instance, motif::IncidenceIndex::BuildOptions{});
}

Result<IndexedEngine> IndexedEngine::Create(
    const TppInstance& instance,
    const motif::IncidenceIndex::BuildOptions& build_options,
    motif::IncidenceIndex::BuildStats* build_stats) {
  TPP_ASSIGN_OR_RETURN(motif::IncidenceIndex index,
                       motif::IncidenceIndex::Build(
                           instance.released, instance.targets,
                           instance.motif, build_options, build_stats));
  return IndexedEngine(instance.released, std::move(index));
}

Result<IndexedEngine> IndexedEngine::Adopt(const TppInstance& instance,
                                           motif::IncidenceIndex index) {
  if (index.NumTargets() != instance.targets.size()) {
    return Status::InvalidArgument(
        "adopted index was built over a different target count");
  }
  return IndexedEngine(instance.released, std::move(index));
}

void IndexedEngine::GainVectorInto(EdgeKey e, std::span<size_t> out) {
  ++gain_evals_;
  std::fill(out.begin(), out.end(), size_t{0});
  index_.AccumulateGains(e, out);
}

void IndexedEngine::ParallelRowJob(
    size_t n, const std::function<void(size_t, size_t)>& body) {
  const size_t workers = std::min(static_cast<size_t>(GlobalThreadCount()),
                                  n / kMinRowsPerThread);
  if (workers <= 1) {
    body(0, n);
    return;
  }
  GlobalThreadPool().ParallelFor(n, static_cast<int>(workers),
                                 /*grain=*/128, body);
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

void IndexedEngine::ResetSession() {
  view_ = RoundGains{};
  rows_ = {};
  dirty_ = {};
  session_active_ = false;
  session_per_target_ = false;
  session_flush_epoch_ = 0;
}

void IndexedEngine::InitRoundSession(bool per_target) {
  ResetSession();
  // The universe is the interned edge set under either scope: row index ==
  // dense edge id, so the totals span aliases the index's eagerly-maintained
  // alive counts and needs NO per-round upkeep. Dead candidates keep total
  // 0 and can never win a pick, and neither can a graph edge outside every
  // target subgraph (gain 0 forever, Lemma 5), so full-scope rounds need
  // no rows for those.
  view_.edges = index_.InternedEdgeKeys();
  view_.totals = index_.PerEdgeAliveCounts();
  if (per_target) {
    const size_t num_targets = index_.NumTargets();
    rows_.resize(index_.NumInternedEdges() * num_targets);
    uint32_t* rows = rows_.data();
    // One flush up front makes every row read below a pure read of the
    // index, so the fan-out needs no synchronization: workers write
    // disjoint output rows and only read CSR-2 cells. Each chunk is one
    // run of consecutive ids, hence one streaming ReadGainRows walk.
    index_.FlushDeferredMaintenance();
    ParallelRowJob(index_.NumInternedEdges(), [&](size_t begin, size_t end) {
      index_.ReadGainRows(static_cast<uint32_t>(begin), end - begin,
                          num_targets, rows + begin * num_targets);
    });
    view_.rows = rows_;
    view_.num_targets = num_targets;
  }
  session_active_ = true;
  session_per_target_ = per_target;
  view_.all_dirty = true;
  view_.dirty = {};
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
    InitRoundSession(per_target);
  } else {
    // Incremental round: the count flush applies everything the session's
    // deletions queued and emits exactly the dirty set — the candidates
    // whose gains changed, as dense ids, which are the rows. Everything
    // else keeps last round's state, and a session without per-target
    // rows (SGB-style) never triggers the CSR-2 half of the maintenance
    // at all.
    dirty_.clear();
    index_.FlushDeferredCounts(&dirty_);
    std::sort(dirty_.begin(), dirty_.end());
    if (per_target && !dirty_.empty()) {
      index_.FlushDeferredMaintenance();
      const size_t num_targets = view_.num_targets;
      uint32_t* rows = rows_.data();
      // Blocked dirty refresh: the dirty rows are sorted, so consecutive
      // dirty rows are consecutive ids — one streaming ReadGainRows per
      // run. Dirty ids cluster naturally: a killed instance dirties arity
      // edges interned near each other.
      ParallelRowJob(dirty_.size(), [&](size_t begin, size_t end) {
        size_t k = begin;
        while (k < end) {
          const uint32_t row = dirty_[k];
          size_t len = 1;
          while (k + len < end && dirty_[k + len] == row + len) ++len;
          index_.ReadGainRows(row, len, num_targets,
                              rows + row * num_targets);
          k += len;
        }
      });
    }
    view_.dirty = dirty_;
    view_.all_dirty = false;
  }
  session_flush_epoch_ = index_.CountsFlushEpoch();
  view_.num_candidates =
      scope == CandidateScope::kTargetSubgraphEdges ? index_.NumAliveEdges()
                                                    : g_.NumEdges();
  // One evaluation per live candidate, exactly the cold sweep's count.
  gain_evals_ += view_.num_candidates;
  return view_;
}

}  // namespace tpp::core
