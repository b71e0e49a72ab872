#include "core/indexed_engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"

namespace tpp::core {

using graph::EdgeKey;

namespace {

constexpr uint32_t kNoRow = motif::IncidenceIndex::kNoEdge;

}  // namespace

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

void IndexedEngine::FillGainRows(std::span<const uint32_t> ids,
                                 size_t stride, uint32_t* out) {
  // One flush up front makes every row fill below a pure read of the
  // index, so the fan-out needs no synchronization: workers write
  // disjoint output rows and only read CSR-2 cells.
  index_.FlushDeferredMaintenance();
  // Blocked pass: maximal runs of consecutive ids (with consecutive
  // output rows by construction here) go through one streaming
  // ReadGainRows walk of their contiguous CSR-2 block instead of per-row
  // offset re-derivation; a restricted-scope universe is one run per
  // chunk.
  ParallelRowJob(ids.size(), [&](size_t begin, size_t end) {
    size_t i = begin;
    while (i < end) {
      if (ids[i] == kNoRow) {
        std::fill(out + i * stride, out + (i + 1) * stride, 0u);
        ++i;
        continue;
      }
      size_t len = 1;
      while (i + len < end && ids[i + len] == ids[i] + len) ++len;
      index_.ReadGainRows(ids[i], len, stride, out + i * stride);
      i += len;
    }
  });
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

void IndexedEngine::InitRoundSession(CandidateScope scope, bool per_target) {
  table_.Reset();
  session_dirty_.clear();
  const size_t num_targets = index_.NumTargets();
  size_t num_rows = 0;
  if (scope == CandidateScope::kTargetSubgraphEdges) {
    // The universe is the interned edge set: row index == dense edge id,
    // so the totals span aliases the index's eagerly-maintained alive
    // counts — the restricted-scope total table needs NO per-round upkeep
    // at all. Dead candidates keep total 0 and can never win a pick.
    num_rows = index_.NumInternedEdges();
    id_to_row_ = {};
    table_.view.edges = index_.InternedEdgeKeys();
    table_.view.totals = index_.PerEdgeAliveCounts();
    row_ids_.resize(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      row_ids_[i] = static_cast<uint32_t>(i);
    }
  } else {
    // Full scope: the universe is the graph's edge set at session start
    // (a committed pick zeroes its row via the dirty set, exactly like a
    // candidate dying). Non-interned edges have no instances, hence gain
    // 0 forever and never appear in a dirty set.
    table_.edges = g_.EdgeKeys();
    num_rows = table_.edges.size();
    table_.totals.resize(num_rows);
    row_ids_.assign(num_rows, kNoRow);
    id_to_row_.assign(index_.NumInternedEdges(), kNoRow);
    const std::vector<uint32_t>& counts = index_.PerEdgeAliveCounts();
    for (size_t i = 0; i < num_rows; ++i) {
      const uint32_t id = index_.InternedIdOf(table_.edges[i]);
      row_ids_[i] = id;
      if (id == kNoRow) {
        table_.totals[i] = 0;
      } else {
        table_.totals[i] = counts[id];
        id_to_row_[id] = static_cast<uint32_t>(i);
      }
    }
    table_.view.edges = table_.edges;
    table_.view.totals = table_.totals;
  }
  if (per_target) {
    table_.rows.resize(num_rows * num_targets);
    FillGainRows(row_ids_, num_targets, table_.rows.data());
    table_.view.rows = table_.rows;
    table_.view.num_targets = num_targets;
  }
  table_.active = true;
  table_.scope = scope;
  table_.per_target = per_target;
  table_.view.all_dirty = true;
  table_.view.dirty = {};
}

const RoundGains& IndexedEngine::BeginRound(CandidateScope scope,
                                            bool per_target) {
  // A count-flush epoch different from the one this session recorded
  // means some other read (Gain, GainVector, SimilarityOf, Candidates, a
  // direct index access, ...) flushed queued kills WITHOUT dirty
  // collection since the last round — that dirty information is gone, so
  // the only correct continuation is a full re-evaluation. Sessions
  // whose rounds only interleave DeleteEdge with BeginRound (the greedy
  // loops) never trip this.
  const bool restart = !table_.active || table_.scope != scope ||
                       table_.per_target != per_target ||
                       index_.CountsFlushEpoch() != session_flush_epoch_;
  if (restart) {
    index_.FlushDeferredCounts();
    InitRoundSession(scope, per_target);
  } else {
    // Incremental round: the count flush applies everything the session's
    // deletions queued and emits exactly the dirty set — the candidates
    // whose gains changed. Everything else keeps last round's state, and
    // a session without per-target rows (SGB-style) never triggers the
    // CSR-2 half of the maintenance at all.
    session_dirty_.clear();
    index_.FlushDeferredCounts(&session_dirty_);
    std::sort(session_dirty_.begin(), session_dirty_.end());
    table_.dirty.clear();
    table_.dirty.reserve(session_dirty_.size());
    const bool full_scope = scope == CandidateScope::kAllEdges;
    const std::vector<uint32_t>& counts = index_.PerEdgeAliveCounts();
    for (uint32_t id : session_dirty_) {
      const uint32_t row = full_scope ? id_to_row_[id] : id;
      if (row == kNoRow) continue;  // dirtied edge outside the universe
      table_.dirty.push_back(row);
      if (full_scope) table_.totals[row] = counts[id];
    }
    if (per_target && !table_.dirty.empty()) {
      index_.FlushDeferredMaintenance();
      const size_t num_targets = table_.view.num_targets;
      uint32_t* rows = table_.rows.data();
      // Blocked dirty refresh: the dirty rows are sorted, and under the
      // restricted scope row == id, so consecutive dirty rows are
      // consecutive ids — one streaming ReadGainRows per run. Under the
      // full scope a run additionally requires the id column to step with
      // the rows (non-interned edges sit between universe rows), which
      // the inner extension check enforces. Dirty ids cluster naturally:
      // a killed instance dirties arity edges interned near each other.
      ParallelRowJob(table_.dirty.size(), [&](size_t begin, size_t end) {
        size_t k = begin;
        while (k < end) {
          const uint32_t row = table_.dirty[k];
          const uint32_t id = full_scope ? row_ids_[row] : row;
          size_t len = 1;
          while (k + len < end) {
            const uint32_t next_row = table_.dirty[k + len];
            if (next_row != row + len) break;
            if (full_scope && row_ids_[next_row] != id + len) break;
            ++len;
          }
          index_.ReadGainRows(id, len, num_targets,
                              rows + row * num_targets);
          k += len;
        }
      });
    }
    table_.view.dirty = table_.dirty;
    table_.view.all_dirty = false;
  }
  session_flush_epoch_ = index_.CountsFlushEpoch();
  table_.view.num_candidates =
      scope == CandidateScope::kTargetSubgraphEdges ? index_.NumAliveEdges()
                                                    : g_.NumEdges();
  // One evaluation per live candidate, exactly the cold sweep's count.
  gain_evals_ += table_.view.num_candidates;
  return table_.view;
}

}  // namespace tpp::core
