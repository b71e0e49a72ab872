// RoundGains: the per-round gain view of an incremental round session
// (core/engine.h BeginRound). Each engine owns the storage behind it.
//
// The cold greedy loops re-evaluate every candidate every round, although a
// committed deletion only changes the gains of edges that co-occurred with
// it in a killed target subgraph. An incremental round session keeps the
// previous round's gains alive in its engine and re-evaluates only the
// DIRTY candidates the deletion reported (IncidenceIndex::DeleteEdge's
// dirty set, or everything for engines that cannot track dirtiness).
//
// RoundGains is the per-round view greedy loops consume: a STATIC,
// ascending candidate universe with aligned total gains (and, when
// requested, each row's per-target cells), plus the dirty row indices since
// the previous round. The universe holds every candidate that can have a
// positive gain and may hold more: dead or deleted candidates keep a total
// of zero, which no greedy selection rule can pick (every pick requires a
// positive gain), so scanning the universe reproduces the cold sweep's
// first-max tie-breaking exactly. Under kAllEdges it may leave out live
// zero-gain edges for the same reason — an edge outside every target
// subgraph has gain 0 forever (Lemma 5). `num_candidates` is the live
// candidate count — the cold sweep's |Candidates(scope)| — which is what
// the engine charges to the gain-evaluation work metric per round, keeping
// the paper's accounting identical between the incremental and cold paths.
// The per-target split is sparse (cells below): IndexedEngine's cells are
// the index's own CSR-2 segments, NaiveEngine writes its nonzero cells
// afresh every round.

#ifndef TPP_CORE_GAIN_TABLE_H_
#define TPP_CORE_GAIN_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/edge.h"

namespace tpp::core {

/// One round's gain view. Spans point into engine-owned storage and stay
/// valid until the next BeginRound/DeleteEdge on that engine.
struct RoundGains {
  /// Candidate universe, ascending by edge key: every candidate of the
  /// round's scope with a positive gain, plus any number of zero-gain
  /// keys (dead candidates, or live edges outside every target subgraph).
  /// Identical across rounds of one session unless `all_dirty` is set (an
  /// engine that rebuilds its universe each round always sets all_dirty).
  std::span<const graph::EdgeKey> edges;
  /// totals[i] == Gain(edges[i]) against the current graph state.
  std::span<const uint32_t> totals;
  /// Per-target cells, empty unless the round was begun with per_target
  /// set. Row i owns cells [cell_offsets[i], cell_offsets[i + 1]), one
  /// (target, gain) pair each in strictly ascending target order:
  /// GainVector(edges[i])[t] is the gain of row i's cell for t, or 0 when
  /// the row has none (a cell's gain may be 0 too). The layout — which
  /// rows hold which targets — changes only on all_dirty rounds.
  std::span<const uint32_t> cell_offsets;
  std::span<const uint32_t> cell_targets;
  std::span<const uint32_t> cell_gains;
  /// Universe indices whose totals/cells changed since the previous round
  /// (sorted ascending, deduplicated). Meaningful only when !all_dirty.
  std::span<const uint32_t> dirty;
  /// True when every row must be treated as changed: the session's first
  /// round, a per_target switch, or an engine without dirty tracking.
  bool all_dirty = true;
  /// Live candidates this round == |Candidates(scope)| of the cold sweep;
  /// the engine charges exactly this many gain evaluations for the round.
  size_t num_candidates = 0;
};

}  // namespace tpp::core

#endif  // TPP_CORE_GAIN_TABLE_H_
