// IncidenceIndex: CSR-flattened edge -> target-subgraph incidence with
// cached per-edge alive counts.
//
// Because phase 2 only deletes edges, the set of target subgraphs is fixed
// once enumerated; an instance dies permanently when any of its edges is
// deleted. BuildCached interns every participating edge into a dense edge
// id (EdgeKey -> uint32, ids assigned in ascending key order; keyed queries
// resolve ids through a static flat open-addressing probe table built
// once from the sorted key array — multiply-shift hash, no node chase,
// immutable after build) and lays the incidence relation out in two
// contiguous CSR structures:
//
//   * inst_offsets_ / instance_ids_ — the posting list of edge id e is
//     instance_ids_[inst_offsets_[e] .. inst_offsets_[e+1]). Walks are
//     linear scans over contiguous memory, never hash-bucket chases.
//   * tgt_offsets_ / tgt_ids_ / tgt_counts_ — the per-target split of each
//     edge's alive count: for edge id e, the segment holds one
//     (target, alive count) pair per target that had an instance through e
//     at build time, targets ascending. AccumulateGains and the CT/WT
//     round views (TargetCellOffsets/Ids/Counts, read in place by
//     IndexedEngine::BeginRound) scan one short segment instead of the
//     full posting list.
//
// On top of the layout the index caches alive_count_[e], the number of
// alive instances containing edge id e. The maintained invariant is
//
//   alive_count_[e] == |{i : alive_[i] and e in instance i}|, and
//   tgt_counts_ partitions alive_count_[e] by instance target,
//
// so Gain(e) is a probe lookup plus an array read — O(1) — and the
// maintenance restoring the invariant after a deletion is paid exactly
// once per killed instance: each killed instance decrements its edges'
// alive counts and, via the build-time slot table
// (InstanceMaintenance::slots in maint_), the exact (edge, target) cell
// of CSR 2 — no per-sibling scan of the target segment. Total greedy
// work is therefore proportional to instances actually killed, not
// instances scanned.
//
// Count upkeep is DEFERRED: DeleteEdge only marks the killed instances
// (tri-state alive flags) and queues the deleted edge id — two O(1)
// stores beyond the kill marks, touching neither maintenance records nor
// count arrays — while total_alive_ stays eager so similarity traces read
// without any flush. The queued maintenance replays in two granularities,
// each before the reads that need it:
//
//   * FlushDeferredCounts — restores alive_count_, alive_per_target_, and
//     alive_edges_ by walking the queued edges' posting lists once per
//     killed instance. Runs implicitly before every count-level read
//     (Gain, AliveCandidateEdges, NumAliveEdges, AliveForTarget, ...) and
//     can emit the DIRTY SET: the ids of every edge whose cached count
//     changed — exactly the candidates an incremental round engine must
//     re-evaluate (core/gain_table.h).
//   * FlushDeferredMaintenance — additionally restores the CSR-2 per-
//     target cells (zero the dead edges' segments wholesale, then replay
//     the queued kills against the slot table). Runs implicitly before
//     every per-target read (AccumulateGains); the raw cell accessors
//     assume it already ran.
//
// The deferral costs nothing it would not pay eagerly — each killed
// instance is processed exactly once per granularity — but moves the work
// out of the commit: a greedy round flushes once before its first gain
// read instead of scattering decrements inside every DeleteEdge, a run
// that never reads per-target splits (SGB, the random baselines) never
// pays the CSR-2 half at all, and delete-only bursts (bulk phase-1
// deletions) pay only the kill marks. Steady-state Gain stays an O(1)
// cached read, and a per-target round (CT/WT) flushes once, then reads
// the cells in place.
//
// One builder makes every index: BuildCached, from the base graph G (the
// released graph G - T is never materialized) or from G - T alike. Its
// first stage collects each target's instances from per-link lists of the
// graph it is given (motif/link_instances.h) minus those through a target
// link, in the serial (target, emit) order; only the enumeration of the
// links that cache misses fans out over the shared thread pool (per-target
// tasks, hub targets split by first-neighbor chunk, motif/enumerate.h),
// and only above a work estimate that never depends on the thread budget.
// Interning (an LSD radix sort of the flat instance-edge array, plus
// unique) and the CSR layouts (one count pass and one scatter that also
// writes the slot table) run on the calling thread. The result is
// bit-identical to the serial pre-parallel build on G - T at any thread
// count and cache state (BuildIndexSerialReference, test-only,
// tests/reference/serial_index_build.h; differential-tested in
// tests/index_build_parallel_test.cc and tests/link_instance_cache_test.cc).
//
// Complexity per query (E = interned edges, I(e) = instances through e,
// T(e) = distinct targets through e, T(e) <= min(NumTargets(), I(e))):
//   Gain                 O(1) flushed (amortized: the first call after a
//                        delete pays that delete's count flush)
//   AccumulateGains      O(T(e)) flushed
//   DeleteEdge           O(I(e)) kill marks; the deferred flushes later
//                        pay O(arity) per killed instance per
//                        granularity; O(1) when the edge is already dead
//                        or unknown
//   AliveCandidateEdges  O(E) scan of alive_count_ (ids are key-sorted, so
//                        the result needs no sort); the result vector is
//                        reserved from the maintained alive-edge count,
//                        not the build-time edge count
//
// The previous unordered_map posting-list implementation is preserved as
// LegacyIncidenceIndex in the test-only reference library
// (tests/reference/legacy_incidence_index.h) and serves as the oracle of
// the differential tests.

#ifndef TPP_MOTIF_INCIDENCE_INDEX_H_
#define TPP_MOTIF_INCIDENCE_INDEX_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/cancellation.h"
#include "common/flat_array.h"
#include "common/result.h"
#include "graph/graph.h"
#include "motif/enumerate.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::motif {

class IndexSnapshotCodec;
class LinkInstanceCache;  // motif/link_instances.h

/// See file comment. Build once per (graph, targets, motif) experiment;
/// the index is self-contained after BuildCached and does not retain the
/// graph.
class IncidenceIndex {
 public:
  /// Knobs of one BuildCached call.
  struct BuildOptions {
    /// Worker budget for the enumeration (the intern and CSR stages are
    /// serial); <= 0 resolves to tpp::GlobalThreadCount() (the --threads
    /// flag / TPP_THREADS). The built index is bit-identical at any value.
    int threads = 0;
    /// Optional cancel/deadline source (not owned; must outlive the
    /// call). Polled between the build's internal stages — enumerate,
    /// intern, each CSR pass — so a request whose deadline expires
    /// mid-build fails at the next stage boundary instead of paying for
    /// the whole construction. Null: never canceled (one branch per
    /// stage). Polling cannot perturb a build that finishes in time.
    const CancellationToken* cancel = nullptr;
  };

  /// Per-stage wall-time breakdown of one BuildCached call (the
  /// index_build bench and servebench's traced build probe report these).
  struct BuildStats {
    double enumerate_seconds = 0;  ///< collect: probe, misses, filter
    double intern_seconds = 0;     ///< sort+unique edge keys + id map
    double csr_seconds = 0;        ///< CSR 1/2 count-then-fill + slot table
    size_t instances = 0;          ///< collected instances
    size_t interned_edges = 0;     ///< distinct participating edges
    size_t tasks = 0;              ///< enumeration tasks of the misses
  };

  /// The one index builder: the instances of each target on `g` with
  /// every target link left out, laid out as above. Each target's list on
  /// `g` comes from `cache` (enumerated and published on a miss), minus
  /// the instances through a target link. On the base G that is the
  /// enumeration of G - T, without materializing it; on G - T nothing is
  /// filtered. Either way, and at any thread count, the result is
  /// bit-identical to BuildIndexSerialReference on G - T. `cache` must
  /// hold lists of this `g` only; checking the targets is the caller's
  /// job (ValidateTargetLinks). Polls `options.cancel` between stages.
  static Result<IncidenceIndex> BuildCached(
      const graph::Graph& g, const std::vector<graph::Edge>& targets,
      MotifKind kind, LinkInstanceCache& cache, const BuildOptions& options,
      BuildStats* stats = nullptr);

  /// Number of targets the index was built over.
  size_t NumTargets() const { return alive_per_target_.size(); }

  /// Number of distinct edges interned at build time (the CSR width).
  size_t NumInternedEdges() const { return edge_keys_.size(); }

  /// All enumerated instances (alive and dead).
  std::span<const TargetSubgraph> instances() const {
    return instances_.span();
  }

  /// True iff instance `i` has not lost any edge yet. (Internally a dead
  /// instance may still carry queued CSR-2 upkeep — state 2 below — but it
  /// is dead either way.)
  bool IsAlive(size_t i) const { return alive_[i] == 1; }

  /// Total alive instances: s(P, T) for the deletions committed so far.
  size_t TotalAlive() const { return total_alive_; }

  /// Alive instances serving target `t`: s(P, t). Flushes deferred count
  /// maintenance first (hence non-const).
  size_t AliveForTarget(size_t t) {
    FlushDeferredCounts();
    return alive_per_target_[t];
  }

  /// Alive counts for all targets (flushes deferred count maintenance).
  const std::vector<size_t>& AliveCounts() {
    FlushDeferredCounts();
    return alive_per_target_;
  }

  /// Edges that still appear in at least one alive instance — the exact
  /// size of AliveCandidateEdges(), so late greedy rounds reserve what
  /// they return instead of the build-time edge count. Flushes deferred
  /// count maintenance.
  size_t NumAliveEdges() {
    FlushDeferredCounts();
    return alive_edges_;
  }

  /// Number of alive instances containing `e` = dissimilarity gain of
  /// deleting e: a cached count behind the bucketed key lookup, not a
  /// posting-list walk. O(1) whenever deferred count maintenance is
  /// flushed (one predictable branch checks); the first call after a
  /// DeleteEdge pays that delete's count upkeep.
  size_t Gain(graph::EdgeKey e) {
    FlushDeferredCounts();
    const uint32_t id = EdgeIdOf(e);
    return id == kNoEdge ? 0 : alive_count_[id];
  }

  /// Adds the per-target gains of deleting `e` into `out` (size
  /// NumTargets()): one pass over the edge's per-target count segment.
  /// Flushes deferred CSR-2 maintenance first (hence non-const).
  void AccumulateGains(graph::EdgeKey e, std::vector<size_t>* out);

  /// Span form of AccumulateGains (out.size() == NumTargets()); the
  /// allocation-free inner query of the hoisted CT/WT loops.
  void AccumulateGains(graph::EdgeKey e, std::span<size_t> out);

  /// Commits the deletion of edge `e`: kills all alive instances
  /// containing it (marks only — count and cell upkeep is queued, see the
  /// file comment; total_alive_ stays current). Returns the number
  /// killed. Idempotent (second call returns 0).
  size_t DeleteEdge(graph::EdgeKey e);

  /// In-place repair after a committed base-graph edit (index_repair.cc).
  ///
  /// `g` is the POST-edit graph (the delta already applied): either the
  /// released graph G - T or the base G itself, targets present — the
  /// result is BitIdentical either way. `targets` is the build-time target
  /// list in build order, and `delta` the normalized net edit (the
  /// GraphDelta contract). The repair
  ///
  ///   * retires every instance killed by a removed base edge through the
  ///     existing DeleteEdge + deferred-flush machinery (exact: an
  ///     instance dies iff it contains a removed edge),
  ///   * enumerates CREATED instances only around the inserted edges —
  ///     for each inserted edge, the per-motif slot cases that can absorb
  ///     it, over the targets within distance one of its endpoints —
  ///     instead of re-enumerating every target, and drops those holding
  ///     a target link (only a walk on G produces them),
  ///   * and repairs the layout by linear gather/merge passes: the edge
  ///     universe only GROWS (a key whose last instance died keeps its
  ///     dense id with alive count 0, so removals shift no ids and the
  ///     interner and probe table are reused untouched; only never-seen
  ///     keys splice in at key rank), dead instance rows compact out,
  ///     created rows append, and survivor slot tables update by O(1)
  ///     gathers — no hashing, sorting, or per-entry searches on the
  ///     survivor path.
  ///
  /// The result is PLAN-EQUIVALENT to a cold build on the edited graph:
  /// per-key gains, per-target splits, alive tallies, and the alive
  /// candidate set (AliveCandidateEdges) come out identical, and the
  /// interned universe is an ascending SUPERSET of the cold build's whose
  /// extra keys hold alive count 0 — exactly the zero rows the greedy
  /// sweeps and incremental round sessions already skip, so every
  /// deterministic solver reproduces the cold plan byte-for-byte. (The
  /// RDT baseline draws from the restricted candidate set,
  /// AliveCandidateEdges, so it cannot observe the extra keys either.)
  /// The instance-row order (and therefore CSR-1 posting ids) may differ
  /// too, which no gain or candidate query observes. The repaired index is
  /// fresh again (every instance alive, no deferred work), so further
  /// edits compose. CountsFlushEpoch() is bumped so open round sessions
  /// restart rather than serve stale layouts.
  ///
  /// Requirements (error, index unchanged): `kind` must be the motif the
  /// index was built for (the index only records the arity, so the caller
  /// supplies the kind it built with), the index must be fresh, the
  /// target list must match the build (count and node range), no delta
  /// edge may be a target link, inserted edges must be present in `g` and
  /// removed edges absent. Cost: O(E + I + cells) merge passes plus the
  /// delta-neighborhood enumeration — independent of the number of
  /// targets touched, and far below a rebuild's full enumeration.
  Status ApplyGraphDelta(const graph::Graph& g,
                         const std::vector<graph::Edge>& targets,
                         MotifKind kind, const graph::GraphDelta& delta);

  /// DeleteEdge followed by a dirty-emitting count flush: appends to
  /// `dirty` the dense id of every edge whose cached alive count changed
  /// since the last count flush — the killed instances' edges, this
  /// call's and any earlier unflushed deletes' alike — deduplicated. The
  /// dirty set is exactly the candidates an incremental round engine must
  /// re-evaluate; everything else kept its gain from the previous round.
  size_t DeleteEdge(graph::EdgeKey e, std::vector<uint32_t>* dirty);

  /// Applies the queued count maintenance (alive_count_,
  /// alive_per_target_, alive_edges_), appending the dirty set to `dirty`
  /// when non-null. O(sum of arity over unflushed kills); idempotent and
  /// O(1) when nothing is queued.
  void FlushDeferredCounts(std::vector<uint32_t>* dirty = nullptr);

  /// FlushDeferredCounts plus the queued CSR-2 cell maintenance. The raw
  /// cell accessors (TargetCellCounts) read current counts only after this
  /// returns and before the next DeleteEdge. Idempotent.
  void FlushDeferredMaintenance();

  /// True iff any maintenance (counts or cells) is queued but unapplied.
  bool HasDeferredMaintenance() const {
    return counts_pending_ > 0 || cells_pending_ > 0;
  }

  /// Number of count flushes that have applied queued kills so far. An
  /// incremental round session records this after its own dirty-emitting
  /// flush; a different value at the next round means some other read
  /// flushed in between — consuming kills whose dirty set the session
  /// never saw — so the session must restart (full re-evaluation)
  /// instead of serving stale gains. See IndexedEngine::BeginRound.
  uint64_t CountsFlushEpoch() const { return counts_flush_epoch_; }

  /// The CSR-2 per-target cells, indexed by dense edge id: edge id e owns
  /// cells [TargetCellOffsets()[e], TargetCellOffsets()[e + 1]) of
  /// TargetCellIds() (strictly ascending targets) and TargetCellCounts()
  /// (their alive counts; a target without a cell has none). PURE READS of
  /// the incremental round session's per-target view: the counts are
  /// current only after FlushDeferredMaintenance and until the next
  /// DeleteEdge. The layout (offsets and ids) changes only in
  /// ApplyGraphDelta, which bumps CountsFlushEpoch().
  std::span<const uint32_t> TargetCellOffsets() const {
    return tgt_offsets_.span();
  }
  std::span<const uint32_t> TargetCellIds() const { return tgt_ids_.span(); }
  std::span<const uint32_t> TargetCellCounts() const { return tgt_counts_; }

  /// The cached per-edge-id alive counts, indexed by dense edge id. PURE
  /// READ of the incremental round session's total-gain table: requires a
  /// prior FlushDeferredCounts, after which entry id equals
  /// Gain(InternedEdgeKeys()[id]) until the next DeleteEdge.
  const std::vector<uint32_t>& PerEdgeAliveCounts() const {
    return alive_count_;
  }

  /// Edges that appear in at least one alive instance — exactly the
  /// restricted candidate set of Lemma 5 (the "-R" algorithms). Sorted
  /// ascending for determinism (edge ids are assigned in key order, so
  /// this is a single scan of the alive-count array, after a count
  /// flush).
  std::vector<graph::EdgeKey> AliveCandidateEdges();

  /// Fill form of AliveCandidateEdges: reuses `out`'s capacity across
  /// rounds instead of allocating a fresh vector per call.
  void AliveCandidateEdgesInto(std::vector<graph::EdgeKey>* out);

  /// The interned edge keys, ascending: every edge that appeared in an
  /// instance at build time, plus (after an ApplyGraphDelta repair) keys
  /// whose instances have all died — the universe only grows. This is
  /// the STATIC candidate universe of an incremental round session under
  /// either scope (dense ids are positions in this span). Lives as long
  /// as the index (or any copy sharing its backing).
  std::span<const graph::EdgeKey> InternedEdgeKeys() const {
    return edge_keys_.span();
  }

  /// Sentinel of EdgeIdOf: the key was never interned.
  static constexpr uint32_t kNoEdge = 0xffffffffu;

  /// Bytes of this index's own arrays (element bytes, not capacity or
  /// allocator slack). Arrays aliased with other copies or adopted from a
  /// snapshot mapping count in full: the figure is what this index keeps
  /// reachable, the instance repository's charge for a built group.
  size_t MemoryBytes() const;

  /// True iff every internal structure of this index equals `other`'s —
  /// instances, interning, both CSR layouts, slot tables, and all alive
  /// state. Deferred CSR-2 maintenance is compared by EFFECT, not by
  /// queue state: an index with queued decrements equals its flushed twin.
  /// The check behind "parallel build == serial build" in the differential
  /// tests and the index_build bench.
  bool BitIdentical(const IncidenceIndex& other) const;

 private:
  // The snapshot codec (motif/index_snapshot.h) serializes the private
  // layout verbatim and reconstitutes it by adopting mmap'd file bytes
  // into the FlatArray members below.
  friend class IndexSnapshotCodec;
  // The serial reference build (tests/reference/serial_index_build.h)
  // fills the same private layout.
  friend Result<IncidenceIndex> BuildIndexSerialReference(
      const graph::Graph& g, const std::vector<graph::Edge>& targets,
      MotifKind kind);

  IncidenceIndex() = default;

  /// Dense id of key `e`, or kNoEdge, resolved through a STATIC open-
  /// addressing table built once after interning: multiply-shift hash
  /// into a power-of-two slot array (no prime modulus, so no hardware
  /// division like std::unordered_map pays), linear probing at <= 50%
  /// load, keys and ids in parallel flat arrays (8 keys per cache line,
  /// no node chase). The table never changes after build — deletions
  /// maintain counts, not the interning — so the keyed query hot paths
  /// (Gain, DeleteEdge) pay one multiply plus typically one cache line.
  /// The CSR fill passes resolve ids through it too; edge_keys_ itself is
  /// the sorted view of the interning.
  uint32_t EdgeIdOf(graph::EdgeKey e) const {
    // Fibonacci multiply-shift: the product's high bits index the table.
    uint64_t slot = (e * 0x9E3779B97F4A7C15ull) >> probe_shift_;
    for (;; slot = (slot + 1) & probe_mask_) {
      const graph::EdgeKey k = probe_keys_[slot];
      if (k == e) return probe_ids_[slot];
      if (k == 0) return kNoEdge;  // 0 is no valid key (u < v => v >= 1)
    }
  }

  // FlushDeferredCounts' kill walk, specialized on the motif arity so the
  // count updates fully unroll, and on dirty collection so the plain
  // flush carries no per-edge branch for it. The kDirty instantiation
  // appends changed edge ids to `dirty` (deduplicated through the stamp
  // array).
  template <int kArity, bool kDirty>
  void FlushCountsImpl(std::vector<uint32_t>* dirty);

  // Builds the static EdgeIdOf probe table from the finished edge_keys_;
  // both build paths call it right after interning.
  void BuildProbeTable();

  // Shared tail of BuildCached and BuildIndexSerialReference: sizes and
  // fills the alive state (alive_, total_alive_, alive_per_target_,
  // alive_edges_) from the enumerated instances in O(instances + E).
  void FinishAliveState(size_t num_targets);

  // Fills the repair-acceleration caches (target_keys_sorted_ and
  // node_targets_) from the build-time target list. Both build
  // tails call it; ApplyGraphDelta rebuilds it lazily when absent (an
  // index restored from a snapshot, which does not carry the caches).
  void PopulateRepairCaches(const std::vector<graph::Edge>& targets);

  // Storage split: everything immutable after build is a FlatArray —
  // copies of the index (a request's Adopted copy, IndexedEngine::Clone)
  // alias one backing allocation, and a snapshot load
  // (motif/index_snapshot.h) adopts the mmap'd file bytes in place. Only the genuinely mutable state (alive
  // flags, cached counts, CSR-2 cells, deferral queues) stays in
  // std::vectors that deep-copy per clone.

  // Instance storage (shared shape with the test-only reference
  // LegacyIncidenceIndex, tests/reference/). alive_ is a four-state flag:
  // 1 = alive; 2 = dead, count AND cell maintenance queued (set by
  // DeleteEdge); 3 = dead, counts applied, cell maintenance still queued
  // (set by FlushDeferredCounts, consumed by FlushDeferredMaintenance);
  // 0 = dead and fully flushed. Everything outside the flush machinery
  // treats any non-1 state as dead.
  FlatArray<TargetSubgraph> instances_;
  std::vector<uint8_t> alive_;
  std::vector<size_t> alive_per_target_;
  size_t total_alive_ = 0;

  // Edge interner: edge_keys_ is sorted ascending (id order == key
  // order). num_nodes_ is the node count of the graph the index was
  // built over; a repair must be handed a graph of the same size.
  FlatArray<graph::EdgeKey> edge_keys_;
  size_t num_nodes_ = 0;

  // The static probe table behind EdgeIdOf (see its comment): power-of-
  // two capacity at <= 50% load, key 0 = empty slot, ids aligned with
  // probe_keys_. Built by BuildProbeTable right after interning in both
  // build paths (the CSR fill passes already resolve through it),
  // immutable afterwards; deterministic (insertion in ascending id order
  // with linear probing), so equal edge_keys_ imply an equal table.
  FlatArray<graph::EdgeKey> probe_keys_;
  FlatArray<uint32_t> probe_ids_;
  uint64_t probe_mask_ = 0;
  int probe_shift_ = 63;

  // CSR 1: edge id -> instance ids.
  FlatArray<uint32_t> inst_offsets_;  // size NumInternedEdges() + 1
  FlatArray<uint32_t> instance_ids_;  // flat posting lists

  // Cached gain: alive_count_[e] == alive instances containing edge id e,
  // and alive_edges_ == |{e : alive_count_[e] > 0}|.
  std::vector<uint32_t> alive_count_;
  size_t alive_edges_ = 0;

  // CSR 2: edge id -> (target, alive count) pairs. tgt_counts_ cells may
  // lag behind the eager alive state by the queued decrements in pending_;
  // FlushDeferredMaintenance() restores them before any per-target read.
  FlatArray<uint32_t> tgt_offsets_;   // size NumInternedEdges() + 1
  FlatArray<uint32_t> tgt_ids_;       // flat target indices
  std::vector<uint32_t> tgt_counts_;  // flat alive counts, mutated

  // Deferred-maintenance queues: fixed-size arrays (sized
  // NumInternedEdges() at build, so even a fresh index copy queues
  // without ever allocating) used as stacks of deleted edge ids. An edge
  // enters counts_queue_ at most once — only the delete that kills its
  // last alive instances queues it — so the bound is exact.
  // FlushDeferredCounts drains counts_queue_ (walking each queued edge's
  // posting list for state-2 instances) and moves the ids to
  // cells_queue_; FlushDeferredMaintenance drains cells_queue_ (zeroing
  // the dead edges' segments wholesale, then replaying state-3 instances
  // against the slot table, each cell decrement guarded by cell > 0 — a
  // zero cell belongs to a wholesale-zeroed edge whose decrements are
  // already absorbed, while cells of live edges are always >= the
  // decrements queued against them, so the guard never skips a real
  // update).
  std::vector<uint32_t> counts_queue_;  // [0, counts_pending_) are queued
  std::vector<uint32_t> cells_queue_;   // [0, cells_pending_) are queued
  size_t counts_pending_ = 0;
  size_t cells_pending_ = 0;
  uint64_t counts_flush_epoch_ = 0;  // see CountsFlushEpoch()

  // Dirty-set dedup scratch: stamp[e] == dirty_epoch_ iff edge id e was
  // already emitted by the current dirty-collecting count flush. Lazily
  // sized on first use; epoch bumps make clearing O(1).
  std::vector<uint32_t> dirty_stamp_;
  uint32_t dirty_epoch_ = 0;

  // Repair-acceleration caches (index_repair.cc): the target keys sorted
  // ascending (delta validation and the created-instance filter
  // binary-search them instead of sorting per commit) and the 2|T|
  // (node << 32 | target index) pairs of the target endpoints, ascending
  // (candidate generation for the delta neighborhood binary-searches a
  // node's run instead of rebuilding a node map per commit). Both are
  // O(|T|), never O(NumNodes()), and pure functions of the build-time
  // target list — populated by PopulateRepairCaches in both build tails,
  // lazily rebuilt on the first repair of a snapshot-loaded index — and
  // deliberately absent from the serialized form AND from BitIdentical
  // (a loaded index must compare equal to the built one). Never mutated
  // in place, so they are FlatArrays: index copies alias them, and a
  // (re)population assigns fresh arrays.
  FlatArray<graph::EdgeKey> target_keys_sorted_;
  FlatArray<uint64_t> node_targets_;

  // Everything DeleteEdge needs per killed instance, in one compact
  // record (one cache line instead of three scattered structures): the
  // instance's target, its interned edge ids, and the flat CSR-2 slot of
  // (edge_ids[j], target) — so the per-target count is decremented
  // directly instead of scanning the sibling edge's target segment.
  struct InstanceMaintenance {
    uint32_t target = 0;
    std::array<uint32_t, 4> edge_ids{};
    std::array<uint32_t, 4> slots{};
    friend bool operator==(const InstanceMaintenance& a,
                           const InstanceMaintenance& b) = default;
  };
  FlatArray<InstanceMaintenance> maint_;
  // Edges per instance — uniform for one motif kind (MotifEdgeCount), so
  // DeleteEdge never reads the 40-byte TargetSubgraph.
  uint8_t arity_ = 0;
};

}  // namespace tpp::motif

#endif  // TPP_MOTIF_INCIDENCE_INDEX_H_
