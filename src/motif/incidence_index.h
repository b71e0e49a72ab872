// IncidenceIndex: CSR-flattened edge -> target-subgraph incidence with
// cached per-edge alive counts.
//
// Because phase 2 only deletes edges, the set of target subgraphs is fixed
// once enumerated; an instance dies permanently when any of its edges is
// deleted. Build interns every participating edge into a dense edge id
// (EdgeKey -> uint32, ids assigned in ascending key order; keyed queries
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
//     at build time. AccumulateGains and the row reads (ReadGainRows)
//     scan one short segment instead of the full posting list.
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
//     every per-target read (AccumulateGains); ReadGainRows assumes it
//     already ran so parallel row fans stay pure reads.
//
// The deferral costs nothing it would not pay eagerly — each killed
// instance is processed exactly once per granularity — but moves the work
// out of the commit: a greedy round flushes once before its first gain
// read instead of scattering decrements inside every DeleteEdge, a run
// that never reads per-target splits (SGB, the random baselines) never
// pays the CSR-2 half at all, and delete-only bursts (the delete_commit
// kernel, bulk phase-1 deletions) pay only the kill marks. Steady-state
// Gain stays an O(1) cached read, and the incremental round engine's
// per-target row fill flushes once up front so its parallel fan-out
// remains synchronization-free.
//
// Construction is parallel and deterministic: enumeration fans out over
// the shared thread pool in per-target tasks (hub targets split by
// first-neighbor chunk, see motif/enumerate.h) whose outputs merge in the
// serial (target, emit) order; edge interning is sort+unique over the flat
// instance-edge array with binary-search id resolution in the fill passes;
// and both CSR structures are built with parallel count-then-fill passes
// whose stable per-block cursors reproduce the serial layout exactly. The
// result is bit-identical to BuildSerialReference at any thread count
// (differential-tested in tests/index_build_parallel_test.cc).
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
//   AllParticipatingEdges O(E) copy
//
// The previous unordered_map posting-list implementation is preserved as
// LegacyIncidenceIndex in the test-only reference library
// (tests/reference/legacy_incidence_index.h) and serves as the baseline
// in the gain-kernel benchmarks and differential tests.

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

/// See file comment. Build once per (graph, targets, motif) experiment;
/// the index is self-contained after Build and does not retain the graph.
class IncidenceIndex {
 public:
  /// Knobs of one Build call.
  struct BuildOptions {
    /// Worker budget for the enumeration and CSR passes; <= 0 resolves to
    /// tpp::GlobalThreadCount() (the --threads flag / TPP_THREADS). The
    /// built index is bit-identical at any value.
    int threads = 0;
    /// Optional cancel/deadline source (not owned; must outlive the
    /// call). Polled between the build's internal stages — enumerate,
    /// intern, each CSR pass — so a request whose deadline expires
    /// mid-build fails at the next stage boundary instead of paying for
    /// the whole construction. Null: never canceled (one branch per
    /// stage). Polling cannot perturb a build that finishes in time.
    const CancellationToken* cancel = nullptr;
  };

  /// Per-stage wall-time breakdown of one Build call (the index_build
  /// bench reports these).
  struct BuildStats {
    double enumerate_seconds = 0;  ///< task fan-out + instance merge
    double intern_seconds = 0;     ///< sort+unique edge keys + id map
    double csr_seconds = 0;        ///< CSR 1/2 count-then-fill + slot table
    size_t instances = 0;          ///< enumerated instances
    size_t interned_edges = 0;     ///< distinct participating edges
    size_t tasks = 0;              ///< enumeration work units
  };

  /// Enumerates all target subgraphs of `kind` for every target and builds
  /// the CSR incidence layout plus the alive-count caches, fanning the
  /// enumeration and CSR passes out over the shared thread pool. `g` must
  /// already have the targets removed (phase 1); an error is returned if
  /// any target edge is still present.
  static Result<IncidenceIndex> Build(const graph::Graph& g,
                                      const std::vector<graph::Edge>& targets,
                                      MotifKind kind);

  /// Build with an explicit thread budget and optional per-stage timings.
  static Result<IncidenceIndex> Build(const graph::Graph& g,
                                      const std::vector<graph::Edge>& targets,
                                      MotifKind kind,
                                      const BuildOptions& options,
                                      BuildStats* stats = nullptr);

  /// The single-threaded pre-parallel build: serial per-target enumeration
  /// with materialized common-neighbor vectors and hash-map edge-id
  /// resolution. Kept verbatim as the baseline of the index_build bench
  /// and the reference of the parallel-vs-serial differential tests; its
  /// result is required to be bit-identical to Build at any thread count.
  static Result<IncidenceIndex> BuildSerialReference(
      const graph::Graph& g, const std::vector<graph::Edge>& targets,
      MotifKind kind);

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
  /// `g` is the POST-edit released graph (the delta already applied),
  /// `targets` the build-time target list in build order, and `delta` the
  /// normalized net edit (the GraphDelta contract). The repair
  ///
  ///   * retires every instance killed by a removed base edge through the
  ///     existing DeleteEdge + deferred-flush machinery (exact: an
  ///     instance dies iff it contains a removed edge),
  ///   * enumerates CREATED instances only around the inserted edges —
  ///     for each inserted edge, the per-motif slot cases that can absorb
  ///     it, over the targets within distance one of its endpoints —
  ///     instead of re-enumerating every target,
  ///   * and repairs the layout by linear gather/merge passes: the edge
  ///     universe only GROWS (a key whose last instance died keeps its
  ///     dense id with alive count 0, so removals shift no ids and the
  ///     interner, probe table, and endpoint bucket view are reused
  ///     untouched; only never-seen keys splice in at key rank), dead
  ///     instance rows compact out, created rows append, and survivor
  ///     slot tables update by O(1) gathers — no hashing, sorting, or
  ///     per-entry searches on the survivor path.
  ///
  /// The result is PLAN-EQUIVALENT to a cold Build on the edited graph:
  /// per-key gains, per-target splits, alive tallies, and the alive
  /// candidate set (AliveCandidateEdges) come out identical, and the
  /// interned universe is an ascending SUPERSET of the cold build's whose
  /// extra keys hold alive count 0 — exactly the zero rows the greedy
  /// sweeps and incremental round sessions already skip, so every
  /// deterministic solver reproduces the cold plan byte-for-byte.
  /// (AllParticipatingEdges, the RDT sampling pool, correspondingly keeps
  /// historical participants instead of shrinking to the edited graph's;
  /// only that randomized baseline can observe the difference.) The
  /// instance-row order (and therefore CSR-1 posting ids) may differ too,
  /// which no gain or candidate query observes. The repaired index is
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
  /// `cancel` (optional) is polled BEFORE the repair mutates anything —
  /// a repair cannot back out halfway, so an expired token fails the
  /// call with the index untouched rather than aborting mid-mutation.
  Status ApplyGraphDelta(const graph::Graph& g,
                         const std::vector<graph::Edge>& targets,
                         MotifKind kind, const graph::GraphDelta& delta,
                         const CancellationToken* cancel = nullptr);

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

  /// FlushDeferredCounts plus the queued CSR-2 cell maintenance. Reading
  /// cells concurrently (ReadGainRows from a parallel fan-out) is safe
  /// only after this returns and before the next DeleteEdge. Idempotent.
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

  /// Writes the per-target gain rows of the CONSECUTIVE edge ids
  /// [first, first + count) to out, out + stride, out + 2 * stride, ...
  /// (NumTargets() entries each, zero for targets without alive instances
  /// through the edge). Because ids are dense and CSR-2 segments are laid
  /// out in id order, the run's (target, count) cells are one contiguous
  /// block walked by a single running cursor — a streaming kernel instead
  /// of `count` point queries re-deriving offsets. PURE READ: requires
  /// !HasDeferredMaintenance() (call FlushDeferredMaintenance first); safe
  /// to call concurrently from pool workers under that precondition. The
  /// incremental round engine decomposes its dirty set into such runs
  /// (dirty ids cluster: an instance's edges intern near each other).
  void ReadGainRows(uint32_t first, size_t count, size_t stride,
                    uint32_t* out) const;

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

  /// Edges that appeared in any instance at build time (sorted); the RDT
  /// baseline samples from this set. After an ApplyGraphDelta repair the
  /// set keeps historical participants (the universe only grows), so the
  /// randomized baseline may sample edges with zero alive instances —
  /// harmless: such picks simply score a gain of 0.
  std::vector<graph::EdgeKey> AllParticipatingEdges() const {
    return std::vector<graph::EdgeKey>(edge_keys_.begin(), edge_keys_.end());
  }

  /// The interned edge keys themselves, ascending — the STATIC candidate
  /// universe of an incremental round session (dense ids are positions in
  /// this span). Lives as long as the index (or any copy sharing its
  /// backing).
  std::span<const graph::EdgeKey> InternedEdgeKeys() const {
    return edge_keys_.span();
  }

  /// Dense id of `e`, or kNoEdge when it was never interned.
  uint32_t InternedIdOf(graph::EdgeKey e) const { return EdgeIdOf(e); }

  /// Sentinel of InternedIdOf: the key was never interned.
  static constexpr uint32_t kNoEdge = 0xffffffffu;

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

  IncidenceIndex() = default;

  /// Dense id of key `e`, or kNoEdge, resolved through a STATIC open-
  /// addressing table built once after interning: multiply-shift hash
  /// into a power-of-two slot array (no prime modulus, so no hardware
  /// division like std::unordered_map pays), linear probing at <= 50%
  /// load, keys and ids in parallel flat arrays (8 keys per cache line,
  /// no node chase). The table never changes after build — deletions
  /// maintain counts, not the interning — so the keyed query hot paths
  /// (Gain, DeleteEdge) pay one multiply plus typically one cache line.
  /// The per-endpoint bucket table (u_offsets_) remains as the sorted
  /// view of the interning for the CSR fill passes and differential
  /// checks.
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

  // Shared tail of Build and BuildSerialReference: sizes and fills the
  // alive state (alive_, total_alive_, alive_per_target_, alive_edges_)
  // from the enumerated instances in O(instances + E).
  void FinishAliveState(size_t num_targets);

  // Fills the repair-acceleration caches (target_keys_sorted_ and the
  // node -> target CSR) from the build-time target list. Both build
  // tails call it; ApplyGraphDelta rebuilds it lazily when absent (an
  // index restored from a snapshot, which does not carry the caches).
  void PopulateRepairCaches(const std::vector<graph::Edge>& targets);

  // Storage split: everything immutable after build is a FlatArray —
  // copies of the index (IndexedEngine::Clone) alias one backing
  // allocation, and a snapshot load (motif/index_snapshot.h) adopts the
  // mmap'd file bytes in place. Only the genuinely mutable state (alive
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
  // order) and u_offsets_[u] .. u_offsets_[u+1] brackets the keys whose
  // smaller endpoint is u.
  FlatArray<graph::EdgeKey> edge_keys_;
  FlatArray<uint32_t> u_offsets_;  // size NumNodes() + 1

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
  // ascending (delta validation binary-searches them instead of sorting
  // per commit) and a node -> target-index CSR over the target endpoints
  // (candidate generation for the delta neighborhood walks it instead of
  // rebuilding it per commit). Pure functions of the build-time target
  // list — populated by PopulateRepairCaches in both build tails, lazily
  // rebuilt on the first repair of a snapshot-loaded index — and
  // deliberately absent from the serialized form AND from BitIdentical
  // (a loaded index must compare equal to the built one).
  std::vector<graph::EdgeKey> target_keys_sorted_;
  std::vector<uint32_t> node_tgt_off_;  // size NumNodes() + 1 once filled
  std::vector<uint32_t> node_tgt_;     // flat target indexes

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
