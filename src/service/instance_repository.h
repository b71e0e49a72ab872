// InstanceRepository: build-once sharing of (targets, motif) problem
// instances within and across batches, bounded in bytes.
//
// Requests naming the same resolved target list and motif would each
// rebuild the same CSR IncidenceIndex — the dominant serving cost on
// large graphs (a full motif enumeration per request). The repository
// interns each distinct (ordered target list, motif) pair into a group
// and builds the group once (thread-safe: the first acquirer builds,
// concurrent acquirers wait on the same per-group build mutex). A built
// group is its TppProblem (targets and motif) and the IncidenceIndex of
// its target subgraphs (phase 2's candidates), and holds no graph: the
// phase-1 released graph is the repository's one base graph minus the
// targets, a pure function of the two. Every request gets a private
// engine over a copy of the index and a copy of the base minus the
// targets (IndexedEngine::Adopt), so its committed deletions cannot leak
// across requests, and its solver starts from a full evaluation with no
// round state of a sibling request.
//
// Target ORDER is part of the group identity: per-target budget division
// and plan serialization follow target positions, so reordered target
// lists are distinct instances — collapsing them would change responses.
//
// Cold builds read the base alone and share one more level down: the
// repository owns a LinkInstanceCache (motif/link_instances.h) of
// per-(link, motif) base-graph instance lists, so a group whose links
// other groups already enumerated builds its index by filtering cached
// lists instead of enumerating (IncidenceIndex::BuildCached;
// bit-identical either way). The cache is byte-capped and cleared by
// ApplyEdit.
//
// A repository lives for one RunBatch pipeline execution by default, but
// can be owned externally (BatchOptions::repository) and carried across
// batches: between batches, ApplyEdit advances every built group across a
// committed base-graph edit by repairing its index IN PLACE against the
// edited base (IncidenceIndex::ApplyGraphDelta — O(delta-neighborhood),
// not a re-enumeration), so churn-then-solve workloads never pay a cold
// build for untouched instances.
//
// A group is built (it holds an index) or absent: the table holds the
// built groups plus the ones the running batch pinned by interning them.
// A failed build (a target link absent from the base: the statuses
// core::MakeInstance returns; or the acquirer's own deadline) fails that
// acquirer alone and leaves the group unbuilt: the next acquirer builds
// again, and a deterministic failure returns the same status. The plan
// cache and dedup memoize failed responses.
// Built groups are charged their index, key and target bytes, and Trim
// (RunBatch calls it on an external repository after the batch) erases
// unbuilt groups, then least recently acquired ones past the cap. An
// evicted or edit-reset group leaves nothing behind; named again, it
// rebuilds (or re-adopts its warm-store snapshot), byte-identically.
//
// A group stays past its batch only once it has served a second
// acquisition. Most target sets are named once (each release protects
// its own targets), so Trim and ApplyEdit drop a built group that served
// one acquisition and note its key's hash in a fixed-size sighting table
// (kSightings slots, allocated at the first drop). Interning a sighted
// key credits it with that earlier use, so its second request builds the
// group again and keeps it. A one-off group therefore costs no resident
// bytes and no edit repair once its batch ends.

#ifndef TPP_SERVICE_INSTANCE_REPOSITORY_H_
#define TPP_SERVICE_INSTANCE_REPOSITORY_H_

#include <atomic>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/graph.h"
#include "motif/incidence_index.h"
#include "motif/index_snapshot.h"
#include "motif/link_instances.h"
#include "motif/motif.h"

namespace tpp::service {

namespace store {
class WarmStore;
}  // namespace store

class InstanceRepository {
 public:
  /// Default cap on ResidentBytes() between batches. A group's charge
  /// follows its instance and target counts, not the graph:
  /// a 1-3-link group on a 10^5-node Holme-Kim graph takes a few hundred
  /// bytes to a few KB, so the cap binds only on large target sets (an
  /// index of 10^6 interned keys takes tens of MB).
  static constexpr size_t kMaxBytes = size_t{768} << 20;

  /// `base` must outlive the repository; every group builds from it and
  /// every engine copies it, so it may change only at the edit barrier
  /// (the caller applies a delta, then calls ApplyEdit). `max_bytes` caps
  /// ResidentBytes() after each Trim; tests pass a small cap to force
  /// evictions.
  explicit InstanceRepository(const graph::Graph* base,
                              size_t max_bytes = kMaxBytes)
      : base_(base), max_bytes_(max_bytes) {}

  /// Worker budget for each group's one-time IncidenceIndex build
  /// (<= 0: tpp::GlobalThreadCount()). The pipeline sets this to its own
  /// max_workers so a cold batch's build stage uses the same pool budget
  /// as its solve stage; nested ParallelFor keeps that safe even when the
  /// build runs inside a pool worker. Set before the first AcquireEngine.
  void set_build_threads(int threads) { build_threads_ = threads; }

  /// Attaches a warm-start store (not owned; may be nullptr to detach).
  /// With a store attached, each group's one-time build first probes the
  /// store for a snapshot keyed by (`base_fingerprint`, motif, target-set
  /// hash) and adopts it instead of building; a cold build writes its
  /// index back (best effort) so the NEXT process start is warm. A
  /// snapshot that fails validation (corrupt, version or fingerprint
  /// mismatch) warns on stderr and falls back to the cold build — never
  /// an error, never a wrong index. Set before the first AcquireEngine.
  void set_store(store::WarmStore* store, uint64_t base_fingerprint) {
    store_ = store;
    base_fingerprint_ = base_fingerprint;
  }

  InstanceRepository(const InstanceRepository&) = delete;
  InstanceRepository& operator=(const InstanceRepository&) = delete;

  /// Interns (targets, motif), pins its group and returns its id, which
  /// is valid (and the pair's id) until the next Trim or ApplyEdit. Not
  /// thread-safe — call from the single-threaded group-by stage.
  size_t Intern(const std::vector<graph::Edge>& targets,
                motif::MotifKind motif);

  /// Builds the group's IncidenceIndex from the base unless it is built
  /// (thread-safe build-once) and returns a private engine over a copy of
  /// it and of the base minus the targets. A failed build (`cancel` is
  /// polled at its stage boundaries) leaves the group unbuilt.
  Result<core::IndexedEngine> AcquireEngine(
      size_t group, const CancellationToken* cancel = nullptr);

  /// The group's problem: its targets and motif, what RunSolver and
  /// SerializeDeletionPlan need beside the engine. Immutable once
  /// interned, so safe to read concurrently.
  const core::TppProblem& instance(size_t group) const {
    return pins_[group]->second.problem;
  }

  /// The group's index; valid only after AcquireEngine(group) returned
  /// OK, and until the next ApplyEdit or Trim (either may evict, erase or
  /// repair the group). Immutable in between, so safe to read
  /// concurrently.
  const motif::IncidenceIndex& index(size_t group) const {
    return *pins_[group]->second.index;
  }

  /// Groups in the table: the kept ones plus the running batch's pins.
  size_t NumGroups() const { return groups_.size(); }

  /// Group builds attempted: one per acquisition of an unbuilt group.
  size_t NumBuilds() const {
    return builds_.load(std::memory_order_relaxed);
  }

  /// Unpins every group, erases the unbuilt ones and those that served
  /// one acquisition (sighting their keys), then erases least recently
  /// acquired ones until ResidentBytes() is at most the cap. NOT
  /// thread-safe against AcquireEngine: call between batches, after the
  /// last engine is gone (RunBatch does so on an external repository).
  void Trim();

  /// Bytes charged to the built groups now: their indexes'
  /// MemoryBytes() plus their key and target bytes.
  size_t ResidentBytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  /// Groups Trim evicted (cumulative).
  size_t NumEvictions() const { return evictions_; }

  /// Per-link instance lists cold builds took from the link cache
  /// (cumulative).
  size_t NumLinkCacheHits() const { return link_instances_.hits(); }

  /// Per-link instance lists cold builds enumerated on a link-cache miss
  /// (cumulative).
  size_t NumLinkCacheMisses() const { return link_instances_.misses(); }

  /// Bytes the link cache holds now (bounded by
  /// motif::LinkInstanceCache::kMaxBytes).
  size_t LinkCacheBytes() const { return link_instances_.bytes(); }

  /// Engines handed out; NumAcquisitions() - NumBuilds() full index
  /// builds were avoided by sharing.
  size_t NumAcquisitions() const {
    return acquisitions_.load(std::memory_order_relaxed);
  }

  /// Advances every built group across a committed base-graph edit. The
  /// caller has already applied `delta` to the base graph this repository
  /// points at; `new_fingerprint` is the post-edit graph::Fingerprint (the
  /// key future snapshot probes and write-backs use). It first unpins and
  /// erases groups like Trim (unbuilt, or built for one acquisition). Per
  /// kept group:
  ///   * groups whose TARGET links intersect the delta are reset: erased,
  ///     since the edit changed the problem itself;
  ///   * every other built group's index is repaired in place against
  ///     the edited base (IncidenceIndex::ApplyGraphDelta, which drops
  ///     created instances holding a target link), after which engines
  ///     answer exactly as if the group had been cold-built on the edited
  ///     base. A repair failure degrades to a reset, never an error.
  /// Repaired indexes write back to the store (best effort) under the new
  /// fingerprint, and a non-empty delta clears the link cache (its lists
  /// are enumerations of the old base). NOT thread-safe against
  /// AcquireEngine — call between batches, exactly where
  /// PlanService::ApplyEdit sits.
  void ApplyEdit(const graph::GraphDelta& delta, uint64_t new_fingerprint);

  /// Built groups ApplyEdit repaired in place (cumulative).
  size_t NumEditRepairs() const { return edit_repairs_; }

  /// Built groups ApplyEdit reset (erased) (cumulative).
  size_t NumEditResets() const { return edit_resets_; }

 private:
  struct Group {
    core::TppProblem problem;
    std::mutex build_mu;  // build-once gate
    // Set iff the group is built; guarded by build_mu.
    std::optional<motif::IncidenceIndex> index;
    size_t key_bytes = 0;  // its key and targets, charged while built
    size_t bytes = 0;  // its share of resident_bytes_ (0 while unbuilt)
    // use_clock_ at its last acquisition (Trim evicts the smallest
    // first); written under build_mu.
    uint64_t last_use = 0;
    // Acquisitions served, plus one if its key was sighted when it was
    // interned; written under build_mu.
    uint32_t uses = 0;
    size_t pin = kUnpinned;  // its id in pins_
  };
  static constexpr size_t kUnpinned = ~size_t{0};
  // Slots of the sighting table: keys of groups dropped after one use.
  static constexpr size_t kSightings = 4096;
  using Table = std::unordered_map<std::string, Group>;

  /// The build-once body: try the store, else cold-build + write back.
  Status BuildGroup(Group& group, const CancellationToken* cancel);

  /// The store key of `group`'s index under the current fingerprint.
  motif::IndexSnapshotMeta SnapshotMeta(const Group& group) const;

  /// Best-effort write-back of `group`'s index to the store: a full disk
  /// or I/O error is warned, never returned (the store counts it).
  void WriteBack(const Group& group);

  /// Re-charges `group`'s bytes to resident_bytes_ after its index
  /// changed.
  void Recharge(Group& group);

  /// Unpins every group and erases the unbuilt ones and the built ones
  /// that served a single acquisition, sighting the latter's keys.
  void ReleasePins();

  /// Uncharges and erases one table entry; returns the next.
  Table::iterator Erase(Table::iterator it);

  const graph::Graph* base_;
  const size_t max_bytes_;
  // Base-graph instance lists shared by every group's cold build.
  motif::LinkInstanceCache link_instances_;
  int build_threads_ = 0;
  store::WarmStore* store_ = nullptr;  // not owned
  uint64_t base_fingerprint_ = 0;
  // Key -> group; node-based, so groups stay put as the table grows.
  Table groups_;
  std::vector<Table::value_type*> pins_;  // the batch's groups, by id
  // Direct-mapped sighting table: the key hash of a dropped group sits at
  // hash % kSightings, 0 when empty. A later key sharing the slot
  // overwrites it (the key is forgotten) and two keys sharing a hash
  // admit each other early; neither changes a reply. Allocated when the
  // first group is dropped.
  std::vector<size_t> sightings_;
  std::atomic<size_t> builds_{0};
  std::atomic<size_t> acquisitions_{0};
  std::atomic<size_t> resident_bytes_{0};
  std::atomic<uint64_t> use_clock_{0};
  // Mutated only by ApplyEdit and Trim, which run single-threaded between
  // batches; plain counters suffice.
  size_t edit_repairs_ = 0;
  size_t edit_resets_ = 0;
  size_t evictions_ = 0;
};

}  // namespace tpp::service

#endif  // TPP_SERVICE_INSTANCE_REPOSITORY_H_
