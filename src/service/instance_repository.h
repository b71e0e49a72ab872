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
// build for untouched instances. Build errors (e.g. a target link absent
// from the base) are memoized per group so every member request reports
// the same status a standalone run would (the same statuses
// core::MakeInstance returns).
//
// Built groups are bounded: each is charged the bytes of its index
// (ResidentBytes), and Trim — which RunBatch calls on an external
// repository once the batch's last engine is gone — evicts the least
// recently acquired groups until the charge is back under the cap
// (kMaxBytes unless the constructor says otherwise). An evicted group
// returns to the unbuilt state and keeps only its key, so memory per
// distinct target set is that O(|T|) key once evicted. Its next
// acquisition rebuilds it (or re-adopts its warm-store snapshot), and
// responses are byte-identical either way; ApplyEdit skips it like any
// unbuilt group.

#ifndef TPP_SERVICE_INSTANCE_REPOSITORY_H_
#define TPP_SERVICE_INSTANCE_REPOSITORY_H_

#include <atomic>
#include <deque>
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
  /// Default cap on ResidentBytes() between batches. A group is charged
  /// its index alone, which follows its instance count and not the graph:
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

  /// Interns (targets, motif) and returns its group id; the same pair
  /// always returns the same id. Not thread-safe — call from the
  /// single-threaded group-by stage of the pipeline.
  size_t Intern(const std::vector<graph::Edge>& targets,
                motif::MotifKind motif);

  /// Builds the group's IncidenceIndex from the base on first call
  /// (thread-safe build-once) and returns a private engine over a copy of
  /// it and of the base minus the targets. Build errors are memoized:
  /// every acquirer of a failed group gets the same status — EXCEPT
  /// cancellation/deadline failures (kAborted, kDeadlineExceeded from
  /// `cancel`, polled at the build's internal stage boundaries). Those
  /// depend on the requesting caller's clock, not the group, so the group
  /// resets to unbuilt and the next acquirer rebuilds under its own
  /// deadline.
  Result<core::IndexedEngine> AcquireEngine(
      size_t group, const CancellationToken* cancel = nullptr);

  /// The group's problem: its targets and motif, what RunSolver and
  /// SerializeDeletionPlan need beside the engine. Immutable once
  /// interned, so safe to read concurrently.
  const core::TppProblem& instance(size_t group) const {
    return groups_[group].problem;
  }

  /// The group's index; valid only after AcquireEngine(group) returned
  /// OK, and until the next ApplyEdit or Trim (either may evict, reset or
  /// repair the group). Immutable in between, so safe to read
  /// concurrently.
  const motif::IncidenceIndex& index(size_t group) const {
    return *groups_[group].index;
  }

  /// Distinct (targets, motif) groups interned.
  size_t NumGroups() const { return groups_.size(); }

  /// Group builds performed: one per acquisition of an unbuilt group, so
  /// a group evicted or reset and then acquired again builds again.
  size_t NumBuilds() const {
    return builds_.load(std::memory_order_relaxed);
  }

  /// Evicts least recently acquired built groups until ResidentBytes()
  /// is at most the cap; each evicted group returns to the unbuilt state
  /// and keeps only its key. NOT thread-safe against AcquireEngine, and
  /// it ends the life of every index() reference it evicts: call
  /// between batches, after the last engine is gone (RunBatch does so on
  /// an external repository).
  void Trim();

  /// Bytes charged to the built groups now: the sum of their
  /// IncidenceIndex::MemoryBytes() (a group holds no graph).
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

  /// Advances every group across a committed base-graph edit. The caller
  /// has already applied `delta` to the base graph this repository points
  /// at; `new_fingerprint` is the post-edit graph::Fingerprint (the key
  /// future snapshot probes and write-backs use). Per group:
  ///   * unbuilt groups, evicted ones included, are untouched — counted
  ///     neither repaired nor reset; their eventual build reads the
  ///     edited base;
  ///   * groups whose TARGET links intersect the delta are reset to
  ///     unbuilt (the edit changed the problem itself, so the next
  ///     acquisition cold-builds), as are groups holding a memoized build
  ///     error (the edit may have cured it);
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

  /// Built groups ApplyEdit reset for a cold rebuild (cumulative).
  size_t NumEditResets() const { return edit_resets_; }

 private:
  struct Group {
    core::TppProblem problem;
    // Build-once gate; a mutex + flag rather than a once_flag so
    // ApplyEdit can RESET a group back to unbuilt.
    std::mutex build_mu;
    bool built = false;  // guarded by build_mu
    Status status = Status::Ok();
    // Set in a built, OK group.
    std::optional<motif::IncidenceIndex> index;
    // What this group adds to resident_bytes_ (0 while unbuilt).
    size_t bytes = 0;
    // use_clock_ at the group's last acquisition; Trim evicts the
    // smallest first. Written under build_mu, read by Trim.
    uint64_t last_use = 0;
  };

  /// The build-once body: try the store, else cold-build + write back.
  void BuildGroup(Group& group, const CancellationToken* cancel);

  /// The store key of `group`'s index under the current fingerprint.
  motif::IndexSnapshotMeta SnapshotMeta(const Group& group) const;

  /// Best-effort write-back of `group`'s index to the store: a full disk
  /// or I/O error is warned, never returned (the store counts it).
  void WriteBack(const Group& group);

  /// Returns `group` to the unbuilt state; the next acquisition rebuilds.
  void ResetGroup(Group& group);

  /// Re-charges `group`'s bytes to resident_bytes_ after its index
  /// changed.
  void Recharge(Group& group);

  const graph::Graph* base_;
  const size_t max_bytes_;
  // Base-graph instance lists shared by every group's cold build.
  motif::LinkInstanceCache link_instances_;
  int build_threads_ = 0;
  store::WarmStore* store_ = nullptr;  // not owned
  uint64_t base_fingerprint_ = 0;
  // deque: push_back never moves existing groups, so build mutexes and
  // handed-out problem references stay valid as interning continues.
  std::deque<Group> groups_;
  std::unordered_map<std::string, size_t> ids_;
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
