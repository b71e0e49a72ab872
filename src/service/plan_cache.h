// PlanCache: content-addressed LRU memo of plan responses.
//
// Nightly protection batches re-issue identical (targets, motif, spec,
// seed) requests against the same released base graph over and over. The
// cache memoizes the full PlanResponse under a canonical key string that
// embeds graph::Fingerprint(base) plus every response-relevant request
// field (the request name is excluded — it never reaches the payload).
// Keying on the fingerprint makes entries self-invalidate when the base
// graph changes: a modified base produces a new fingerprint, so stale
// entries simply never match again and age out of the LRU ring. Keys are
// compared by full string equality, so a hit is exact over the key
// itself — the request-payload fields cannot collide; the graph is
// abbreviated by its 64-bit fingerprint, whose ~2^-64 collision risk the
// cache accepts (see graph/fingerprint.h).
//
// Failed responses are cached too: a request that deterministically
// fails (e.g. sampling more targets than the graph has edges) fails
// identically on recomputation, so serving the memoized status preserves
// bit-identity. TIMING-DEPENDENT failures (deadline exceeded, canceled,
// transient unavailability) are never memoized — a retry with a fresh
// deadline must re-solve, not replay the stale verdict.
//
// An optional backing store (service/store/warm_store.h) extends the
// in-memory LRU across process restarts: OK responses write through to
// the store's plan log, and an in-memory miss probes the store before
// reporting a miss — a disk hit decodes, refills the memory tier, and
// serves. Failed responses NEVER reach the store: a failure stays in the
// process that saw it.
//
// Thread-safe: PlanService pipeline workers probe and fill one cache
// concurrently; a single mutex suffices because entries are coarse (one
// solved plan) and the guarded work is a hash lookup plus a splice.

#ifndef TPP_SERVICE_PLAN_CACHE_H_
#define TPP_SERVICE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "graph/edge.h"
#include "service/plan_service.h"

namespace tpp::service {

namespace store {
class WarmStore;
}  // namespace store

/// Canonical content key of one request against one base graph: a pure
/// function of the fingerprint and the request payload (name excluded).
/// Equal keys imply bit-identical responses; any field that can change
/// the response — including seed, scope and budget — changes the key.
/// Keys start "tpp-plan-v1|fp=<16 lowercase hex digits>|".
std::string CanonicalRequestKey(uint64_t base_fingerprint,
                                const PlanRequest& request);

/// The base-graph fingerprint a canonical key embeds, or nullopt when
/// `key` is not in CanonicalRequestKey's shape.
std::optional<uint64_t> KeyFingerprint(std::string_view key);

/// LRU-bounded response memo. See file comment.
class PlanCache {
 public:
  /// Running totals; size/capacity are a snapshot at stats() time.
  struct Stats {
    uint64_t hits = 0;          ///< in-memory hits
    uint64_t backing_hits = 0;  ///< misses served from the backing store
    uint64_t misses = 0;        ///< true misses (both tiers)
    uint64_t evictions = 0;
    uint64_t invalidated_by_edit = 0;  ///< entries dropped by InvalidateForEdit
    uint64_t rekeyed_by_edit = 0;  ///< entries surviving an edit (rekeyed)
    /// Write-throughs the backing store could not persist (after its own
    /// retry policy gave up). The memory tier still holds the entry, so
    /// this process keeps serving it; only the cross-restart warm start
    /// is lost. Feeds the batch footer for CI gating.
    uint64_t backing_write_failures = 0;
    size_t size = 0;
    size_t capacity = 0;
  };

  /// Per-call outcome of InvalidateForEdit.
  struct EditOutcome {
    size_t invalidated = 0;  ///< entries dropped
    size_t rekeyed = 0;      ///< entries moved under the new fingerprint
  };

  /// `capacity` bounds the number of memoized responses; 0 means
  /// unbounded (no evictions).
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Copies the memoized response for `key` into `*out` and marks the
  /// entry most-recently-used. Counts a hit or a miss. The payload copy
  /// happens outside the lock — entries are immutable and
  /// shared_ptr-owned, so the critical section is just the hash lookup
  /// plus the LRU splice.
  bool Lookup(const std::string& key, PlanResponse* out);

  /// Memoizes `response` under `key`, evicting the least-recently-used
  /// entry when at capacity. Inserting an existing key refreshes the
  /// entry (last writer wins — with deterministic responses both writers
  /// carry the same payload).
  void Insert(const std::string& key, PlanResponse response);

  Stats stats() const;

  /// Reconciles the memory tier with a committed base-graph edit that
  /// moved the fingerprint from `old_fingerprint` to `new_fingerprint`.
  /// Fingerprint keying already guarantees correctness — stale keys can
  /// never match again — so this is purely about SURVIVAL: an entry whose
  /// response provably cannot change under the edit is rekeyed in place to
  /// the new fingerprint (keeping its LRU position, and written through to
  /// the backing store so the survival persists), instead of becoming
  /// unreachable garbage that forces a re-solve.
  ///
  /// An entry survives iff every condition holds:
  ///   * its algorithm is deterministic and motif-local (sgb / ct-tbd /
  ///     ct-dbd / wt-tbd / wt-dbd — the randomized baselines consume RNG
  ///     draws whose alignment an edit can shift);
  ///   * it names explicit target links (sampled targets draw from the
  ///     edge set, which the edit changed);
  ///   * its candidate scope is the target-subgraph restriction (scope=all
  ///     ranges over every edge of the base, so any edit perturbs it);
  ///   * no target endpoint lies in `affected` — the sorted node set
  ///     within distance 1 of an edited edge ON THE PRE-EDIT GRAPH (the
  ///     delta-neighborhood rule: every motif instance an edit creates or
  ///     destroys anchors a target endpoint there, see
  ///     motif/index_repair.cc), so targets outside it keep their exact
  ///     instance sets and the solver replays byte-identically.
  /// Everything else under `old_fingerprint` is dropped and counted in
  /// `invalidated_by_edit`. Entries under other fingerprints are left
  /// untouched.
  EditOutcome InvalidateForEdit(uint64_t old_fingerprint,
                                uint64_t new_fingerprint,
                                std::span<const graph::NodeId> affected);

  /// Drops every entry (counters keep running). The backing store, if
  /// any, is untouched — its entries are still served on future misses.
  void Clear();

  /// Attaches (or with nullptr, detaches) a persistent second tier.
  /// Not owned; must outlive the cache or be detached first.
  void set_backing_store(store::WarmStore* backing) { backing_ = backing; }

 private:
  // Entries are immutable once inserted; shared_ptr ownership lets
  // Lookup hand the payload out of the critical section safely even if
  // the entry is evicted a moment later.
  using Entry = std::shared_ptr<const PlanResponse>;
  using LruList = std::list<std::pair<std::string, Entry>>;

  /// Insert's memory-tier half: memoize under `key` + LRU-evict, handing
  /// any displaced entry out through `evicted` so its (possibly large)
  /// payload is destroyed outside the lock. Shared by Insert and the
  /// backing-store refill path in Lookup. Requires mu_ held.
  void InsertInMemory(const std::string& key, Entry entry, Entry* evicted);

  mutable std::mutex mu_;
  size_t capacity_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t backing_hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t invalidated_by_edit_ = 0;
  uint64_t rekeyed_by_edit_ = 0;
  std::atomic<uint64_t> backing_write_failures_{0};  // bumped outside mu_
  store::WarmStore* backing_ = nullptr;  // not owned
};

}  // namespace tpp::service

#endif  // TPP_SERVICE_PLAN_CACHE_H_
