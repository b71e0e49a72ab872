// LinkInstanceCache: per-(link, motif) base-graph motif instances, the
// part of an index build that does not depend on the rest of the target
// set.
//
// All four motifs are simple paths between a target's endpoints that never
// use the target link itself (motif/motif.h). The released graph G - T
// only lacks edges of G, and the enumerators walk sorted neighbor lists,
// so deleting an edge drops loop iterations without reordering the rest.
// Hence target t's instances on G - T are exactly its instances on G that
// contain no key of T, in the same emit order, and
//
//   EnumerateAllTargetSubgraphs(G - T, T, kind)
//     == concat over t in T of { base instances of t with no key in T }
//
// in the serial (target, emit) order. A target's base list depends only on
// (G, oriented link, kind), so it is enumerated once and reused by every
// target set naming the link; a build then pays a filter over cached keys
// instead of an enumeration (tests/link_instance_cache_test.cc holds the
// identity against the serial reference build).
//
// Lists are immutable once published and shared by pointer, so a Clear or
// cap-driven eviction never invalidates a list a concurrent build is
// reading. The cache is bounded by kMaxBytes: an insert that would pass
// the bound clears the cache first, and a build whose misses alone pass
// it caches nothing. It is valid for one base graph: the owner clears it
// whenever the base changes (InstanceRepository::ApplyEdit).

#ifndef TPP_MOTIF_LINK_INSTANCES_H_
#define TPP_MOTIF_LINK_INSTANCES_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::motif {

class LinkInstanceCache {
 public:
  /// Byte bound on the cached lists (keys plus per-entry overhead).
  static constexpr size_t kMaxBytes = size_t{64} << 20;

  LinkInstanceCache() = default;
  LinkInstanceCache(const LinkInstanceCache&) = delete;
  LinkInstanceCache& operator=(const LinkInstanceCache&) = delete;

  /// The instances of `targets` on `base` minus the targets — exactly
  /// EnumerateAllTargetSubgraphs(released, targets, kind) — assembled
  /// from the cached base lists. Misses are enumerated on `base` in one
  /// task-parallel sweep (`threads` workers; the sweep stays on the
  /// calling thread below kMinParallelEnumerationWork) and published.
  /// `num_tasks` receives the enumeration tasks the misses needed.
  /// Thread-safe; the result does not depend on `threads` or on the
  /// cache state.
  std::vector<TargetSubgraph> Collect(const graph::Graph& base,
                                      const std::vector<graph::Edge>& targets,
                                      MotifKind kind, int threads,
                                      size_t* num_tasks = nullptr);

  /// Drops every list. Lists already handed to a running Collect stay
  /// alive until it returns.
  void Clear();

  /// Target lists served from the cache (cumulative).
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }

  /// Target lists enumerated on a miss (cumulative).
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }

  /// Bytes charged to the cached lists (keys plus per-list overhead):
  /// at most kMaxBytes, and at least the key memory the cache keeps
  /// alive.
  size_t bytes() const;

 private:
  // A base list: `size` keys at `keys`, arity sorted edge keys per
  // instance in emit order. The keys live in `block`, one immutable array
  // holding every list a Collect enumerated, so the misses of one build
  // share one key allocation and are published, charged and freed
  // together.
  struct List {
    std::shared_ptr<const std::vector<graph::EdgeKey>> block;
    const graph::EdgeKey* keys = nullptr;
    size_t size = 0;
  };

  mutable std::mutex mu_;
  // One map per motif kind, keyed by the ORIENTED link (u << 32 | v):
  // enumeration walks N(u) first, so (u, v) and (v, u) emit in different
  // orders and are distinct lists.
  std::array<std::unordered_map<uint64_t, List>, 4> lists_;  // guarded
  size_t bytes_ = 0;                                         // guarded
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> misses_{0};
};

}  // namespace tpp::motif

#endif  // TPP_MOTIF_LINK_INSTANCES_H_
