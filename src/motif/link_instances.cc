#include "motif/link_instances.h"

#include <algorithm>
#include <bit>

#include "motif/enumerate.h"

namespace tpp::motif {

using graph::Edge;
using graph::EdgeKey;

namespace {

// Charged per cached list on top of its keys: the map node holding the
// List record, its bucket slot and the allocator's header.
constexpr size_t kEntryOverheadBytes = 96;

uint64_t OrientedLinkKey(const Edge& e) {
  return (static_cast<uint64_t>(e.u) << 32) | e.v;
}

// The filter's membership test over the target keys: open addressing at
// <= 25% load with a multiply-shift hash, so a non-target key (nearly
// every probe) usually costs one multiply and one empty-slot read. Key 0
// marks an empty slot (no valid key is 0: u < v implies v >= 1).
class TargetKeySet {
 public:
  explicit TargetKeySet(const std::vector<Edge>& targets) {
    size_t capacity = 16;
    while (capacity < targets.size() * 4) capacity <<= 1;
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    keys_.assign(capacity, 0);
    for (const Edge& t : targets) {
      const EdgeKey key = t.Key();
      uint64_t slot = Slot(key);
      while (keys_[slot] != 0 && keys_[slot] != key) {
        slot = (slot + 1) & mask_;
      }
      keys_[slot] = key;
    }
  }

  bool Contains(EdgeKey key) const {
    for (uint64_t slot = Slot(key);; slot = (slot + 1) & mask_) {
      if (keys_[slot] == key) return true;
      if (keys_[slot] == 0) return false;
    }
  }

 private:
  uint64_t Slot(EdgeKey key) const {
    return (key * 0x9E3779B97F4A7C15ull) >> shift_;
  }

  std::vector<EdgeKey> keys_;
  uint64_t mask_ = 0;
  int shift_ = 60;
};

}  // namespace

std::vector<TargetSubgraph> LinkInstanceCache::Collect(
    const graph::Graph& base, const std::vector<Edge>& targets,
    MotifKind kind, int threads, size_t* num_tasks) {
  if (num_tasks) *num_tasks = 0;
  const size_t arity = MotifEdgeCount(kind);
  std::unordered_map<uint64_t, List>& map =
      lists_[static_cast<size_t>(kind)];

  // Probe every target under one lock acquisition.
  std::vector<List> lists(targets.size());
  std::vector<Edge> missing;
  std::vector<size_t> missing_at;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t t = 0; t < targets.size(); ++t) {
      auto it = map.find(OrientedLinkKey(targets[t]));
      if (it != map.end()) {
        lists[t] = it->second;
      } else {
        missing.push_back(targets[t]);
        missing_at.push_back(t);
      }
    }
  }
  hits_.fetch_add(targets.size() - missing.size(), std::memory_order_relaxed);
  misses_.fetch_add(missing.size(), std::memory_order_relaxed);

  if (!missing.empty()) {
    // One sweep over every miss; its output is in (miss, emit) order, so
    // each miss's list is one contiguous run.
    const int workers =
        EstimateEnumerationWork(base, missing, kind) >=
                kMinParallelEnumerationWork
            ? threads
            : 1;
    const std::vector<TargetSubgraph> fresh =
        EnumerateAllTargetSubgraphs(base, missing, kind, workers, num_tasks);
    // One block holds every miss's list. A block is published whole or
    // not at all, and charged whole (keys plus per-list overhead), so
    // bytes_ bounds the key memory the cache keeps alive even when a
    // concurrent build published some of the same links first. A block
    // above the cap serves this build only.
    auto block = std::make_shared<std::vector<EdgeKey>>(fresh.size() * arity);
    EdgeKey* keys = block->data();
    for (size_t k = 0; k < fresh.size(); ++k) {
      std::copy(fresh[k].edges.begin(), fresh[k].edges.begin() + arity,
                keys + k * arity);
    }
    size_t k = 0;
    for (size_t m = 0; m < missing.size(); ++m) {
      const size_t begin = k;
      while (k < fresh.size() && fresh[k].target == static_cast<int32_t>(m)) {
        ++k;
      }
      lists[missing_at[m]] = {block, keys + begin * arity, (k - begin) * arity};
    }
    const size_t block_bytes = block->size() * sizeof(EdgeKey) +
                               missing.size() * kEntryOverheadBytes;
    if (block_bytes <= kMaxBytes) {
      std::lock_guard<std::mutex> lock(mu_);
      if (bytes_ + block_bytes > kMaxBytes) {
        for (auto& kind_map : lists_) kind_map.clear();
        bytes_ = 0;
      }
      for (size_t m = 0; m < missing.size(); ++m) {
        // A concurrent Collect may have published the same link meanwhile;
        // its list is identical, so the first one stays.
        map.try_emplace(OrientedLinkKey(missing[m]), lists[missing_at[m]]);
      }
      bytes_ += block_bytes;
    }
  }

  // Filter: keep the base instances that use no target link. A flag pass
  // sizes the result exactly (it becomes a long-lived index member), then
  // a copy pass labels the survivors with their target index.
  const TargetKeySet target_keys(targets);
  size_t candidates = 0;
  for (const List& list : lists) candidates += list.size / arity;
  std::vector<uint8_t> keep(candidates);
  size_t kept = 0;
  size_t c = 0;
  for (const List& list : lists) {
    for (size_t off = 0; off < list.size; off += arity, ++c) {
      bool survives = true;
      for (size_t j = 0; j < arity; ++j) {
        if (target_keys.Contains(list.keys[off + j])) {
          survives = false;
          break;
        }
      }
      keep[c] = survives ? 1 : 0;
      kept += survives ? 1 : 0;
    }
  }
  std::vector<TargetSubgraph> out(kept);
  size_t next = 0;
  c = 0;
  for (size_t t = 0; t < lists.size(); ++t) {
    const EdgeKey* keys = lists[t].keys;
    for (size_t off = 0; off < lists[t].size; off += arity, ++c) {
      if (!keep[c]) continue;
      TargetSubgraph& inst = out[next++];
      inst.target = static_cast<int32_t>(t);
      inst.num_edges = static_cast<uint8_t>(arity);
      std::copy(keys + off, keys + off + arity, inst.edges.begin());
    }
  }
  return out;
}

void LinkInstanceCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& kind_map : lists_) kind_map.clear();
  bytes_ = 0;
}

size_t LinkInstanceCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

}  // namespace tpp::motif
