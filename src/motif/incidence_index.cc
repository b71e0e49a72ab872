#include "motif/incidence_index.h"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "common/check.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"

namespace tpp::motif {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;

namespace {

// Upper bound on the contiguous item blocks of BlockedStableScatter:
// each block keeps one uint32 cursor per digit, so the bound caps the
// transient memory at 8 x num_digits.
constexpr int kMaxScatterBlocks = 8;

// The one piece of counting-sort scaffolding every build pass shares: a
// stable blocked counting scatter. Items [0, n) each emit (digit, value)
// pairs through `for_each(i, sink)` (digit < num_digits); the returned
// vector holds every value grouped by digit, preserving emission order
// within equal digits. Blocks parallelize the count and scatter passes;
// the serial cursor transform between them makes the output independent
// of the block count — it is exactly the serial emission order. When
// `offsets` is non-null it receives the num_digits + 1 group boundaries
// (offsets[d] .. offsets[d+1] brackets digit d). Used with one pair per
// key for the LSD intern sort (O(K + NumNodes) per pass, no comparison
// sort — previously the hottest serial stretch after enumeration) and
// with arity pairs per instance to lay out the CSR-1 posting lists.
template <typename Value, typename ForEachPair>
std::vector<Value> BlockedStableScatter(size_t n, size_t num_digits,
                                        int workers, ThreadPool& pool,
                                        std::vector<uint32_t>* offsets,
                                        ForEachPair for_each) {
  if (offsets) offsets->assign(num_digits + 1, 0);
  if (n == 0) return {};
  const int num_blocks = static_cast<int>(std::min<size_t>(
      std::max(workers, 1),
      std::min<size_t>(kMaxScatterBlocks, n)));
  const size_t block_size =
      (n + static_cast<size_t>(num_blocks) - 1) /
      static_cast<size_t>(num_blocks);
  std::vector<std::vector<uint32_t>> block_counts(
      static_cast<size_t>(num_blocks),
      std::vector<uint32_t>(num_digits, 0));
  pool.ParallelFor(static_cast<size_t>(num_blocks), workers, /*grain=*/1,
                   [&](size_t bbegin, size_t bend) {
                     for (size_t b = bbegin; b < bend; ++b) {
                       std::vector<uint32_t>& counts = block_counts[b];
                       const size_t lo = b * block_size;
                       const size_t hi = std::min(lo + block_size, n);
                       for (size_t k = lo; k < hi; ++k) {
                         for_each(k, [&](uint32_t digit, const Value&) {
                           ++counts[digit];
                         });
                       }
                     }
                   });
  uint32_t running = 0;
  for (size_t d = 0; d < num_digits; ++d) {
    if (offsets) (*offsets)[d] = running;
    for (int b = 0; b < num_blocks; ++b) {
      const uint32_t count = block_counts[b][d];
      block_counts[b][d] = running;  // becomes block b's cursor for d
      running += count;
    }
  }
  if (offsets) (*offsets)[num_digits] = running;
  std::vector<Value> out(running);
  pool.ParallelFor(static_cast<size_t>(num_blocks), workers, /*grain=*/1,
                   [&](size_t bbegin, size_t bend) {
                     for (size_t b = bbegin; b < bend; ++b) {
                       std::vector<uint32_t>& cursor = block_counts[b];
                       const size_t lo = b * block_size;
                       const size_t hi = std::min(lo + block_size, n);
                       for (size_t k = lo; k < hi; ++k) {
                         for_each(k, [&](uint32_t digit, const Value& value) {
                           out[cursor[digit]++] = value;
                         });
                       }
                     }
                   });
  return out;
}

Status ValidateTargetsAbsent(const Graph& g,
                             const std::vector<Edge>& targets) {
  for (const Edge& target : targets) {
    if (g.HasEdge(target.u, target.v)) {
      return Status::FailedPrecondition(
          StrFormat("target (%u,%u) still present; run phase-1 deletion first",
                    target.u, target.v));
    }
  }
  return Status::Ok();
}

}  // namespace

Result<IncidenceIndex> IncidenceIndex::Build(
    const Graph& g, const std::vector<Edge>& targets, MotifKind kind) {
  return Build(g, targets, kind, BuildOptions{});
}

Result<IncidenceIndex> IncidenceIndex::Build(const Graph& g,
                                             const std::vector<Edge>& targets,
                                             MotifKind kind,
                                             const BuildOptions& options,
                                             BuildStats* stats) {
  TPP_RETURN_IF_ERROR(ValidateTargetsAbsent(g, targets));
  // In-build cancellation: polled here and between the stages below, so
  // a deadline that expires mid-construction stops at the next stage
  // boundary instead of paying for the whole build. Polls are pure reads
  // — a build that finishes in time is bit-identical with or without a
  // token armed.
  TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "index:build"));
  IncidenceIndex idx;
  const int workers =
      options.threads > 0 ? options.threads : GlobalThreadCount();
  ThreadPool& pool = GlobalThreadPool();
  WallTimer timer;

  // -- Stage 1: enumerate. Per-target tasks (hub targets split by
  // first-neighbor chunk) fan out over the shared pool; the merged array
  // is in the serial (target, emit) order at any thread count.
  size_t num_tasks = 0;
  idx.instances_ =
      EnumerateAllTargetSubgraphs(g, targets, kind, workers, &num_tasks);
  const size_t num_instances = idx.instances_.size();
  if (stats) {
    stats->enumerate_seconds = timer.Seconds();
    stats->tasks = num_tasks;
    stats->instances = num_instances;
  }

  TPP_RETURN_IF_ERROR(PollCancellation(options.cancel,
                                       "index:build:intern"));

  // -- Stage 2: intern participating edges. Every instance of one motif
  // kind has the same arity, so the flat key array is sized exactly and
  // filled with disjoint writes; a two-pass stable counting sort over the
  // node-id digits (larger endpoint, then smaller) plus unique assigns
  // ids in ascending key order in O(K + NumNodes) — no comparison sort.
  // The keyed query API and the CSR fill passes resolve ids through the
  // static flat probe table built from the sorted keys (see EdgeIdOf).
  timer.Restart();
  const size_t arity = MotifEdgeCount(kind);
  const TargetSubgraph* const instances = idx.instances_.data();
  std::vector<EdgeKey> flat_keys(num_instances * arity);
  pool.ParallelFor(num_instances, workers, /*grain=*/4096,
                   [&](size_t begin, size_t end) {
                     for (size_t i = begin; i < end; ++i) {
                       const TargetSubgraph& inst = instances[i];
                       for (size_t j = 0; j < arity; ++j) {
                         flat_keys[i * arity + j] = inst.edges[j];
                       }
                     }
                   });
  {
    std::vector<EdgeKey> by_v = BlockedStableScatter<EdgeKey>(
        flat_keys.size(), g.NumNodes(), workers, pool, nullptr,
        [&](size_t k, auto sink) {
          sink(graph::EdgeKeyV(flat_keys[k]), flat_keys[k]);
        });
    flat_keys = BlockedStableScatter<EdgeKey>(
        by_v.size(), g.NumNodes(), workers, pool, nullptr,
        [&](size_t k, auto sink) {
          sink(graph::EdgeKeyU(by_v[k]), by_v[k]);
        });
  }
  flat_keys.erase(std::unique(flat_keys.begin(), flat_keys.end()),
                  flat_keys.end());
  // Release the pre-dedup capacity (instances x arity keys) before the
  // buffer becomes a long-lived member — prototype indexes live for a
  // whole batch inside InstanceRepository.
  flat_keys.shrink_to_fit();
  idx.edge_keys_ = std::move(flat_keys);
  idx.BuildProbeTable();
  const size_t num_edges = idx.edge_keys_.size();
  if (stats) {
    stats->intern_seconds = timer.Seconds();
    stats->interned_edges = num_edges;
  }

  TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "index:build:csr"));

  // -- Stage 3: CSR layouts, each a parallel count pass, a serial prefix
  // sum, and a parallel fill pass into disjoint slots. The structures
  // under construction live in local vectors and move into the immutable
  // FlatArray members once finished.
  timer.Restart();

  // The bucket table EdgeIdOf resolves through: edge_keys_ is sorted by
  // (u, v), so all keys sharing a smaller endpoint form one short
  // contiguous run located by two array reads. Built here, kept for the
  // life of the index (it replaces the old hash-map interner).
  std::vector<uint32_t> u_offsets(g.NumNodes() + 1, 0);
  for (EdgeKey key : idx.edge_keys_) {
    ++u_offsets[graph::EdgeKeyU(key) + 1];
  }
  for (size_t u = 0; u < g.NumNodes(); ++u) {
    u_offsets[u + 1] += u_offsets[u];
  }
  idx.u_offsets_ = std::move(u_offsets);
  // The maintenance records densify instance -> (target, edge ids) for
  // the posting-list walks below and for DeleteEdge: compact sequential
  // reads instead of chasing 40-byte TargetSubgraphs.
  idx.arity_ = static_cast<uint8_t>(arity);
  std::vector<InstanceMaintenance> maint(num_instances);
  pool.ParallelFor(
      num_instances, workers, /*grain=*/2048, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          const TargetSubgraph& inst = instances[i];
          InstanceMaintenance& m = maint[i];
          m.target = static_cast<uint32_t>(inst.target);
          for (size_t j = 0; j < arity; ++j) {
            const EdgeKey key = inst.edges[j];
            m.edge_ids[j] = idx.EdgeIdOf(key);
          }
        }
      });

  // CSR 1 (edge -> instances): the same stable blocked scatter, emitting
  // arity (edge id, instance id) pairs per instance. Posting lists hold
  // ascending instance ids — exactly the serial fill order — at any
  // block count, and the scatter's group boundaries are the CSR offsets.
  std::vector<uint32_t> inst_offsets;
  std::vector<uint32_t> instance_ids = BlockedStableScatter<uint32_t>(
      num_instances, num_edges, workers, pool, &inst_offsets,
      [&](size_t i, auto sink) {
        for (size_t j = 0; j < arity; ++j) {
          sink(maint[i].edge_ids[j], static_cast<uint32_t>(i));
        }
      });

  // Alive-count cache: everything is alive at build time, so the count is
  // just the posting-list length.
  idx.alive_count_.resize(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    idx.alive_count_[e] = inst_offsets[e + 1] - inst_offsets[e];
  }

  // CSR 2 (edge -> per-target counts): instances are laid out in target
  // order and posting lists hold ascending instance ids, so each posting
  // list's target sequence is already ascending — a run-length encode
  // reproduces the serial sorted aggregation without any per-edge scratch.
  std::vector<uint32_t> tgt_offsets(num_edges + 1, 0);
  pool.ParallelFor(
      num_edges, workers, /*grain=*/2048, [&](size_t begin, size_t end) {
        for (size_t e = begin; e < end; ++e) {
          uint32_t runs = 0;
          uint32_t prev_target = 0;
          for (uint32_t p = inst_offsets[e]; p < inst_offsets[e + 1]; ++p) {
            const uint32_t target = maint[instance_ids[p]].target;
            if (runs == 0 || target != prev_target) {
              ++runs;
              prev_target = target;
            }
          }
          tgt_offsets[e + 1] = runs;
        }
      });
  for (size_t e = 0; e < num_edges; ++e) {
    tgt_offsets[e + 1] += tgt_offsets[e];
  }
  std::vector<uint32_t> tgt_ids(tgt_offsets.back());
  idx.tgt_counts_.resize(tgt_ids.size());
  pool.ParallelFor(
      num_edges, workers, /*grain=*/2048, [&](size_t begin, size_t end) {
        for (size_t e = begin; e < end; ++e) {
          uint32_t slot = tgt_offsets[e];
          for (uint32_t p = inst_offsets[e]; p < inst_offsets[e + 1]; ++p) {
            const uint32_t target = maint[instance_ids[p]].target;
            if (slot == tgt_offsets[e] || tgt_ids[slot - 1] != target) {
              tgt_ids[slot] = target;
              idx.tgt_counts_[slot] = 1;
              ++slot;
            } else {
              ++idx.tgt_counts_[slot - 1];
            }
          }
        }
      });

  // Slot table: the CSR-2 cell of (edge j of instance i, target of i),
  // found once here by binary search over the edge's ascending target
  // segment so DeleteEdge never scans it.
  pool.ParallelFor(
      num_instances, workers, /*grain=*/2048, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          InstanceMaintenance& m = maint[i];
          for (size_t j = 0; j < arity; ++j) {
            const uint32_t e = m.edge_ids[j];
            const uint32_t* seg_begin = tgt_ids.data() + tgt_offsets[e];
            const uint32_t* seg_end = tgt_ids.data() + tgt_offsets[e + 1];
            const uint32_t* it =
                std::lower_bound(seg_begin, seg_end, m.target);
            TPP_CHECK(it != seg_end && *it == m.target);
            m.slots[j] =
                static_cast<uint32_t>(tgt_offsets[e] + (it - seg_begin));
          }
        }
      });

  idx.inst_offsets_ = std::move(inst_offsets);
  idx.instance_ids_ = std::move(instance_ids);
  idx.tgt_offsets_ = std::move(tgt_offsets);
  idx.tgt_ids_ = std::move(tgt_ids);
  idx.maint_ = std::move(maint);
  idx.FinishAliveState(targets.size());
  idx.PopulateRepairCaches(targets);
  if (stats) stats->csr_seconds = timer.Seconds();
  return idx;
}

Result<IncidenceIndex> IncidenceIndex::BuildSerialReference(
    const Graph& g, const std::vector<Edge>& targets, MotifKind kind) {
  TPP_RETURN_IF_ERROR(ValidateTargetsAbsent(g, targets));
  IncidenceIndex idx;
  std::vector<TargetSubgraph> instances;
  for (size_t t = 0; t < targets.size(); ++t) {
    std::vector<TargetSubgraph> ts = EnumerateTargetSubgraphsReference(
        g, targets[t], kind, static_cast<int32_t>(t));
    for (TargetSubgraph& inst : ts) {
      instances.push_back(inst);
    }
  }

  // Intern participating edges in ascending key order so edge id order is
  // key order.
  std::vector<EdgeKey> edge_keys;
  for (const TargetSubgraph& inst : instances) {
    for (uint8_t j = 0; j < inst.num_edges; ++j) {
      edge_keys.push_back(inst.edges[j]);
    }
  }
  std::sort(edge_keys.begin(), edge_keys.end());
  edge_keys.erase(std::unique(edge_keys.begin(), edge_keys.end()),
                  edge_keys.end());
  edge_keys.shrink_to_fit();
  idx.edge_keys_ = std::move(edge_keys);
  // The old hash-map interner, kept local: the reference pays its
  // construction and per-occurrence lookups exactly as the pre-parallel
  // build did, then derives the bucket table the final layout carries.
  idx.BuildProbeTable();
  std::unordered_map<EdgeKey, uint32_t> edge_id;
  edge_id.reserve(idx.edge_keys_.size());
  for (uint32_t id = 0; id < idx.edge_keys_.size(); ++id) {
    edge_id.emplace(idx.edge_keys_[id], id);
  }
  const size_t num_edges = idx.edge_keys_.size();

  // CSR 1 (edge -> instances), counting pass then fill pass, resolving
  // ids through the hash map.
  std::vector<uint32_t> inst_offsets(num_edges + 1, 0);
  idx.arity_ = static_cast<uint8_t>(MotifEdgeCount(kind));
  std::vector<InstanceMaintenance> maint(instances.size());
  for (uint32_t i = 0; i < instances.size(); ++i) {
    const TargetSubgraph& inst = instances[i];
    maint[i].target = static_cast<uint32_t>(inst.target);
    for (uint8_t j = 0; j < inst.num_edges; ++j) {
      uint32_t e = edge_id.at(inst.edges[j]);
      maint[i].edge_ids[j] = e;
      ++inst_offsets[e + 1];
    }
  }
  for (size_t e = 0; e < num_edges; ++e) {
    inst_offsets[e + 1] += inst_offsets[e];
  }
  std::vector<uint32_t> instance_ids(inst_offsets.back());
  {
    std::vector<uint32_t> cursor(inst_offsets.begin(),
                                 inst_offsets.end() - 1);
    for (uint32_t i = 0; i < instances.size(); ++i) {
      const TargetSubgraph& inst = instances[i];
      for (uint8_t j = 0; j < inst.num_edges; ++j) {
        instance_ids[cursor[maint[i].edge_ids[j]]++] = i;
      }
    }
  }

  // Alive-count cache: everything is alive at build time, so the count is
  // just the posting-list length.
  idx.alive_count_.resize(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    idx.alive_count_[e] = inst_offsets[e + 1] - inst_offsets[e];
  }

  // CSR 2 (edge -> per-target counts): aggregate each posting list into
  // (target, count) pairs, kept in ascending target order.
  std::vector<uint32_t> tgt_offsets(num_edges + 1, 0);
  std::vector<uint32_t> tgt_ids;
  std::vector<uint32_t> tgts;  // scratch per edge
  for (size_t e = 0; e < num_edges; ++e) {
    tgts.clear();
    for (uint32_t p = inst_offsets[e]; p < inst_offsets[e + 1]; ++p) {
      tgts.push_back(
          static_cast<uint32_t>(instances[instance_ids[p]].target));
    }
    std::sort(tgts.begin(), tgts.end());
    for (size_t k = 0; k < tgts.size(); ++k) {
      if (k > 0 && tgts[k] == tgts[k - 1]) {
        ++idx.tgt_counts_.back();
      } else {
        tgt_ids.push_back(tgts[k]);
        idx.tgt_counts_.push_back(1);
      }
    }
    tgt_offsets[e + 1] = static_cast<uint32_t>(tgt_ids.size());
  }

  // Slot table (the serial form of the parallel build's last pass).
  for (uint32_t i = 0; i < instances.size(); ++i) {
    InstanceMaintenance& m = maint[i];
    for (uint8_t j = 0; j < instances[i].num_edges; ++j) {
      const uint32_t e = m.edge_ids[j];
      uint32_t slot = tgt_offsets[e];
      while (tgt_ids[slot] != m.target) ++slot;
      m.slots[j] = slot;
    }
  }

  // Bucket table for the keyed query API (see EdgeIdOf).
  std::vector<uint32_t> u_offsets(g.NumNodes() + 1, 0);
  for (EdgeKey key : idx.edge_keys_) {
    ++u_offsets[graph::EdgeKeyU(key) + 1];
  }
  for (size_t u = 0; u < g.NumNodes(); ++u) {
    u_offsets[u + 1] += u_offsets[u];
  }

  idx.instances_ = std::move(instances);
  idx.inst_offsets_ = std::move(inst_offsets);
  idx.instance_ids_ = std::move(instance_ids);
  idx.tgt_offsets_ = std::move(tgt_offsets);
  idx.tgt_ids_ = std::move(tgt_ids);
  idx.maint_ = std::move(maint);
  idx.u_offsets_ = std::move(u_offsets);
  idx.FinishAliveState(targets.size());
  idx.PopulateRepairCaches(targets);
  return idx;
}

void IncidenceIndex::FinishAliveState(size_t num_targets) {
  alive_.assign(instances_.size(), 1);
  total_alive_ = instances_.size();
  alive_per_target_.assign(num_targets, 0);
  for (const TargetSubgraph& inst : instances_) {
    ++alive_per_target_[inst.target];
  }
  // Counted from the (already populated) per-edge cache rather than
  // assumed to be every interned key: a repaired index keeps zero-alive
  // keys interned (the universe only grows across edits, see
  // index_repair.cc), and snapshots of repaired indexes restore through
  // this same tail. On a cold build the two are equal.
  alive_edges_ = 0;
  for (uint32_t c : alive_count_) alive_edges_ += (c > 0 ? 1u : 0u);
  // Sized here so the deferral queues never allocate — including on fresh
  // copies of the index, whose vector copies keep this size. resize, not
  // assign: entries beyond [0, pending) are never read, and after a
  // same-universe repair this is a no-op instead of a full rewrite.
  counts_queue_.resize(edge_keys_.size());
  cells_queue_.resize(edge_keys_.size());
  counts_pending_ = 0;
  cells_pending_ = 0;
}

void IncidenceIndex::PopulateRepairCaches(const std::vector<Edge>& targets) {
  target_keys_sorted_.clear();
  target_keys_sorted_.reserve(targets.size());
  for (const Edge& t : targets) {
    target_keys_sorted_.push_back(graph::MakeEdgeKey(t.u, t.v));
  }
  std::sort(target_keys_sorted_.begin(), target_keys_sorted_.end());
  const size_t n = u_offsets_.size() == 0 ? 0 : u_offsets_.size() - 1;
  node_tgt_off_.assign(n + 1, 0);
  for (const Edge& t : targets) {
    ++node_tgt_off_[t.u + 1];
    ++node_tgt_off_[t.v + 1];
  }
  for (size_t x = 0; x < n; ++x) node_tgt_off_[x + 1] += node_tgt_off_[x];
  node_tgt_.assign(node_tgt_off_.back(), 0);
  std::vector<uint32_t> cursor(node_tgt_off_.begin(), node_tgt_off_.end() - 1);
  for (size_t t = 0; t < targets.size(); ++t) {
    node_tgt_[cursor[targets[t].u]++] = static_cast<uint32_t>(t);
    node_tgt_[cursor[targets[t].v]++] = static_cast<uint32_t>(t);
  }
}

void IncidenceIndex::BuildProbeTable() {
  // The static probe table of EdgeIdOf: power-of-two capacity at <= 50%
  // load (minimum 16 so lookups on an empty index terminate on an empty
  // slot), keys inserted in ascending id order with linear probing —
  // fully determined by edge_keys_. Built immediately after interning:
  // the CSR fill passes already resolve ids through it.
  size_t capacity = 16;
  while (capacity < edge_keys_.size() * 2) capacity <<= 1;
  probe_mask_ = capacity - 1;
  probe_shift_ = 64 - std::countr_zero(capacity);
  std::vector<EdgeKey> keys(capacity, 0);
  std::vector<uint32_t> ids(capacity, 0);
  for (uint32_t id = 0; id < edge_keys_.size(); ++id) {
    const EdgeKey key = edge_keys_[id];
    uint64_t slot = (key * 0x9E3779B97F4A7C15ull) >> probe_shift_;
    while (keys[slot] != 0) slot = (slot + 1) & probe_mask_;
    keys[slot] = key;
    ids[slot] = id;
  }
  probe_keys_ = std::move(keys);
  probe_ids_ = std::move(ids);
}

size_t IncidenceIndex::DeleteEdge(EdgeKey e) {
  const uint32_t id = EdgeIdOf(e);
  if (id == kNoEdge) return 0;
  // Start the posting-list metadata load before the liveness check below
  // resolves: when the edge is alive both lines are needed, and the check
  // stalls on its own cache line either way.
  __builtin_prefetch(&inst_offsets_[id]);
  // Counts only decrease, so a cached zero is definitely dead even with
  // maintenance queued; a stale positive just means the walk below finds
  // nothing alive and kills zero.
  if (alive_count_[id] == 0) return 0;
  // Kill marks only: every alive instance through `id` flips to state 2
  // (dead, all maintenance queued). No count array, maintenance record,
  // or CSR-2 cell is touched here — the flushes replay this edge's
  // posting list later, once per granularity.
  const uint32_t pend = inst_offsets_[id + 1];
  const uint32_t* const inst_ids = instance_ids_.data();
  uint8_t* const alive = alive_.data();
  size_t killed = 0;
  for (uint32_t p = inst_offsets_[id]; p < pend; ++p) {
    const uint32_t i = inst_ids[p];
    if (alive[i] != 1) continue;
    alive[i] = 2;
    ++killed;
  }
  if (killed == 0) return 0;  // stale positive count: nothing was alive
  total_alive_ -= killed;  // eager: similarity traces read without flush
  // The only delete that can kill instances through `id` is this one
  // (everything through it is dead now), so the queue sees each id at
  // most once and its fixed capacity of NumInternedEdges() is exact.
  counts_queue_[counts_pending_++] = id;
  return killed;
}

size_t IncidenceIndex::DeleteEdge(EdgeKey e, std::vector<uint32_t>* dirty) {
  TPP_CHECK(dirty != nullptr);
  const size_t killed = DeleteEdge(e);
  FlushDeferredCounts(dirty);
  return killed;
}

template <int kArity, bool kDirty>
void IncidenceIndex::FlushCountsImpl(std::vector<uint32_t>* dirty) {
  const uint32_t* const inst_ids = instance_ids_.data();
  const InstanceMaintenance* const maint = maint_.data();
  uint8_t* const alive = alive_.data();
  uint32_t* const alive_count = alive_count_.data();
  size_t* const per_target = alive_per_target_.data();
  [[maybe_unused]] uint32_t* const stamp = dirty_stamp_.data();
  [[maybe_unused]] const uint32_t epoch = dirty_epoch_;
  size_t died_edges = 0;
  for (size_t k = 0; k < counts_pending_; ++k) {
    const uint32_t id = counts_queue_[k];
    for (uint32_t p = inst_offsets_[id]; p < inst_offsets_[id + 1]; ++p) {
      const uint32_t i = inst_ids[p];
      if (alive[i] != 2) continue;  // alive, or counts already applied
      alive[i] = 3;  // counts applied below; cell upkeep still queued
      const InstanceMaintenance& m = maint[i];
      --per_target[m.target];
      // Every edge of the killed instance loses one alive instance — the
      // queued edge itself included: all its alive instances die across
      // the queued walks, so its count reaches exactly zero with no
      // special case.
      for (int j = 0; j < kArity; ++j) {
        const uint32_t sib = m.edge_ids[j];
        if (--alive_count[sib] == 0) ++died_edges;
        if constexpr (kDirty) {
          if (stamp[sib] != epoch) {
            stamp[sib] = epoch;
            dirty->push_back(sib);
          }
        }
      }
    }
    cells_queue_[cells_pending_++] = id;
  }
  alive_edges_ -= died_edges;
  counts_pending_ = 0;
}

void IncidenceIndex::FlushDeferredCounts(std::vector<uint32_t>* dirty) {
  if (counts_pending_ == 0) return;
  ++counts_flush_epoch_;
  if (dirty != nullptr) {
    // Fresh stamp epoch so earlier emissions do not suppress this one.
    if (dirty_stamp_.size() < alive_count_.size()) {
      dirty_stamp_.assign(alive_count_.size(), 0);
      dirty_epoch_ = 0;
    }
    ++dirty_epoch_;
    switch (arity_) {
      case 2:
        FlushCountsImpl<2, true>(dirty);
        return;
      case 3:
        FlushCountsImpl<3, true>(dirty);
        return;
      default:
        FlushCountsImpl<4, true>(dirty);
        return;
    }
  }
  switch (arity_) {
    case 2:
      FlushCountsImpl<2, false>(nullptr);
      return;
    case 3:
      FlushCountsImpl<3, false>(nullptr);
      return;
    default:
      FlushCountsImpl<4, false>(nullptr);
      return;
  }
}

void IncidenceIndex::FlushDeferredMaintenance() {
  FlushDeferredCounts();
  if (cells_pending_ == 0) return;
  uint32_t* const tgt_counts = tgt_counts_.data();
  const InstanceMaintenance* const maint = maint_.data();
  const uint32_t* const inst_ids = instance_ids_.data();
  uint8_t* const alive = alive_.data();
  const int arity = arity_;
  // Pass 1: every queued (deleted) edge's segment collapses to zero
  // wholesale — the edge is dead, so all its per-target counts are zero
  // by definition, and zeroing first lets the guard below absorb the
  // decrements its kills would have applied to it.
  for (size_t k = 0; k < cells_pending_; ++k) {
    const uint32_t id = cells_queue_[k];
    for (uint32_t q = tgt_offsets_[id]; q < tgt_offsets_[id + 1]; ++q) {
      tgt_counts[q] = 0;
    }
  }
  // Pass 2: walk each queued edge's posting list and apply the queued
  // kills (state 3).
  for (size_t k = 0; k < cells_pending_; ++k) {
    const uint32_t id = cells_queue_[k];
    for (uint32_t p = inst_offsets_[id]; p < inst_offsets_[id + 1]; ++p) {
      const uint32_t i = inst_ids[p];
      if (alive[i] != 3) continue;  // alive, or already fully flushed
      alive[i] = 0;
      const InstanceMaintenance& m = maint[i];
      for (int j = 0; j < arity; ++j) {
        // The cell > 0 guard absorbs decrements against wholesale-zeroed
        // (deleted) edges — including this instance's killer — see the
        // queue comment in the header.
        uint32_t& cell = tgt_counts[m.slots[j]];
        if (cell > 0) --cell;
      }
    }
  }
  cells_pending_ = 0;
}

void IncidenceIndex::AccumulateGains(EdgeKey e, std::vector<size_t>* out) {
  AccumulateGains(e, std::span<size_t>(*out));
}

void IncidenceIndex::AccumulateGains(EdgeKey e, std::span<size_t> out) {
  FlushDeferredMaintenance();
  const uint32_t id = EdgeIdOf(e);
  if (id == kNoEdge) return;
  for (uint32_t p = tgt_offsets_[id]; p < tgt_offsets_[id + 1]; ++p) {
    out[tgt_ids_[p]] += tgt_counts_[p];
  }
}

void IncidenceIndex::ReadGainRows(uint32_t first, size_t count, size_t stride,
                                  uint32_t* out) const {
  const size_t num_targets = alive_per_target_.size();
  // One running cursor covers the run's whole contiguous cell range
  // [tgt_offsets_[first], tgt_offsets_[first + count]); the offsets array
  // is only read once per row to find each row's end.
  uint32_t p = tgt_offsets_[first];
  for (size_t k = 0; k < count; ++k) {
    uint32_t* const row = out + k * stride;
    std::fill(row, row + num_targets, 0u);
    const uint32_t end = tgt_offsets_[first + k + 1];
    for (; p < end; ++p) row[tgt_ids_[p]] = tgt_counts_[p];
  }
}

std::vector<EdgeKey> IncidenceIndex::AliveCandidateEdges() {
  std::vector<EdgeKey> out;
  AliveCandidateEdgesInto(&out);
  return out;
}

void IncidenceIndex::AliveCandidateEdgesInto(std::vector<EdgeKey>* out) {
  FlushDeferredCounts();
  out->clear();
  out->reserve(alive_edges_);
  for (size_t e = 0; e < alive_count_.size(); ++e) {
    if (alive_count_[e] > 0) out->push_back(edge_keys_[e]);
  }
}

bool IncidenceIndex::BitIdentical(const IncidenceIndex& other) const {
  // Deferred maintenance is compared by EFFECT: a side with queued work
  // is replaced by a flushed value copy, then every structure compares
  // raw. Freshly built or already-flushed indexes — the common case in
  // the build benches — pay no copy at all.
  if (HasDeferredMaintenance()) {
    IncidenceIndex flushed = *this;
    flushed.FlushDeferredMaintenance();
    return flushed.BitIdentical(other);
  }
  if (other.HasDeferredMaintenance()) {
    IncidenceIndex flushed = other;
    flushed.FlushDeferredMaintenance();
    return BitIdentical(flushed);
  }
  const IncidenceIndex& a = *this;
  const IncidenceIndex& b = other;
  return a.instances_ == b.instances_ && a.alive_ == b.alive_ &&
         a.alive_per_target_ == b.alive_per_target_ &&
         a.total_alive_ == b.total_alive_ &&
         a.edge_keys_ == b.edge_keys_ &&
         a.u_offsets_ == b.u_offsets_ &&
         a.inst_offsets_ == b.inst_offsets_ &&
         a.instance_ids_ == b.instance_ids_ &&
         a.alive_count_ == b.alive_count_ &&
         a.alive_edges_ == b.alive_edges_ &&
         a.tgt_offsets_ == b.tgt_offsets_ && a.tgt_ids_ == b.tgt_ids_ &&
         a.tgt_counts_ == b.tgt_counts_ &&
         a.arity_ == b.arity_ && a.maint_ == b.maint_;
}

}  // namespace tpp::motif
