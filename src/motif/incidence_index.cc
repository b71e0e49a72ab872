#include "motif/incidence_index.h"

#include <algorithm>
#include <bit>

#include "common/check.h"
#include "common/flags.h"
#include "common/timer.h"
#include "motif/link_instances.h"

namespace tpp::motif {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;

namespace {

// Bits per intern-sort digit. Each pass of the sort clears and scans at
// most 2^11 counters (8 KB, resident in L1), whatever the node count; a
// graph under 2^11 nodes (the Arenas-like fixture) sorts in one pass per
// endpoint, one under 2^22 (the 10^5- and 10^6-node Holme-Kim fixtures)
// in two.
constexpr int kInternDigitBits = 11;

// One pass of the LSD intern sort: a stable counting scatter of `keys`
// by their `width`-bit digit at bit `shift`.
std::vector<EdgeKey> StableDigitScatter(const std::vector<EdgeKey>& keys,
                                        int shift, int width) {
  const EdgeKey mask = (EdgeKey{1} << width) - 1;
  std::vector<uint32_t> cursor((size_t{1} << width) + 1, 0);
  for (EdgeKey key : keys) ++cursor[((key >> shift) & mask) + 1];
  for (size_t d = 1; d < cursor.size(); ++d) cursor[d] += cursor[d - 1];
  std::vector<EdgeKey> out(keys.size());
  for (EdgeKey key : keys) out[cursor[(key >> shift) & mask]++] = key;
  return out;
}

}  // namespace

Result<IncidenceIndex> IncidenceIndex::BuildCached(
    const Graph& g, const std::vector<Edge>& targets, MotifKind kind,
    LinkInstanceCache& cache, const BuildOptions& options, BuildStats* stats) {
  // In-build cancellation: polled here and between the stages below, so
  // a deadline that expires mid-construction stops at the next stage
  // boundary instead of paying for the whole build. Polls are pure reads
  // — a build that finishes in time is bit-identical with or without a
  // token armed.
  TPP_RETURN_IF_ERROR(PollCancellation(options.cancel, "index:build"));
  IncidenceIndex idx;
  const int threads =
      options.threads > 0 ? options.threads : GlobalThreadCount();
  WallTimer timer;

  // -- Stage 1: collect the instances in the serial (target, emit) order,
  // whatever the thread count: each target's per-link list on `g` minus
  // the instances using a target link. The only stage that fans out, and
  // only for the links the cache misses.
  size_t num_tasks = 0;
  idx.instances_ = cache.Collect(g, targets, kind, threads, &num_tasks);
  const size_t num_instances = idx.instances_.size();
  if (stats) {
    stats->enumerate_seconds = timer.Seconds();
    stats->tasks = num_tasks;
    stats->instances = num_instances;
  }

  TPP_RETURN_IF_ERROR(PollCancellation(options.cancel,
                                       "index:build:intern"));

  // -- Stage 2: intern participating edges. Every instance of one motif
  // kind has the same arity, so the flat key array is sized exactly. An
  // LSD radix sort over the keys' significant bits — kInternDigitBits-wide
  // digits of the larger endpoint v, then of the smaller endpoint u, each
  // pass a stable counting scatter — plus unique assigns ids in ascending
  // key order. The pass count follows bit_width(NumNodes - 1) and each
  // pass counts into at most 2^kInternDigitBits counters, so the stage is
  // O(K) per pass with nothing sized by the node count. The keyed query
  // API and the CSR fill passes resolve ids through the static flat probe
  // table built from the sorted keys (see EdgeIdOf).
  timer.Restart();
  const size_t arity = MotifEdgeCount(kind);
  const TargetSubgraph* const instances = idx.instances_.data();
  std::vector<EdgeKey> flat_keys(num_instances * arity);
  for (size_t i = 0; i < num_instances; ++i) {
    for (size_t j = 0; j < arity; ++j) {
      flat_keys[i * arity + j] = instances[i].edges[j];
    }
  }
  const int node_bits =
      std::bit_width(std::max<size_t>(g.NumNodes(), 1) - 1);
  for (int endpoint_shift : {0, 32}) {  // v is the key's low half
    for (int bit = 0; bit < node_bits; bit += kInternDigitBits) {
      const int width = std::min(kInternDigitBits, node_bits - bit);
      flat_keys = StableDigitScatter(flat_keys, endpoint_shift + bit, width);
    }
  }
  flat_keys.erase(std::unique(flat_keys.begin(), flat_keys.end()),
                  flat_keys.end());
  // Release the pre-dedup capacity (instances x arity keys) before the
  // buffer becomes a long-lived member — built indexes live for a
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

  // -- Stage 3: CSR layouts, from one count pass, a prefix sum, and one
  // scatter. The structures under construction live in local vectors and
  // move into the immutable FlatArray members once finished.
  timer.Restart();

  idx.num_nodes_ = g.NumNodes();
  // The maintenance records densify instance -> (target, edge ids) for
  // the CSR passes below and for DeleteEdge: compact sequential reads
  // instead of chasing 40-byte TargetSubgraphs.
  //
  // Both CSR layouts then come from one count and one scatter over the
  // instances in order. Instances are laid out in target order, so edge e
  // meets its instances in ascending id, hence ascending target: CSR 1
  // (edge -> instances) holds ascending instance ids, and CSR 2 (edge ->
  // per-target counts) is the run-length encoding of each posting list's
  // targets, one cell per run. That reproduces the serial sorted
  // aggregation without any per-edge sort. The count, folded into the
  // records' fill, sizes both; the scatter fills both and writes the
  // slot table in instance order: the CSR-2 cell of (edge j of instance
  // i, target of i) is the cell the scatter just counted i into.
  idx.arity_ = static_cast<uint8_t>(arity);
  std::vector<InstanceMaintenance> maint(num_instances);
  std::vector<uint32_t> inst_offsets(num_edges + 1, 0);
  std::vector<uint32_t> tgt_offsets(num_edges + 1, 0);
  // Per edge, the target of the last instance seen (no target is ~0u).
  std::vector<uint32_t> last_target(num_edges, ~0u);
  for (size_t i = 0; i < num_instances; ++i) {
    InstanceMaintenance& m = maint[i];
    m.target = static_cast<uint32_t>(instances[i].target);
    for (size_t j = 0; j < arity; ++j) {
      const uint32_t e = idx.EdgeIdOf(instances[i].edges[j]);
      m.edge_ids[j] = e;
      ++inst_offsets[e + 1];
      tgt_offsets[e + 1] += last_target[e] != m.target;
      last_target[e] = m.target;
    }
  }
  for (size_t e = 0; e < num_edges; ++e) {
    inst_offsets[e + 1] += inst_offsets[e];
    tgt_offsets[e + 1] += tgt_offsets[e];
  }
  std::vector<uint32_t> instance_ids(inst_offsets[num_edges]);
  std::vector<uint32_t> tgt_ids(tgt_offsets[num_edges]);
  idx.tgt_counts_.assign(tgt_ids.size(), 0);
  {
    // Per edge: its next posting, its current cell (one before its first
    // until an instance opens one) and that cell's target.
    struct Cursor {
      uint32_t posting;
      uint32_t cell;
      uint32_t target;
    };
    std::vector<Cursor> cursor(num_edges);
    for (size_t e = 0; e < num_edges; ++e) {
      cursor[e] = {inst_offsets[e], tgt_offsets[e] - 1, ~0u};
    }
    for (size_t i = 0; i < num_instances; ++i) {
      InstanceMaintenance& m = maint[i];
      for (size_t j = 0; j < arity; ++j) {
        Cursor& c = cursor[m.edge_ids[j]];
        instance_ids[c.posting++] = static_cast<uint32_t>(i);
        c.cell += c.target != m.target;
        c.target = m.target;
        tgt_ids[c.cell] = m.target;
        ++idx.tgt_counts_[c.cell];
        m.slots[j] = c.cell;
      }
    }
  }

  // Alive-count cache: everything is alive at build time, so the count is
  // just the posting-list length.
  idx.alive_count_.resize(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    idx.alive_count_[e] = inst_offsets[e + 1] - inst_offsets[e];
  }

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
  std::vector<graph::EdgeKey> keys;
  keys.reserve(targets.size());
  std::vector<uint64_t> node_targets;
  node_targets.reserve(2 * targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    keys.push_back(graph::MakeEdgeKey(targets[t].u, targets[t].v));
    node_targets.push_back(uint64_t{targets[t].u} << 32 | t);
    node_targets.push_back(uint64_t{targets[t].v} << 32 | t);
  }
  std::sort(keys.begin(), keys.end());
  std::sort(node_targets.begin(), node_targets.end());
  target_keys_sorted_ = std::move(keys);
  node_targets_ = std::move(node_targets);
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

size_t IncidenceIndex::MemoryBytes() const {
  auto bytes = [](const auto& array) {
    return array.size() * sizeof(array[0]);
  };
  return bytes(instances_) + bytes(alive_) + bytes(alive_per_target_) +
         bytes(edge_keys_) + bytes(probe_keys_) +
         bytes(probe_ids_) + bytes(inst_offsets_) + bytes(instance_ids_) +
         bytes(alive_count_) + bytes(tgt_offsets_) + bytes(tgt_ids_) +
         bytes(tgt_counts_) + bytes(counts_queue_) + bytes(cells_queue_) +
         bytes(dirty_stamp_) + bytes(target_keys_sorted_) +
         bytes(node_targets_) + bytes(maint_);
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
         a.edge_keys_ == b.edge_keys_ && a.num_nodes_ == b.num_nodes_ &&
         a.inst_offsets_ == b.inst_offsets_ &&
         a.instance_ids_ == b.instance_ids_ &&
         a.alive_count_ == b.alive_count_ &&
         a.alive_edges_ == b.alive_edges_ &&
         a.tgt_offsets_ == b.tgt_offsets_ && a.tgt_ids_ == b.tgt_ids_ &&
         a.tgt_counts_ == b.tgt_counts_ &&
         a.arity_ == b.arity_ && a.maint_ == b.maint_;
}

}  // namespace tpp::motif
