#include "reference/serial_index_build.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "common/strings.h"

namespace tpp::motif {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;
using graph::MakeEdgeKey;
using graph::NodeId;

namespace {

// Same check and message as IndexedEngine::Create's.
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

std::vector<TargetSubgraph> EnumerateTargetSubgraphsReference(
    const Graph& g, Edge target, MotifKind kind, int32_t target_index) {
  // The pre-optimization implementation, frozen as the bench baseline: a
  // CommonNeighbors vector per probe and a HasEdge binary search per
  // adjacency test. Do not "fix" this to use EnumerateScratch — its whole
  // point is to keep costing what the old build cost.
  const NodeId u = target.u;
  const NodeId v = target.v;
  TPP_CHECK_NE(u, v);
  std::vector<TargetSubgraph> out;
  switch (kind) {
    case MotifKind::kTriangle: {
      for (NodeId w : g.CommonNeighbors(u, v)) {
        out.push_back(TargetSubgraph(
            target_index, {MakeEdgeKey(u, w), MakeEdgeKey(w, v)}));
      }
      break;
    }
    case MotifKind::kRectangle: {
      for (NodeId a : g.Neighbors(u)) {
        if (a == v) continue;
        for (NodeId b : g.Neighbors(a)) {
          if (b == u || b == v) continue;
          if (g.HasEdge(b, v)) {
            out.push_back(TargetSubgraph(
                target_index,
                {MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, v)}));
          }
        }
      }
      break;
    }
    case MotifKind::kPentagon: {
      for (NodeId a : g.Neighbors(u)) {
        if (a == v) continue;
        for (NodeId b : g.Neighbors(a)) {
          if (b == u || b == v) continue;
          for (NodeId c : g.Neighbors(b)) {
            if (c == u || c == v || c == a) continue;
            if (g.HasEdge(c, v)) {
              out.push_back(TargetSubgraph(
                  target_index,
                  {MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, c),
                   MakeEdgeKey(c, v)}));
            }
          }
        }
      }
      break;
    }
    case MotifKind::kRecTri: {
      for (NodeId w : g.CommonNeighbors(u, v)) {
        const EdgeKey uw = MakeEdgeKey(u, w);
        const EdgeKey wv = MakeEdgeKey(w, v);
        for (NodeId x : g.Neighbors(w)) {
          if (x == u || x == v) continue;
          if (g.HasEdge(x, v)) {
            out.push_back(TargetSubgraph(
                target_index,
                {uw, wv, MakeEdgeKey(w, x), MakeEdgeKey(x, v)}));
          }
          if (g.HasEdge(u, x)) {
            out.push_back(TargetSubgraph(
                target_index,
                {uw, wv, MakeEdgeKey(u, x), MakeEdgeKey(x, w)}));
          }
        }
      }
      break;
    }
  }
  return out;
}

Result<IncidenceIndex> BuildIndexSerialReference(
    const Graph& g, const std::vector<Edge>& targets, MotifKind kind) {
  using InstanceMaintenance = IncidenceIndex::InstanceMaintenance;
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
  // build did.
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

  idx.num_nodes_ = g.NumNodes();
  idx.instances_ = std::move(instances);
  idx.inst_offsets_ = std::move(inst_offsets);
  idx.instance_ids_ = std::move(instance_ids);
  idx.tgt_offsets_ = std::move(tgt_offsets);
  idx.tgt_ids_ = std::move(tgt_ids);
  idx.maint_ = std::move(maint);
  idx.FinishAliveState(targets.size());
  idx.PopulateRepairCaches(targets);
  return idx;
}

}  // namespace tpp::motif
