#include "reference/legacy_incidence_index.h"

#include <algorithm>

#include "common/strings.h"

namespace tpp::motif {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;

Result<LegacyIncidenceIndex> LegacyIncidenceIndex::Build(
    const Graph& g, const std::vector<Edge>& targets, MotifKind kind) {
  LegacyIncidenceIndex idx;
  idx.alive_per_target_.assign(targets.size(), 0);
  for (size_t t = 0; t < targets.size(); ++t) {
    const Edge& target = targets[t];
    if (g.HasEdge(target.u, target.v)) {
      return Status::FailedPrecondition(
          StrFormat("target (%u,%u) still present; run phase-1 deletion first",
                    target.u, target.v));
    }
    std::vector<TargetSubgraph> ts = EnumerateTargetSubgraphs(
        g, target, kind, static_cast<int32_t>(t));
    for (TargetSubgraph& inst : ts) {
      idx.instances_.push_back(inst);
    }
  }
  idx.alive_.assign(idx.instances_.size(), 1);
  idx.total_alive_ = idx.instances_.size();
  for (uint32_t i = 0; i < idx.instances_.size(); ++i) {
    const TargetSubgraph& inst = idx.instances_[i];
    ++idx.alive_per_target_[inst.target];
    for (uint8_t j = 0; j < inst.num_edges; ++j) {
      idx.edge_to_instances_[inst.edges[j]].push_back(i);
    }
  }
  return idx;
}

size_t LegacyIncidenceIndex::Gain(EdgeKey e) const {
  auto it = edge_to_instances_.find(e);
  if (it == edge_to_instances_.end()) return 0;
  size_t gain = 0;
  for (uint32_t i : it->second) {
    if (alive_[i]) ++gain;
  }
  return gain;
}

void LegacyIncidenceIndex::AccumulateGains(EdgeKey e,
                                           std::vector<size_t>* out) const {
  auto it = edge_to_instances_.find(e);
  if (it == edge_to_instances_.end()) return;
  for (uint32_t i : it->second) {
    if (alive_[i]) ++(*out)[instances_[i].target];
  }
}

size_t LegacyIncidenceIndex::DeleteEdge(EdgeKey e) {
  auto it = edge_to_instances_.find(e);
  if (it == edge_to_instances_.end()) return 0;
  size_t killed = 0;
  for (uint32_t i : it->second) {
    if (!alive_[i]) continue;
    alive_[i] = 0;
    --alive_per_target_[instances_[i].target];
    --total_alive_;
    ++killed;
  }
  return killed;
}

std::vector<EdgeKey> LegacyIncidenceIndex::AliveCandidateEdges() const {
  std::vector<EdgeKey> out;
  out.reserve(edge_to_instances_.size());
  for (const auto& [e, insts] : edge_to_instances_) {
    for (uint32_t i : insts) {
      if (alive_[i]) {
        out.push_back(e);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<EdgeKey> LegacyIncidenceIndex::AllParticipatingEdges() const {
  std::vector<EdgeKey> out;
  out.reserve(edge_to_instances_.size());
  for (const auto& [e, insts] : edge_to_instances_) {
    (void)insts;
    out.push_back(e);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace tpp::motif
