// LegacyIncidenceIndex: the original unordered_map posting-list incidence
// index, kept as a test-only reference implementation (the tpp_reference
// library; libtpp does not compile it).
//
// This is the pre-CSR layout: edge -> vector<instance id> in a hash map,
// with every gain query walking the posting list and testing per-instance
// liveness (O(instances incident to e) per query). It is NOT used by any
// engine; it exists so that
//   * the gain-kernel benchmarks (bench/gain_kernels.cc,
//     bench/micro_kernels.cc) can quantify the CSR speedup against the
//     historical baseline, and
//   * differential tests can cross-check the CSR index's cached counts
//     against an independently maintained implementation.
// See motif/incidence_index.h for the production CSR index.

#ifndef TPP_REFERENCE_LEGACY_INCIDENCE_INDEX_H_
#define TPP_REFERENCE_LEGACY_INCIDENCE_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "motif/enumerate.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::motif {

/// Map-based reference incidence index; same contract and query surface as
/// IncidenceIndex, different complexity: every gain query is O(instances
/// incident to the edge).
class LegacyIncidenceIndex {
 public:
  /// Same contract as IncidenceIndex::Build.
  static Result<LegacyIncidenceIndex> Build(
      const graph::Graph& g, const std::vector<graph::Edge>& targets,
      MotifKind kind);

  size_t NumTargets() const { return alive_per_target_.size(); }
  const std::vector<TargetSubgraph>& instances() const { return instances_; }
  bool IsAlive(size_t i) const { return alive_[i] != 0; }
  size_t TotalAlive() const { return total_alive_; }
  size_t AliveForTarget(size_t t) const { return alive_per_target_[t]; }
  const std::vector<size_t>& AliveCounts() const { return alive_per_target_; }

  /// O(instances incident to e) posting-list walk.
  size_t Gain(graph::EdgeKey e) const;
  void AccumulateGains(graph::EdgeKey e, std::vector<size_t>* out) const;
  size_t DeleteEdge(graph::EdgeKey e);
  std::vector<graph::EdgeKey> AliveCandidateEdges() const;
  std::vector<graph::EdgeKey> AllParticipatingEdges() const;

 private:
  LegacyIncidenceIndex() = default;

  std::vector<TargetSubgraph> instances_;
  std::vector<uint8_t> alive_;
  std::vector<size_t> alive_per_target_;
  size_t total_alive_ = 0;
  std::unordered_map<graph::EdgeKey, std::vector<uint32_t>>
      edge_to_instances_;
};

}  // namespace tpp::motif

#endif  // TPP_REFERENCE_LEGACY_INCIDENCE_INDEX_H_
