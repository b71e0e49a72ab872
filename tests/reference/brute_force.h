// Brute-force reference enumerators: independent O(n^2)-per-target
// implementations used as differential-test oracles for enumerate.h
// (test-only tpp_reference library).

#ifndef TPP_REFERENCE_BRUTE_FORCE_H_
#define TPP_REFERENCE_BRUTE_FORCE_H_

#include <vector>

#include "graph/graph.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::motif {

/// Enumerates target subgraphs by scanning all node (pairs); deliberately
/// written without shared code with EnumerateTargetSubgraphs so the two can
/// cross-check each other.
std::vector<TargetSubgraph> BruteForceTargetSubgraphs(
    const graph::Graph& g, graph::Edge target, MotifKind kind,
    int32_t target_index = 0);

/// Count-only variant.
size_t BruteForceCount(const graph::Graph& g, graph::Edge target,
                       MotifKind kind);

}  // namespace tpp::motif

#endif  // TPP_REFERENCE_BRUTE_FORCE_H_
