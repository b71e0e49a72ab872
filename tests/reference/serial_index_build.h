// The serial pre-parallel incidence-index build and its enumerator,
// frozen as the baseline of the index_build bench and the reference of
// the parallel-vs-serial differential tests. Test-only (tpp_reference
// library); libtpp's IncidenceIndex::BuildCached is the production path.

#ifndef TPP_REFERENCE_SERIAL_INDEX_BUILD_H_
#define TPP_REFERENCE_SERIAL_INDEX_BUILD_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"
#include "motif/incidence_index.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::motif {

/// The pre-optimization enumerator, frozen verbatim: materializes
/// CommonNeighbors vectors and answers every adjacency probe with a
/// HasEdge binary search. Output is identical to EnumerateTargetSubgraphs
/// (differential-tested); kept as the honest baseline of the index_build
/// bench and of BuildIndexSerialReference.
std::vector<TargetSubgraph> EnumerateTargetSubgraphsReference(
    const graph::Graph& g, graph::Edge target, MotifKind kind,
    int32_t target_index = 0);

/// The single-threaded pre-parallel build: serial per-target enumeration
/// with materialized common-neighbor vectors and hash-map edge-id
/// resolution, on the released graph `g` = G - T: fails with
/// FailedPrecondition if a target is still present. IncidenceIndex::
/// BuildCached, on G or on G - T, is required to be bit-identical to this
/// one at any thread count. A friend of IncidenceIndex: it fills the same
/// private layout.
Result<IncidenceIndex> BuildIndexSerialReference(
    const graph::Graph& g, const std::vector<graph::Edge>& targets,
    MotifKind kind);

}  // namespace tpp::motif

#endif  // TPP_REFERENCE_SERIAL_INDEX_BUILD_H_
