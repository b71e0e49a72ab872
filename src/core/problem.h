// TPP problem: target set + motif, and the phase-1 instance that adds the
// released graph.

#ifndef TPP_CORE_PROBLEM_H_
#define TPP_CORE_PROBLEM_H_

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "motif/motif.h"

namespace tpp::core {

/// What a solve is asked: the hidden links T and the motif. The released
/// graph is a pure function of these and the base graph (base minus T), so
/// holders of one shared base keep only this much per target set; a
/// solver reads the released graph from its engine (Engine::CurrentGraph)
/// before its first deletion.
struct TppProblem {
  std::vector<graph::Edge> targets;  ///< the hidden links T
  motif::MotifKind motif = motif::MotifKind::kTriangle;
};

/// A fully specified TPP instance: the problem plus its own copy of the
/// phase-1 graph, `released` — the original graph with every target link
/// already deleted. The original graph is only needed again for
/// utility-loss analysis.
struct TppInstance : TppProblem {
  graph::Graph released;  ///< original minus target links
};

/// Builds an instance from the original graph: validates that every target
/// is a distinct existing edge (motif::ValidateTargetLinks), then removes
/// them (phase 1).
Result<TppInstance> MakeInstance(const graph::Graph& original,
                                 std::vector<graph::Edge> targets,
                                 motif::MotifKind motif);

/// Samples `count` distinct target links uniformly from the existing edges,
/// as in the paper's evaluation ("targets are randomly sampled from the
/// existing links"). Errors if the graph has fewer than `count` edges.
Result<std::vector<graph::Edge>> SampleTargets(const graph::Graph& g,
                                               size_t count, Rng& rng);

}  // namespace tpp::core

#endif  // TPP_CORE_PROBLEM_H_
