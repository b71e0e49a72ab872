#include "core/problem.h"

#include "common/check.h"
#include "common/strings.h"
#include "motif/enumerate.h"

namespace tpp::core {

using graph::Edge;
using graph::Graph;

Result<TppInstance> MakeInstance(const Graph& original,
                                 std::vector<Edge> targets,
                                 motif::MotifKind motif) {
  TPP_RETURN_IF_ERROR(motif::ValidateTargetLinks(original, targets));
  TppInstance inst;
  inst.released = original;
  for (const Edge& t : targets) {
    TPP_CHECK(inst.released.RemoveEdge(t.u, t.v).ok());
  }
  inst.targets = std::move(targets);
  inst.motif = motif;
  return inst;
}

Result<std::vector<Edge>> SampleTargets(const Graph& g, size_t count,
                                        Rng& rng) {
  if (count > g.NumEdges()) {
    return Status::InvalidArgument(
        StrFormat("cannot sample %zu targets from %zu edges", count,
                  g.NumEdges()));
  }
  std::vector<Edge> edges = g.Edges();
  return rng.SampleK(edges, count);
}

}  // namespace tpp::core
