#include "reference/brute_force.h"

namespace tpp::motif {

using graph::Edge;
using graph::Graph;
using graph::MakeEdgeKey;
using graph::NodeId;

std::vector<TargetSubgraph> BruteForceTargetSubgraphs(const Graph& g,
                                                      Edge target,
                                                      MotifKind kind,
                                                      int32_t target_index) {
  std::vector<TargetSubgraph> out;
  const NodeId u = target.u;
  const NodeId v = target.v;
  const NodeId n = static_cast<NodeId>(g.NumNodes());
  switch (kind) {
    case MotifKind::kTriangle: {
      for (NodeId w = 0; w < n; ++w) {
        if (w == u || w == v) continue;
        if (g.HasEdge(u, w) && g.HasEdge(w, v)) {
          out.push_back(TargetSubgraph(
              target_index, {MakeEdgeKey(u, w), MakeEdgeKey(w, v)}));
        }
      }
      break;
    }
    case MotifKind::kRectangle: {
      for (NodeId a = 0; a < n; ++a) {
        if (a == u || a == v) continue;
        for (NodeId b = 0; b < n; ++b) {
          if (b == u || b == v || b == a) continue;
          if (g.HasEdge(u, a) && g.HasEdge(a, b) && g.HasEdge(b, v)) {
            out.push_back(TargetSubgraph(target_index,
                                         {MakeEdgeKey(u, a), MakeEdgeKey(a, b),
                                          MakeEdgeKey(b, v)}));
          }
        }
      }
      break;
    }
    case MotifKind::kPentagon: {
      for (NodeId a = 0; a < n; ++a) {
        if (a == u || a == v) continue;
        for (NodeId b = 0; b < n; ++b) {
          if (b == u || b == v || b == a) continue;
          for (NodeId c = 0; c < n; ++c) {
            if (c == u || c == v || c == a || c == b) continue;
            if (g.HasEdge(u, a) && g.HasEdge(a, b) && g.HasEdge(b, c) &&
                g.HasEdge(c, v)) {
              out.push_back(TargetSubgraph(target_index,
                                           {MakeEdgeKey(u, a),
                                            MakeEdgeKey(a, b),
                                            MakeEdgeKey(b, c),
                                            MakeEdgeKey(c, v)}));
            }
          }
        }
      }
      break;
    }
    case MotifKind::kRecTri: {
      for (NodeId w = 0; w < n; ++w) {
        if (w == u || w == v) continue;
        if (!g.HasEdge(u, w) || !g.HasEdge(w, v)) continue;
        for (NodeId x = 0; x < n; ++x) {
          if (x == u || x == v || x == w) continue;
          // Type A: 3-path u-w-x-v shares w with the 2-path u-w-v.
          if (g.HasEdge(w, x) && g.HasEdge(x, v)) {
            out.push_back(TargetSubgraph(target_index,
                                         {MakeEdgeKey(u, w), MakeEdgeKey(w, v),
                                          MakeEdgeKey(w, x),
                                          MakeEdgeKey(x, v)}));
          }
          // Type B: 3-path u-x-w-v shares w with the 2-path u-w-v.
          if (g.HasEdge(u, x) && g.HasEdge(x, w)) {
            out.push_back(TargetSubgraph(target_index,
                                         {MakeEdgeKey(u, w), MakeEdgeKey(w, v),
                                          MakeEdgeKey(u, x),
                                          MakeEdgeKey(x, w)}));
          }
        }
      }
      break;
    }
  }
  return out;
}

size_t BruteForceCount(const Graph& g, Edge target, MotifKind kind) {
  return BruteForceTargetSubgraphs(g, target, kind).size();
}

}  // namespace tpp::motif
