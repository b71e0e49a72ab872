#include "core/katz_defense.h"

#include <cmath>
#include <unordered_map>

#include "common/check.h"

namespace tpp::core {

using graph::Edge;
using graph::EdgeKey;
using graph::EdgeKeyU;
using graph::EdgeKeyV;
using graph::Graph;
using graph::MakeEdgeKey;
using graph::NodeId;

Result<double> TotalKatzScore(const Graph& g,
                              const std::vector<Edge>& targets,
                              const linkpred::KatzParams& params) {
  double total = 0.0;
  // Group targets by source endpoint so each DP sweep serves all targets
  // sharing it.
  std::unordered_map<NodeId, std::vector<NodeId>> by_source;
  for (const Edge& t : targets) by_source[t.u].push_back(t.v);
  for (const auto& [u, vs] : by_source) {
    TPP_ASSIGN_OR_RETURN(std::vector<double> scores,
                         linkpred::KatzScoresFrom(g, u, params));
    for (NodeId v : vs) total += scores[v];
  }
  return total;
}

namespace {

// First-order gain of deleting edge (a,b): the beta-weighted count of
// target walks that traverse it (in either direction), summed over
// targets. Exact when no walk repeats the edge.
double EstimateEdgeGain(
    const std::vector<std::vector<std::vector<double>>>& forward,
    const std::vector<std::vector<std::vector<double>>>& backward,
    const linkpred::KatzParams& params, NodeId a, NodeId b) {
  double gain = 0.0;
  const size_t kl = params.max_length;
  for (size_t t = 0; t < forward.size(); ++t) {
    const auto& f = forward[t];
    const auto& g = backward[t];
    double beta_pow = params.beta;
    for (size_t l = 1; l <= kl; ++l) {
      // Walks of length l through the edge at step i (1-based): the
      // prefix reaches one endpoint in i-1 steps, the suffix covers the
      // remaining l-i steps from the other endpoint.
      double through = 0.0;
      for (size_t i = 1; i <= l; ++i) {
        through += f[i - 1][a] * g[l - i][b];
        through += f[i - 1][b] * g[l - i][a];
      }
      gain += beta_pow * through;
      beta_pow *= params.beta;
    }
  }
  return gain;
}

}  // namespace

Result<KatzDefenseResult> GreedyKatzDefense(
    const Graph& released, const std::vector<Edge>& targets,
    const KatzDefenseOptions& options) {
  if (options.katz.beta <= 0.0 || options.katz.beta >= 1.0) {
    return Status::InvalidArgument("Katz beta out of (0,1)");
  }
  KatzDefenseResult result;
  Graph g = released;
  const size_t kl = options.katz.max_length;

  TPP_ASSIGN_OR_RETURN(result.initial_score,
                       TotalKatzScore(g, targets, options.katz));
  double current = result.initial_score;

  while (result.protectors.size() < options.budget &&
         current > options.stop_score) {
    // Walk tables per target: forward from u, backward from v (the graph
    // is undirected, so "backward" is just another forward table).
    std::vector<std::vector<std::vector<double>>> forward, backward;
    forward.reserve(targets.size());
    backward.reserve(targets.size());
    for (const Edge& t : targets) {
      TPP_ASSIGN_OR_RETURN(auto fu, linkpred::KatzWalkCounts(g, t.u, kl));
      TPP_ASSIGN_OR_RETURN(auto fv, linkpred::KatzWalkCounts(g, t.v, kl));
      forward.push_back(std::move(fu));
      backward.push_back(std::move(fv));
    }
    // Candidate edges: on some u->v walk of length <= max_length, i.e.
    // reachable from u within kl-1 AND from v within kl-1 (both endpoints).
    EdgeKey best_edge = 0;
    double best_gain = 0.0;
    for (const Edge& e : g.Edges()) {
      bool on_walk = false;
      for (size_t t = 0; t < targets.size() && !on_walk; ++t) {
        for (size_t i = 1; i <= kl && !on_walk; ++i) {
          for (size_t j = 0; i + j < kl + 1 && !on_walk; ++j) {
            if ((forward[t][i - 1][e.u] > 0 && backward[t][j][e.v] > 0) ||
                (forward[t][i - 1][e.v] > 0 && backward[t][j][e.u] > 0)) {
              on_walk = true;
            }
          }
        }
      }
      if (!on_walk) continue;
      double gain =
          EstimateEdgeGain(forward, backward, options.katz, e.u, e.v);
      if (gain > best_gain) {
        best_gain = gain;
        best_edge = e.Key();
      }
    }
    if (best_gain <= 0.0) break;  // no walk-carrying edge remains
    TPP_CHECK(g.RemoveEdgeKey(best_edge).ok());
    result.protectors.emplace_back(EdgeKeyU(best_edge), EdgeKeyV(best_edge));
    TPP_ASSIGN_OR_RETURN(current, TotalKatzScore(g, targets, options.katz));
    result.score_trajectory.push_back(current);
  }
  result.final_score = current;
  return result;
}

}  // namespace tpp::core
