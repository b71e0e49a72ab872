// A graph-release pipeline, end to end: load an edge list from disk,
// protect a target set, audit the release (attack + utility), and write
// the releasable edge list back to disk — what a data-publishing team
// would actually run before sharing a social graph.
//
//   $ ./build/examples/release_pipeline [input.edges]
//
// Without an argument, a demo graph is synthesized and saved first.

#include <cstdio>
#include <string>

#include "core/tpp.h"
#include "graph/datasets.h"
#include "graph/io.h"
#include "graph/relabel.h"
#include "linkpred/attack.h"
#include "metrics/utility.h"
#include "service/plan_service.h"

using tpp::Rng;
using tpp::Status;
using tpp::graph::Graph;

int main(int argc, char** argv) {
  std::string input = argc > 1 ? argv[1] : "";
  if (input.empty()) {
    input = "demo_social_graph.edges";
    Graph demo = *tpp::graph::MakeArenasEmailLike(7);
    Status s = tpp::graph::SaveEdgeList(demo, input);
    if (!s.ok()) {
      std::fprintf(stderr, "cannot write demo graph: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::printf("[1/5] synthesized demo graph -> %s\n", input.c_str());
  }

  tpp::Result<Graph> loaded = tpp::graph::LoadEdgeList(input);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", input.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  Graph g = std::move(*loaded);
  std::printf("[2/5] loaded %s: %s\n", input.c_str(),
              g.DebugString().c_str());

  // The data owner's sensitive links: sampled here; in production this
  // comes from user privacy settings. The whole protection step is one
  // request to the plan service — the same path `tpp batch` uses to serve
  // many target sets concurrently.
  tpp::service::PlanService plan_service(g);
  tpp::service::PlanRequest request;
  request.sample = 15;
  request.seed = 20240610;
  request.spec.algorithm = "full";
  const tpp::service::PlanResponse response =
      plan_service.RunBatch({&request, 1}).front();
  if (!response.status.ok()) {
    std::fprintf(stderr, "protection failed: %s\n",
                 response.status.ToString().c_str());
    return 1;
  }
  std::printf("[3/5] %zu sensitive links; exposure s({},T) = %zu\n",
              response.targets.size(),
              response.result.initial_similarity);
  std::printf("[4/5] full protection with %zu protector deletions "
              "(%.2f%% of links)\n",
              response.result.protectors.size(),
              100.0 * response.result.protectors.size() / g.NumEdges());

  // The released graph is the base minus the plan's deletions.
  const Graph released = *tpp::core::ApplyDeletionPlan(
      g, {response.targets, response.result.protectors});

  // Release audit: strongest attacker score and utility loss.
  Rng attack_rng(1);
  auto attacks = *tpp::linkpred::EvaluateAllAttacks(
      released, response.targets, attack_rng);
  double worst_auc = 0;
  for (const auto& report : attacks) worst_auc = std::max(worst_auc,
                                                          report.auc);
  tpp::metrics::UtilityOptions uopts;
  uopts.apl_sample_sources = 100;
  uopts.mu = false;
  auto before = tpp::metrics::ComputeUtilityMetrics(g, uopts);
  auto after = tpp::metrics::ComputeUtilityMetrics(released, uopts);
  auto loss = tpp::metrics::UtilityLossRatio(before, after);

  // A real release also permutes node ids so released ids carry no
  // meaning; the secret mapping stays with the owner.
  Rng relabel_rng = tpp::service::RequestRng(request.seed + 1);
  tpp::graph::RelabeledGraph relabeled =
      tpp::graph::RandomRelabel(released, relabel_rng);

  std::string output = input + ".released";
  Status s = tpp::graph::SaveEdgeList(relabeled.graph, output);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write release: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("[5/5] audit: worst attacker AUC %.3f (chance=0.5), average "
              "utility loss %.2f%%\n",
              worst_auc, 100.0 * loss.average);
  std::printf("      released graph (ids permuted) written to %s\n",
              output.c_str());
  return 0;
}
