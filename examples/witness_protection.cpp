// Target-node privacy (the paper's future-work item 2): a protected
// witness must hide the sensitive half of their contact list while the
// rest stays public. Shows why partial hiding leaks (public links
// complete triangles around hidden ones) and how TPP closes the leak.
//
//   $ ./build/examples/witness_protection

#include <cstdio>

#include "core/node_privacy.h"
#include "core/tpp.h"
#include "graph/datasets.h"

using tpp::Rng;
using tpp::core::IndexedEngine;
using tpp::core::NodeExposure;
using tpp::graph::Graph;
using tpp::graph::NodeId;
using tpp::motif::MotifKind;

int main() {
  Graph g = *tpp::graph::MakeArenasEmailLike(31);

  // The witness: a well-connected node.
  NodeId witness = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    if (g.Degree(v) > g.Degree(witness)) witness = v;
  }
  std::printf("witness: node %u with %zu contacts\n", witness,
              g.Degree(witness));

  // Half the contacts are sensitive (say, family), half stay public.
  std::vector<NodeId> contacts(g.Neighbors(witness).begin(),
                               g.Neighbors(witness).end());
  Rng rng(7);
  rng.Shuffle(contacts);
  std::vector<NodeId> sensitive(contacts.begin(),
                                contacts.begin() + contacts.size() / 2);
  std::printf("hiding %zu sensitive contacts, keeping %zu public\n\n",
              sensitive.size(), contacts.size() - sensitive.size());

  auto instance = *tpp::core::MakePartialNodeInstance(
      g, witness, sensitive, MotifKind::kTriangle);

  // Exposure after naive hiding (phase 1 only).
  NodeExposure naive = *tpp::core::MeasureNodeExposure(
      instance.released, instance.targets, MotifKind::kTriangle);
  std::printf("naive hiding: %zu of %zu hidden contacts still exposed via "
              "%zu triangles\n",
              naive.exposed_links, naive.hidden_links,
              naive.alive_subgraphs);

  // TPP phase 2, through the solver registry.
  tpp::core::SolverSpec spec;
  spec.algorithm = "full";
  Rng solver_rng(0);  // deterministic solver; never drawn from
  IndexedEngine engine = *IndexedEngine::Create(instance);
  auto result = *tpp::core::RunSolver(spec, engine, instance, solver_rng);
  NodeExposure protected_exposure = *tpp::core::MeasureNodeExposure(
      engine.CurrentGraph(), instance.targets, MotifKind::kTriangle);
  std::printf("after TPP (%zu protector deletions): %zu exposed, "
              "protected fraction %.0f%%\n",
              result.protectors.size(), protected_exposure.exposed_links,
              100.0 * protected_exposure.protected_fraction());

  // Contrast: hiding the ENTIRE contact list needs no protectors at all
  // under motif-based attacks (every motif instance would use another of
  // the witness's own links) — the cost is that the witness's public
  // presence disappears.
  auto full = *tpp::core::MakeNodeInstance(g, witness, MotifKind::kTriangle);
  IndexedEngine full_engine = *IndexedEngine::Create(full);
  std::printf("\nfull isolation alternative: motif attack surface = %zu "
              "(trivially safe,\nbut deletes all %zu links and the "
              "witness's public profile with them)\n",
              full_engine.TotalSimilarity(), g.Degree(witness));
  return 0;
}
