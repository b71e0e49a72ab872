// Extension bench (paper §VII future work item 1): defending against the
// Katz index. The Katz dissimilarity is not submodular (no greedy
// guarantee), but the first-order greedy of core/katz_defense.h still
// drives the attacker's score down far faster than motif-based TPP with
// the same number of deletions.

#include <cstdio>

#include "common/table.h"
#include "graph/datasets.h"
#include "harness_common.h"

namespace tpp::bench {
namespace {

constexpr size_t kNumTargets = 10;

int Run() {
  std::printf("== Extension: Katz-index defense, Arenas-email-like, "
              "|T|=%zu ==\n\n",
              kNumTargets);
  Result<graph::Graph> graph = graph::MakeArenasEmailLike(1);
  if (!graph.ok()) return 1;

  linkpred::KatzParams params;
  params.beta = 0.05;
  params.max_length = 4;

  TextTable table;
  CsvWriter csv;
  std::vector<std::string> header = {
      "sample", "Katz s({},T)", "after Triangle TPP (same k)",
      "after Katz defense", "deletions k"};
  table.SetHeader(header);
  csv.SetHeader(header);

  const size_t samples = BenchSamples(3);
  for (size_t s = 0; s < samples; ++s) {
    Rng rng(400 + s);
    auto targets = *core::SampleTargets(*graph, kNumTargets, rng);
    core::TppInstance instance =
        *core::MakeInstance(*graph, targets, motif::MotifKind::kTriangle);
    double initial =
        *core::TotalKatzScore(instance.released, targets, params);

    // Triangle TPP to full protection.
    RunConfig config;
    Rng run_rng(500 + s);
    auto triangle =
        *RunToFullProtection(instance, Method::kSgb, config, run_rng);
    graph::Graph triangle_released = instance.released;
    triangle_released.RemoveEdges(triangle.protectors);
    double after_triangle =
        *core::TotalKatzScore(triangle_released, targets, params);

    // Katz-aware defense with the same deletion count.
    core::KatzDefenseOptions opts;
    opts.katz = params;
    opts.budget = triangle.protectors.size();
    auto katz =
        *core::GreedyKatzDefense(instance.released, instance.targets, opts);

    std::vector<std::string> row = {
        std::to_string(s), Fmt(initial, 4), Fmt(after_triangle, 4),
        Fmt(katz.final_score, 4),
        std::to_string(triangle.protectors.size())};
    table.AddRow(row);
    csv.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf("Triangle-motif TPP removes all 2-path evidence but leaves "
              "3-walks; the\nKatz-aware greedy spends the same budget "
              "directly on the attacker's objective.\n\n");
  WriteCsv("extension_katz_defense", csv);
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main() { return tpp::bench::Run(); }
