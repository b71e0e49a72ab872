// Ablation benches for the design choices called out in DESIGN.md:
//   1. incidence-index engine vs paper-faithful recount engine,
//   2. restricted ("-R") vs full candidate scope.
// Both produce identical protector sequences (differential-tested in
// tests/); this bench quantifies the cost differences.

#include <cstdio>

#include "common/table.h"
#include "common/timer.h"
#include "graph/datasets.h"
#include "harness_common.h"

namespace tpp::bench {
namespace {

constexpr size_t kNumTargets = 20;
constexpr size_t kBudget = 25;

struct Row {
  std::string label;
  double seconds = 0;
  uint64_t gain_evals = 0;
  size_t final_similarity = 0;
};

Row Measure(const core::TppInstance& instance, const std::string& label,
            const RunConfig& config) {
  Rng rng(3);
  WallTimer timer;
  auto result = *RunMethod(instance, Method::kSgb, kBudget, config, rng);
  Row row;
  row.label = label;
  row.seconds = timer.Seconds();
  row.gain_evals = result.gain_evaluations;
  row.final_similarity = result.final_similarity;
  return row;
}

int Run() {
  std::printf("== Ablation: engine / candidate-scope, SGB with "
              "k=%zu, Arenas-email-like, |T|=%zu ==\n\n",
              kBudget, kNumTargets);
  Result<graph::Graph> graph = graph::MakeArenasEmailLike(1);
  if (!graph.ok()) return 1;

  for (motif::MotifKind kind : motif::kPaperMotifs) {
    Rng rng(42);
    auto targets = *core::SampleTargets(*graph, kNumTargets, rng);
    core::TppInstance instance = *core::MakeInstance(*graph, targets, kind);

    std::vector<Row> rows;
    {
      RunConfig c;  // indexed + restricted (library default)
      rows.push_back(Measure(instance, "indexed + restricted", c));
    }
    {
      RunConfig c;
      c.restricted = false;
      rows.push_back(Measure(instance, "indexed + all-edges", c));
    }
    {
      RunConfig c;
      c.naive_engine = true;
      rows.push_back(Measure(instance, "naive + restricted (SGB-R)", c));
    }
    {
      RunConfig c;
      c.naive_engine = true;
      c.restricted = false;
      rows.push_back(Measure(instance, "naive + all-edges (paper SGB)", c));
    }

    TextTable table;
    CsvWriter csv;
    std::vector<std::string> header = {"configuration", "seconds",
                                       "gain evals", "final s(P,T)"};
    table.SetHeader(header);
    csv.SetHeader(header);
    for (const Row& row : rows) {
      std::vector<std::string> cells = {
          row.label, Fmt(row.seconds, 4), std::to_string(row.gain_evals),
          std::to_string(row.final_similarity)};
      table.AddRow(cells);
      csv.AddRow(cells);
    }
    std::printf("-- %s pattern --\n%s",
                std::string(motif::MotifName(kind)).c_str(),
                table.ToString().c_str());
    // Sanity headline: all configurations end at the same similarity.
    bool identical = true;
    for (const Row& row : rows) {
      if (row.final_similarity != rows[0].final_similarity) identical = false;
    }
    std::printf("identical final similarity across configs: %s\n\n",
                identical ? "yes" : "NO (BUG)");
    WriteCsv("ablation_" + std::string(motif::MotifName(kind)), csv);
  }
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main() { return tpp::bench::Run(); }
