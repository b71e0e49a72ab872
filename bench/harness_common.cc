#include "harness_common.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "common/check.h"
#include "common/env.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "reference/naive_engine.h"

namespace tpp::bench {

using core::CandidateScope;
using core::Engine;
using core::GreedyOptions;
using core::IndexedEngine;
using core::NaiveEngine;
using core::ProtectionResult;
using core::TppInstance;

namespace {

// Registry keys aligned with the Method enum values; all dispatch and
// naming goes through core/solver.h.
constexpr std::array<std::string_view, 7> kMethodSolverNames = {
    "sgb", "ct-dbd", "ct-tbd", "wt-dbd", "wt-tbd", "rd", "rdt"};

}  // namespace

std::string_view MethodSolverName(Method method) {
  return kMethodSolverNames[static_cast<size_t>(method)];
}

std::string_view MethodName(Method method) {
  return core::FindSolver(MethodSolverName(method))->DisplayName();
}

Result<std::unique_ptr<Engine>> MakeEngine(const TppInstance& instance,
                                           const RunConfig& config) {
  if (config.naive_engine) {
    return std::unique_ptr<Engine>(new NaiveEngine(instance));
  }
  TPP_ASSIGN_OR_RETURN(IndexedEngine engine,
                       IndexedEngine::Create(instance));
  return std::unique_ptr<Engine>(new IndexedEngine(std::move(engine)));
}

Result<ProtectionResult> RunMethod(const TppInstance& instance,
                                   Method method, size_t k,
                                   const RunConfig& config, Rng& rng) {
  TPP_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                       MakeEngine(instance, config));
  core::SolverSpec spec;
  spec.algorithm = std::string(MethodSolverName(method));
  spec.scope = config.restricted ? CandidateScope::kTargetSubgraphEdges
                                 : CandidateScope::kAllEdges;
  spec.budget = k;
  return core::RunSolver(spec, *engine, instance, rng);
}

Result<ProtectionResult> RunToFullProtection(const TppInstance& instance,
                                             Method method,
                                             const RunConfig& config,
                                             Rng& rng) {
  // s({},T) deletions always suffice for SGB/RDT (every pick breaks >= 1
  // instance); for the MLBT divisions a skewed division may strand budget
  // on the wrong targets, so double until protected.
  TPP_ASSIGN_OR_RETURN(std::unique_ptr<Engine> probe,
                       MakeEngine(instance, config));
  size_t k = probe->TotalSimilarity();
  if (k == 0) k = 1;
  for (int attempt = 0; attempt < 8; ++attempt) {
    Rng attempt_rng = rng.Fork();
    TPP_ASSIGN_OR_RETURN(ProtectionResult result,
                         RunMethod(instance, method, k, config,
                                   attempt_rng));
    if (result.final_similarity == 0) return result;
    k *= 2;
  }
  return Status::Internal(
      StrFormat("%s failed to reach full protection",
                std::string(MethodName(method)).c_str()));
}

Result<EvolutionCurve> SimilarityEvolution(const TppInstance& instance,
                                           Method method,
                                           const std::vector<size_t>& grid,
                                           const RunConfig& config,
                                           Rng& rng) {
  EvolutionCurve curve;
  curve.grid = grid;
  curve.similarity.assign(grid.size(), 0.0);
  if (grid.empty()) return curve;

  const bool prefix_consistent = method == Method::kSgb ||
                                 method == Method::kRd ||
                                 method == Method::kRdt;
  if (prefix_consistent) {
    // One maximal run; read the curve off the pick trace.
    size_t k_max = grid.back();
    TPP_ASSIGN_OR_RETURN(ProtectionResult result,
                         RunMethod(instance, method, k_max, config, rng));
    for (size_t gi = 0; gi < grid.size(); ++gi) {
      size_t k = grid[gi];
      if (k == 0) {
        curve.similarity[gi] = static_cast<double>(result.initial_similarity);
      } else if (k <= result.picks.size()) {
        curve.similarity[gi] =
            static_cast<double>(result.picks[k - 1].similarity_after);
      } else {
        curve.similarity[gi] = static_cast<double>(result.final_similarity);
      }
    }
    return curve;
  }
  // CT/WT: the division of k changes with k, so each point is a fresh run.
  for (size_t gi = 0; gi < grid.size(); ++gi) {
    Rng point_rng = rng.Fork();
    TPP_ASSIGN_OR_RETURN(ProtectionResult result,
                         RunMethod(instance, method, grid[gi], config,
                                   point_rng));
    curve.similarity[gi] = grid[gi] == 0
                               ? static_cast<double>(result.initial_similarity)
                               : static_cast<double>(result.final_similarity);
  }
  return curve;
}

size_t BenchSamples(size_t fallback) {
  int64_t v = EnvInt("TPP_BENCH_SAMPLES", static_cast<int64_t>(fallback));
  return v < 1 ? 1 : static_cast<size_t>(v);
}

double BenchScale(double fallback) {
  double v = EnvDouble("TPP_BENCH_SCALE", fallback);
  return (v <= 0.0 || v > 1.0) ? fallback : v;
}

Spread SpreadOf(std::vector<double> samples) {
  TPP_CHECK(!samples.empty());
  std::sort(samples.begin(), samples.end());
  auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) *
                             (samples[hi] - samples[lo]);
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

namespace {

// Keeps the spin loops' results observable, so they are not optimized out.
volatile uint64_t spin_sink = 0;

// About 5 ms of dependent integer mixing on one core.
uint64_t Spin(uint64_t x) {
  for (int i = 0; i < (1 << 22); ++i) x = SplitMix64(x);
  return x;
}

}  // namespace

double HostParallelSpeedup(int workers) {
  const size_t jobs = static_cast<size_t>(std::max(workers, 1));
  std::vector<uint64_t> out(jobs);
  auto run_on = [&](int budget, uint64_t seed) {
    WallTimer timer;
    GlobalThreadPool().ParallelFor(
        jobs, budget, /*grain=*/1, [&](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) out[i] = Spin(seed + i);
        });
    const double ms = timer.Millis();
    for (uint64_t x : out) spin_sink = spin_sink ^ x;
    return ms;
  };
  std::vector<double> ratios;
  for (uint64_t rep = 0; rep < 5; ++rep) {
    const double one = run_on(1, rep);
    ratios.push_back(one / run_on(workers, rep));
  }
  return SpreadOf(ratios).median;
}

std::string ResultsDir() { return EnvString("TPP_RESULTS_DIR", "results"); }

std::vector<size_t> MakeBudgetGrid(size_t k_max, size_t max_points) {
  std::vector<size_t> grid;
  if (max_points < 2 || k_max == 0) {
    grid.push_back(0);
    if (k_max > 0) grid.push_back(k_max);
    return grid;
  }
  size_t points = std::min(max_points, k_max + 1);
  for (size_t i = 0; i < points; ++i) {
    size_t k = (k_max * i) / (points - 1);
    if (grid.empty() || grid.back() != k) grid.push_back(k);
  }
  return grid;
}

void WriteCsv(const std::string& name, const CsvWriter& csv) {
  std::string path = ResultsDir() + "/" + name + ".csv";
  Status s = csv.WriteToFile(path);
  if (!s.ok()) {
    std::fprintf(stderr, "warning: could not write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
  } else {
    std::printf("[csv] %s\n", path.c_str());
  }
}

std::string Fmt(double value, int digits) {
  return StrFormat("%.*f", digits, value);
}

}  // namespace tpp::bench
