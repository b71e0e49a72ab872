// Shared experiment harness for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure of the paper
// (see DESIGN.md §5 for the index). This header provides the paper's
// method axis (SGB / CT:TBD / CT:DBD / WT:TBD / WT:DBD / RD / RDT) as an
// enum over the core solver registry (core/solver.h, which owns all
// dispatch), the engine selection (naive vs indexed, full vs restricted
// candidates), the similarity-evolution sweeps, and output helpers
// (aligned tables on stdout + CSV files under results/).

#ifndef TPP_BENCH_HARNESS_COMMON_H_
#define TPP_BENCH_HARNESS_COMMON_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/tpp.h"

namespace tpp::bench {

/// The protector-selection methods compared throughout the evaluation.
enum class Method {
  kSgb = 0,   ///< SGB-Greedy (single global budget)
  kCtDbd,     ///< CT-Greedy with degree-product budget division
  kCtTbd,     ///< CT-Greedy with target-subgraph budget division
  kWtDbd,     ///< WT-Greedy with degree-product budget division
  kWtTbd,     ///< WT-Greedy with target-subgraph budget division
  kRd,        ///< random deletions
  kRdt,       ///< random deletions from target subgraphs
};

inline constexpr std::array<Method, 7> kAllMethods = {
    Method::kSgb,   Method::kCtDbd, Method::kCtTbd, Method::kWtDbd,
    Method::kWtTbd, Method::kRd,    Method::kRdt};

/// Greedy methods only (the utility-loss tables exclude RD/RDT).
inline constexpr std::array<Method, 5> kGreedyMethods = {
    Method::kSgb, Method::kCtDbd, Method::kCtTbd, Method::kWtDbd,
    Method::kWtTbd};

/// Registry key of the method's solver (core/solver.h), e.g. "ct-tbd".
std::string_view MethodSolverName(Method method);

/// Display name in the paper's notation, e.g. "CT-Greedy:TBD".
std::string_view MethodName(Method method);

/// How to run a method.
struct RunConfig {
  /// Restrict candidates to target-subgraph edges (the "-R" variants).
  bool restricted = true;
  /// Use the paper-faithful recount engine instead of the incidence index
  /// (only relevant for timing experiments; results are identical).
  bool naive_engine = false;
};

/// Builds the engine dictated by `config` for `instance`.
Result<std::unique_ptr<core::Engine>> MakeEngine(
    const core::TppInstance& instance, const RunConfig& config);

/// Runs `method` with total budget `k` (divided per target for CT/WT).
Result<core::ProtectionResult> RunMethod(const core::TppInstance& instance,
                                         Method method, size_t k,
                                         const RunConfig& config, Rng& rng);

/// Runs `method` until total similarity reaches zero, doubling the budget
/// as needed for the MLBT divisions (paper's "full protection"). Returns
/// the final run; `result.protectors.size()` is the realized k*.
Result<core::ProtectionResult> RunToFullProtection(
    const core::TppInstance& instance, Method method,
    const RunConfig& config, Rng& rng);

/// Mean similarity s(P_k, T) at each budget in `grid`, averaged over
/// `samples` independent target draws (as the paper averages >= 10 runs).
struct EvolutionCurve {
  std::vector<size_t> grid;        ///< the budgets evaluated
  std::vector<double> similarity;  ///< mean similarity at each budget
};

/// Computes the evolution curve for one method. For SGB/RD/RDT a single
/// maximal run yields the entire curve (greedy prefixes are consistent);
/// for CT/WT the budget division depends on k, so each grid point is run
/// separately, exactly as the paper defines the experiment.
Result<EvolutionCurve> SimilarityEvolution(const core::TppInstance& instance,
                                           Method method,
                                           const std::vector<size_t>& grid,
                                           const RunConfig& config, Rng& rng);

/// Environment knobs shared by the bench binaries.
size_t BenchSamples(size_t fallback);     ///< TPP_BENCH_SAMPLES
double BenchScale(double fallback);       ///< TPP_BENCH_SCALE (DBLP size)
std::string ResultsDir();                 ///< TPP_RESULTS_DIR (default results)

/// Median and quartiles of one bench row's per-rep samples.
struct Spread {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double Iqr() const { return q3 - q1; }
};

/// Quartiles of `samples` (non-empty) by linear interpolation between the
/// order statistics.
Spread SpreadOf(std::vector<double> samples);

/// The CPU the run had: how much faster `workers` pool workers finish
/// `workers` copies of a fixed CPU-bound loop than one worker does (the
/// median of 5 reps). Near `workers` on a box that gives the process that
/// many cores, near 1 on one that gives it one; a bench records it beside
/// its thread rows, so a throttled run reads as a throttled run rather
/// than as lost scaling.
double HostParallelSpeedup(int workers);

/// Builds an evenly spaced budget grid {0, ..., k_max} with at most
/// `max_points` points, always containing 0 and k_max.
std::vector<size_t> MakeBudgetGrid(size_t k_max, size_t max_points);

/// Writes a CSV (header + rows) to `<ResultsDir()>/<name>.csv`, logging a
/// warning to stderr on failure (benches never abort on I/O).
void WriteCsv(const std::string& name, const CsvWriter& csv);

/// Formats a double with `digits` decimals.
std::string Fmt(double value, int digits = 2);

}  // namespace tpp::bench

#endif  // TPP_BENCH_HARNESS_COMMON_H_
