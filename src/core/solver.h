// Solver registry: every protector-selection algorithm behind one
// string-keyed dispatch interface.
//
// Callers (the CLI, the bench harnesses, the plan service, the examples)
// name an algorithm by its registry key and run it through
// RunSolver(spec, engine, problem, rng) instead of hand-wiring their own
// dispatch switches. Registered solvers:
//
//   key      display          budgeting    notes
//   sgb      SGB-Greedy       global k
//   ct-tbd   CT-Greedy:TBD    per-target   k divided by target-subgraph count
//   ct-dbd   CT-Greedy:DBD    per-target   k divided by degree product
//   wt-tbd   WT-Greedy:TBD    per-target   within-target, TBD division
//   wt-dbd   WT-Greedy:DBD    per-target   within-target, DBD division
//   rd       RD               global k     randomized baseline
//   rdt      RDT              global k     randomized, target-subgraph edges
//   full     Full-Protection  unbudgeted   SGB until similarity reaches 0
//   katz     Katz-Defense     global k     Katz-index defense (§VII), the
//                                          result traces the motif
//                                          similarity of its deletions
//
// A SolverSpec's budget of kFullProtection (the default) means "spend
// whatever it takes": budgeted solvers use the instance's initial total
// similarity as k, which always suffices for the greedy selections.

#ifndef TPP_CORE_SOLVER_H_
#define TPP_CORE_SOLVER_H_

#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/greedy.h"
#include "core/problem.h"

namespace tpp::core {

/// How a solver consumes the budget of a SolverSpec.
enum class BudgetModel {
  kGlobal,     ///< one pool of k deletions (SGB, RD, RDT, Katz)
  kPerTarget,  ///< k divided into per-target budgets K (CT/WT variants)
  kUnbudgeted, ///< runs to full protection; the budget field is ignored
};

/// A fully specified protection run: which algorithm, over which candidate
/// edges, with how much budget. The spec is plain data so it can be
/// parsed from CLI flags or batch request files and carried across
/// threads.
struct SolverSpec {
  /// Budget sentinel: protect fully (see header comment).
  static constexpr size_t kFullProtection =
      std::numeric_limits<size_t>::max();

  std::string algorithm = "sgb";  ///< registry key
  /// Candidate protector scope; kTargetSubgraphEdges gives the scalable
  /// "-R" variants with identical output (Lemma 5).
  CandidateScope scope = CandidateScope::kTargetSubgraphEdges;
  /// Total deletion budget k. 0 is legal and selects nothing (budget-grid
  /// sweeps evaluate it); the kFullProtection default is unbounded.
  size_t budget = kFullProtection;
  /// Cooperative cancellation (common/cancellation.h): solvers poll the
  /// token at round boundaries and return kDeadlineExceeded / kAborted
  /// instead of running on. Not owned; must outlive the Run call.
  /// Wall-clock only — it never changes the output of a run that
  /// completes, so plan caching ignores this field.
  const CancellationToken* cancel = nullptr;
};

/// One registered protector-selection algorithm. Implementations are
/// stateless singletons owned by the registry; Run may be called
/// concurrently from many threads (each call gets its own engine and rng).
class Solver {
 public:
  virtual ~Solver() = default;

  /// Registry key, e.g. "ct-tbd".
  virtual std::string_view Name() const = 0;

  /// Display name in the paper's notation, e.g. "CT-Greedy:TBD".
  virtual std::string_view DisplayName() const = 0;

  /// How this solver consumes spec.budget.
  virtual BudgetModel Budgeting() const = 0;

  /// True if the selection draws from `rng` (RD/RDT). Deterministic
  /// solvers never touch it.
  virtual bool Randomized() const = 0;

  /// Runs the selection against `engine` (which it mutates by committing
  /// deletions, like the underlying algorithms). `problem` is what the
  /// engine was built for; a solver that needs the released graph (DBD
  /// budget division, the Katz defense) reads engine.CurrentGraph()
  /// before its first deletion.
  virtual Result<ProtectionResult> Run(Engine& engine,
                                       const TppProblem& problem,
                                       const SolverSpec& spec,
                                       Rng& rng) const = 0;
};

/// Parses a candidate-scope name: "subgraph" (kTargetSubgraphEdges) or
/// "all" (kAllEdges) — the vocabulary of the CLI --scope flag and the
/// request-file scope= key.
Result<CandidateScope> ParseCandidateScope(std::string_view name);

/// Maps an integer budget knob to a spec budget: values <= 0 mean
/// "protect fully" (kFullProtection), matching the CLI --budget flag and
/// the request-file budget= key.
size_t BudgetFromFlag(int64_t budget);

/// Looks up a solver by registry key; nullptr when unknown.
const Solver* FindSolver(std::string_view name);

/// Like FindSolver but returns an InvalidArgument listing the known keys.
Result<const Solver*> GetSolver(std::string_view name);

/// All registry keys, in registration order (the order of the table
/// above).
std::vector<std::string_view> SolverNames();

/// Checks a spec against the registry: the algorithm must exist.
Status ValidateSolverSpec(const SolverSpec& spec);

/// Validates `spec` and runs the named solver. The one dispatch path all
/// callers share.
Result<ProtectionResult> RunSolver(const SolverSpec& spec, Engine& engine,
                                   const TppProblem& problem, Rng& rng);

}  // namespace tpp::core

#endif  // TPP_CORE_SOLVER_H_
