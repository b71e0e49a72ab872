#include "core/solver.h"

#include <array>

#include "common/strings.h"
#include "common/timer.h"
#include "core/baselines.h"
#include "core/budget.h"
#include "core/katz_defense.h"

namespace tpp::core {

namespace {

// Resolves the budget sentinel: "full protection" means the current total
// similarity, which always suffices for the greedy selections (every pick
// breaks at least one alive instance).
size_t EffectiveBudget(const SolverSpec& spec, Engine& engine) {
  return spec.budget == SolverSpec::kFullProtection
             ? engine.TotalSimilarity()
             : spec.budget;
}

GreedyOptions OptionsOf(const SolverSpec& spec) {
  GreedyOptions opts;
  opts.scope = spec.scope;
  opts.cancel = spec.cancel;
  return opts;
}

std::vector<size_t> InitialSimilarities(Engine& engine) {
  std::vector<size_t> sims(engine.NumTargets());
  for (size_t t = 0; t < sims.size(); ++t) sims[t] = engine.SimilarityOf(t);
  return sims;
}

class SgbSolver : public Solver {
 public:
  std::string_view Name() const override { return "sgb"; }
  std::string_view DisplayName() const override { return "SGB-Greedy"; }
  BudgetModel Budgeting() const override { return BudgetModel::kGlobal; }
  bool Randomized() const override { return false; }
  Result<ProtectionResult> Run(Engine& engine, const TppProblem&,
                               const SolverSpec& spec, Rng&) const override {
    return SgbGreedy(engine, EffectiveBudget(spec, engine), OptionsOf(spec));
  }
};

// CT/WT with TBD/DBD budget division, parameterized by the two axes.
class MlbtSolver : public Solver {
 public:
  MlbtSolver(bool within_target, BudgetDivision division)
      : within_target_(within_target), division_(division) {}

  std::string_view Name() const override {
    if (within_target_) {
      return division_ == BudgetDivision::kTargetSubgraphBased ? "wt-tbd"
                                                               : "wt-dbd";
    }
    return division_ == BudgetDivision::kTargetSubgraphBased ? "ct-tbd"
                                                             : "ct-dbd";
  }
  std::string_view DisplayName() const override {
    if (within_target_) {
      return division_ == BudgetDivision::kTargetSubgraphBased
                 ? "WT-Greedy:TBD"
                 : "WT-Greedy:DBD";
    }
    return division_ == BudgetDivision::kTargetSubgraphBased
               ? "CT-Greedy:TBD"
               : "CT-Greedy:DBD";
  }
  BudgetModel Budgeting() const override { return BudgetModel::kPerTarget; }
  bool Randomized() const override { return false; }
  Result<ProtectionResult> Run(Engine& engine, const TppProblem& problem,
                               const SolverSpec& spec, Rng&) const override {
    size_t k = EffectiveBudget(spec, engine);
    std::vector<size_t> budgets =
        division_ == BudgetDivision::kTargetSubgraphBased
            ? DivideBudgetTbd(InitialSimilarities(engine), k)
            : DivideBudgetDbd(engine.CurrentGraph(), problem.targets, k);
    return within_target_ ? WtGreedy(engine, budgets, OptionsOf(spec))
                          : CtGreedy(engine, budgets, OptionsOf(spec));
  }

 private:
  bool within_target_;
  BudgetDivision division_;
};

class RandomSolver : public Solver {
 public:
  explicit RandomSolver(bool target_subgraphs_only)
      : target_subgraphs_only_(target_subgraphs_only) {}

  std::string_view Name() const override {
    return target_subgraphs_only_ ? "rdt" : "rd";
  }
  std::string_view DisplayName() const override {
    return target_subgraphs_only_ ? "RDT" : "RD";
  }
  BudgetModel Budgeting() const override { return BudgetModel::kGlobal; }
  bool Randomized() const override { return true; }
  Result<ProtectionResult> Run(Engine& engine, const TppProblem&,
                               const SolverSpec& spec,
                               Rng& rng) const override {
    size_t k = EffectiveBudget(spec, engine);
    return target_subgraphs_only_
               ? RandomDeletionFromTargetSubgraphs(engine, k, rng)
               : RandomDeletion(engine, k, rng);
  }

 private:
  bool target_subgraphs_only_;
};

class FullProtectionSolver : public Solver {
 public:
  std::string_view Name() const override { return "full"; }
  std::string_view DisplayName() const override { return "Full-Protection"; }
  BudgetModel Budgeting() const override { return BudgetModel::kUnbudgeted; }
  bool Randomized() const override { return false; }
  Result<ProtectionResult> Run(Engine& engine, const TppProblem&,
                               const SolverSpec& spec, Rng&) const override {
    return FullProtection(engine, OptionsOf(spec));
  }
};

// Adapter over GreedyKatzDefense: the Katz defense picks protectors
// against the truncated-Katz attack model on its own copy of the released
// graph (the engine's, read before any deletion); the picks are then
// replayed through `engine` so the returned ProtectionResult reports the
// same motif-similarity trajectory (and leaves engine.CurrentGraph() ==
// the defended graph) as every other solver. The scope does not apply to
// this solver.
class KatzDefenseSolver : public Solver {
 public:
  std::string_view Name() const override { return "katz"; }
  std::string_view DisplayName() const override { return "Katz-Defense"; }
  BudgetModel Budgeting() const override { return BudgetModel::kGlobal; }
  bool Randomized() const override { return false; }
  Result<ProtectionResult> Run(Engine& engine, const TppProblem& problem,
                               const SolverSpec& spec, Rng&) const override {
    WallTimer timer;
    const graph::Graph& released = engine.CurrentGraph();
    KatzDefenseOptions options;
    options.budget = spec.budget == SolverSpec::kFullProtection
                         ? released.NumEdges()
                         : spec.budget;
    TPP_ASSIGN_OR_RETURN(KatzDefenseResult defense,
                         GreedyKatzDefense(released, problem.targets, options));
    ProtectionResult result;
    result.initial_similarity = engine.TotalSimilarity();
    for (const graph::Edge& e : defense.protectors) {
      PickTrace trace;
      trace.edge = e.Key();
      trace.realized_gain = engine.DeleteEdge(e.Key());
      trace.for_target = PickTrace::kNoTarget;
      trace.similarity_after = engine.TotalSimilarity();
      trace.cumulative_seconds = timer.Seconds();
      result.picks.push_back(trace);
      result.protectors.push_back(e);
    }
    result.final_similarity = engine.TotalSimilarity();
    result.gain_evaluations = engine.GainEvaluations();
    result.total_seconds = timer.Seconds();
    return result;
  }
};

// Registration order defines SolverNames() order; keep it in sync with
// the table in the header.
const std::array<const Solver*, 9>& Registry() {
  static const SgbSolver sgb;
  static const MlbtSolver ct_tbd(false, BudgetDivision::kTargetSubgraphBased);
  static const MlbtSolver ct_dbd(false, BudgetDivision::kDegreeProductBased);
  static const MlbtSolver wt_tbd(true, BudgetDivision::kTargetSubgraphBased);
  static const MlbtSolver wt_dbd(true, BudgetDivision::kDegreeProductBased);
  static const RandomSolver rd(false);
  static const RandomSolver rdt(true);
  static const FullProtectionSolver full;
  static const KatzDefenseSolver katz;
  static const std::array<const Solver*, 9> registry = {
      &sgb, &ct_tbd, &ct_dbd, &wt_tbd, &wt_dbd, &rd, &rdt, &full, &katz};
  return registry;
}

}  // namespace

Result<CandidateScope> ParseCandidateScope(std::string_view name) {
  if (name == "all") return CandidateScope::kAllEdges;
  if (name == "subgraph") return CandidateScope::kTargetSubgraphEdges;
  return Status::InvalidArgument(
      StrFormat("scope '%s' (want all|subgraph)",
                std::string(name).c_str()));
}

size_t BudgetFromFlag(int64_t budget) {
  return budget <= 0 ? SolverSpec::kFullProtection
                     : static_cast<size_t>(budget);
}

const Solver* FindSolver(std::string_view name) {
  for (const Solver* solver : Registry()) {
    if (solver->Name() == name) return solver;
  }
  return nullptr;
}

Result<const Solver*> GetSolver(std::string_view name) {
  const Solver* solver = FindSolver(name);
  if (solver != nullptr) return solver;
  std::string known;
  for (std::string_view n : SolverNames()) {
    if (!known.empty()) known += "|";
    known += n;
  }
  return Status::InvalidArgument(
      StrFormat("unknown solver '%s' (want %s)",
                std::string(name).c_str(), known.c_str()));
}

std::vector<std::string_view> SolverNames() {
  std::vector<std::string_view> names;
  names.reserve(Registry().size());
  for (const Solver* solver : Registry()) names.push_back(solver->Name());
  return names;
}

Status ValidateSolverSpec(const SolverSpec& spec) {
  return GetSolver(spec.algorithm).status();
}

Result<ProtectionResult> RunSolver(const SolverSpec& spec, Engine& engine,
                                   const TppProblem& problem, Rng& rng) {
  Status valid = ValidateSolverSpec(spec);
  if (!valid.ok()) return valid;
  return FindSolver(spec.algorithm)->Run(engine, problem, spec, rng);
}

}  // namespace tpp::core
