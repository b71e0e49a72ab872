// Tests for the solver registry (core/solver.h).
//
// The completeness test guards against dispatch drift: every registered
// solver runs on the Arenas fixture and its ProtectionResult is
// cross-checked against a direct call to the underlying algorithm with
// identical parameters. If a registry entry ever stops forwarding
// faithfully (wrong budget division, dropped option, renamed key), this
// is the test that fails.

#include "core/solver.h"

#include <string>
#include <vector>

#include "core/tpp.h"
#include "graph/datasets.h"
#include "gtest/gtest.h"

namespace tpp::core {
namespace {

constexpr size_t kNumTargets = 8;
constexpr size_t kBudget = 5;
constexpr uint64_t kSeed = 99;

// One shared Arenas instance; every run gets its own engine.
const TppInstance& ArenasInstance() {
  static const TppInstance instance = [] {
    graph::Graph g = *graph::MakeArenasEmailLike(1);
    Rng rng(7);
    std::vector<graph::Edge> targets =
        *SampleTargets(g, kNumTargets, rng);
    return *MakeInstance(g, targets, motif::MotifKind::kTriangle);
  }();
  return instance;
}

IndexedEngine FreshEngine() {
  return *IndexedEngine::Create(ArenasInstance());
}

std::vector<size_t> InitialSims(Engine& engine) {
  std::vector<size_t> sims(engine.NumTargets());
  for (size_t t = 0; t < sims.size(); ++t) sims[t] = engine.SimilarityOf(t);
  return sims;
}

// Runs `name` through the registry with budget kBudget and the default
// restricted scope.
ProtectionResult ViaRegistry(const std::string& name) {
  SolverSpec spec;
  spec.algorithm = name;
  spec.budget = kBudget;
  IndexedEngine engine = FreshEngine();
  Rng rng(SplitMix64(kSeed));
  Result<ProtectionResult> result =
      RunSolver(spec, engine, ArenasInstance(), rng);
  EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  return *result;
}

// The direct call the registry entry must forward to, per solver name.
ProtectionResult Direct(const std::string& name) {
  const TppInstance& instance = ArenasInstance();
  IndexedEngine engine = FreshEngine();
  Rng rng(SplitMix64(kSeed));
  GreedyOptions opts;  // scope defaults match SolverSpec's
  opts.scope = CandidateScope::kTargetSubgraphEdges;
  if (name == "sgb") return *SgbGreedy(engine, kBudget, opts);
  if (name == "ct-tbd") {
    return *CtGreedy(engine, DivideBudgetTbd(InitialSims(engine), kBudget),
                     opts);
  }
  if (name == "ct-dbd") {
    return *CtGreedy(engine, DivideBudgetDbd(instance, kBudget), opts);
  }
  if (name == "wt-tbd") {
    return *WtGreedy(engine, DivideBudgetTbd(InitialSims(engine), kBudget),
                     opts);
  }
  if (name == "wt-dbd") {
    return *WtGreedy(engine, DivideBudgetDbd(instance, kBudget), opts);
  }
  if (name == "rd") return *RandomDeletion(engine, kBudget, rng);
  if (name == "rdt") {
    return *RandomDeletionFromTargetSubgraphs(engine, kBudget, rng);
  }
  if (name == "full") return *FullProtection(engine, opts);
  if (name == "katz") {
    KatzDefenseOptions options;
    options.budget = kBudget;
    KatzDefenseResult defense = *GreedyKatzDefense(instance, options);
    // The registry adapter replays the Katz picks through the engine;
    // the protector sequence is the cross-checkable part.
    ProtectionResult result;
    result.initial_similarity = engine.TotalSimilarity();
    for (const graph::Edge& e : defense.protectors) {
      engine.DeleteEdge(e.Key());
      result.protectors.push_back(e);
    }
    result.final_similarity = engine.TotalSimilarity();
    return result;
  }
  ADD_FAILURE() << "solver '" << name
                << "' has no direct-call cross-check; update this test";
  return {};
}

TEST(SolverRegistryTest, ExpectedNamesRegistered) {
  std::vector<std::string_view> names = SolverNames();
  const std::vector<std::string_view> expected = {
      "sgb",    "ct-tbd", "ct-dbd", "wt-tbd", "wt-dbd",
      "rd",     "rdt",    "full",   "katz"};
  EXPECT_EQ(names, expected);
  for (std::string_view name : names) {
    const Solver* solver = FindSolver(name);
    ASSERT_NE(solver, nullptr);
    EXPECT_EQ(solver->Name(), name);
    EXPECT_FALSE(solver->DisplayName().empty());
  }
}

TEST(SolverRegistryTest, EveryRegisteredSolverMatchesDirectCall) {
  for (std::string_view name : SolverNames()) {
    SCOPED_TRACE(std::string(name));
    ProtectionResult via_registry = ViaRegistry(std::string(name));
    ProtectionResult direct = Direct(std::string(name));
    EXPECT_EQ(via_registry.protectors, direct.protectors);
    EXPECT_EQ(via_registry.initial_similarity, direct.initial_similarity);
    EXPECT_EQ(via_registry.final_similarity, direct.final_similarity);
  }
}

TEST(SolverRegistryTest, LookupErrors) {
  EXPECT_EQ(FindSolver("does-not-exist"), nullptr);
  Result<const Solver*> missing = GetSolver("does-not-exist");
  EXPECT_FALSE(missing.ok());
  // The error names the valid keys so CLI users can self-serve.
  EXPECT_NE(missing.status().ToString().find("sgb"), std::string::npos);
}

TEST(SolverRegistryTest, ValidateChecksTheAlgorithmName) {
  SolverSpec spec;
  for (std::string_view name : SolverNames()) {
    spec.algorithm = std::string(name);
    EXPECT_TRUE(ValidateSolverSpec(spec).ok()) << name;
  }
  spec.algorithm = "does-not-exist";
  EXPECT_FALSE(ValidateSolverSpec(spec).ok());
}

TEST(SolverRegistryTest, FullProtectionSentinelReachesZero) {
  SolverSpec spec;  // default budget: kFullProtection
  spec.algorithm = "sgb";
  IndexedEngine engine = FreshEngine();
  Rng rng(1);
  ProtectionResult result =
      *RunSolver(spec, engine, ArenasInstance(), rng);
  EXPECT_EQ(result.final_similarity, 0u);
  EXPECT_EQ(engine.TotalSimilarity(), 0u);
}

TEST(SolverRegistryTest, BudgetZeroSelectsNothing) {
  // Budget-grid sweeps evaluate k=0; it must stay a valid no-op, not an
  // unbounded run.
  SolverSpec spec;
  spec.algorithm = "ct-tbd";
  spec.budget = 0;
  IndexedEngine engine = FreshEngine();
  Rng rng(1);
  ProtectionResult result =
      *RunSolver(spec, engine, ArenasInstance(), rng);
  EXPECT_TRUE(result.protectors.empty());
  EXPECT_EQ(result.final_similarity, result.initial_similarity);
}

}  // namespace
}  // namespace tpp::core
