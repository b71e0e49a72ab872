// Property tests for the greedy algorithms: approximation guarantees
// against the exhaustive optimum, monotone similarity decrease, and
// equivalence of the "-R" restricted candidate scope.

#include <gtest/gtest.h>

#include <tuple>

#include "core/budget.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/generators.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::Graph;

constexpr double kOneMinusInvE = 1.0 - 0.36787944117144233;

class GreedyPropertyTest
    : public ::testing::TestWithParam<std::tuple<motif::MotifKind,
                                                 uint64_t>> {
 protected:
  TppInstance RandomInstance(uint64_t salt, size_t n, double p,
                             size_t num_targets) {
    auto [kind, seed] = GetParam();
    Rng rng(seed * 7919 + salt);
    Graph g = *graph::ErdosRenyiGnp(n, p, rng);
    while (g.NumEdges() < num_targets + 2) {
      g = *graph::ErdosRenyiGnp(n, p, rng);
    }
    std::vector<Edge> targets = rng.SampleK(g.Edges(), num_targets);
    return *MakeInstance(g, targets, kind);
  }
};

TEST_P(GreedyPropertyTest, SgbAchievesOneMinusInvEOfOptimal) {
  // Small instances where the exhaustive optimum is computable.
  for (uint64_t salt = 0; salt < 3; ++salt) {
    TppInstance inst = RandomInstance(salt, 14, 0.3, 3);
    const size_t k = 3;
    Result<ExhaustiveResult> opt = ExhaustiveOptimal(inst, k);
    if (!opt.ok()) continue;  // candidate set too large; skip this draw
    IndexedEngine engine = *IndexedEngine::Create(inst);
    ProtectionResult greedy = *SgbGreedy(engine, k);
    EXPECT_GE(static_cast<double>(greedy.TotalGain()) + 1e-9,
              kOneMinusInvE * static_cast<double>(opt->best_gain))
        << "greedy gain " << greedy.TotalGain() << " vs optimal "
        << opt->best_gain;
    // Greedy can never beat the optimum.
    EXPECT_LE(greedy.TotalGain(), opt->best_gain);
  }
}

TEST_P(GreedyPropertyTest, SimilarityIsNonIncreasingAlongPicks) {
  TppInstance inst = RandomInstance(11, 24, 0.25, 5);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *SgbGreedy(engine, 10);
  size_t prev = result.initial_similarity;
  for (const PickTrace& pick : result.picks) {
    EXPECT_LE(pick.similarity_after, prev);
    EXPECT_GT(pick.realized_gain, 0u);  // greedy never wastes a deletion
    prev = pick.similarity_after;
  }
}

TEST_P(GreedyPropertyTest, GreedyGainsAreNonIncreasing) {
  // Submodularity implies the sequence of realized greedy gains is
  // non-increasing.
  TppInstance inst = RandomInstance(13, 24, 0.25, 5);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *SgbGreedy(engine, 12);
  for (size_t i = 1; i < result.picks.size(); ++i) {
    EXPECT_LE(result.picks[i].realized_gain,
              result.picks[i - 1].realized_gain);
  }
}

TEST_P(GreedyPropertyTest, RestrictedScopeMatchesFullScope) {
  // Lemma 5: restricting candidates to target-subgraph edges changes
  // nothing about the selected protectors.
  TppInstance inst = RandomInstance(17, 20, 0.3, 4);
  IndexedEngine full_engine = *IndexedEngine::Create(inst);
  IndexedEngine r_engine = *IndexedEngine::Create(inst);
  GreedyOptions r_opts;
  r_opts.scope = CandidateScope::kTargetSubgraphEdges;
  ProtectionResult full = *SgbGreedy(full_engine, 6);
  ProtectionResult restricted = *SgbGreedy(r_engine, 6, r_opts);
  ASSERT_EQ(full.protectors.size(), restricted.protectors.size());
  for (size_t i = 0; i < full.protectors.size(); ++i) {
    EXPECT_EQ(full.protectors[i], restricted.protectors[i]);
  }
}

TEST_P(GreedyPropertyTest, CtRespectsPerTargetBudgets) {
  TppInstance inst = RandomInstance(23, 24, 0.3, 4);
  IndexedEngine probe = *IndexedEngine::Create(inst);
  std::vector<size_t> budgets = {2, 1, 0, 2};
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *CtGreedy(engine, budgets);
  std::vector<size_t> spent(budgets.size(), 0);
  for (const PickTrace& pick : result.picks) {
    ASSERT_LT(pick.for_target, budgets.size());
    ++spent[pick.for_target];
  }
  for (size_t t = 0; t < budgets.size(); ++t) {
    EXPECT_LE(spent[t], budgets[t]);
  }
  (void)probe;
}

TEST_P(GreedyPropertyTest, WtServesTargetsInOrder) {
  TppInstance inst = RandomInstance(29, 24, 0.3, 4);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  ProtectionResult result = *WtGreedy(engine, {2, 2, 2, 2});
  // for_target must be non-decreasing along the pick sequence.
  for (size_t i = 1; i < result.picks.size(); ++i) {
    EXPECT_GE(result.picks[i].for_target, result.picks[i - 1].for_target);
  }
}

TEST_P(GreedyPropertyTest, SgbDominatesBudgetSplitStrategies) {
  // With the same total budget, the globally greedy SGB always achieves at
  // least the gain of CT and WT (it optimizes without the partition
  // constraint) — the ordering the paper's Fig. 3 reports.
  TppInstance inst = RandomInstance(31, 26, 0.28, 5);
  IndexedEngine probe = *IndexedEngine::Create(inst);
  std::vector<size_t> sims(probe.NumTargets());
  for (size_t t = 0; t < sims.size(); ++t) sims[t] = probe.SimilarityOf(t);
  const size_t k = 6;
  std::vector<size_t> budgets = DivideBudgetTbd(sims, k);

  IndexedEngine e1 = *IndexedEngine::Create(inst);
  IndexedEngine e2 = *IndexedEngine::Create(inst);
  IndexedEngine e3 = *IndexedEngine::Create(inst);
  ProtectionResult sgb = *SgbGreedy(e1, k);
  ProtectionResult ct = *CtGreedy(e2, budgets);
  ProtectionResult wt = *WtGreedy(e3, budgets);
  EXPECT_GE(sgb.TotalGain(), ct.TotalGain());
  EXPECT_GE(sgb.TotalGain(), wt.TotalGain());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedyPropertyTest,
    ::testing::Combine(::testing::ValuesIn(motif::kAllMotifs),
                       ::testing::Values(1, 5, 9)),
    [](const ::testing::TestParamInfo<std::tuple<motif::MotifKind,
                                                 uint64_t>>& info) {
      return std::string(motif::MotifName(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tpp::core
