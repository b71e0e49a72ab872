// End-to-end integration tests: the full TPP pipeline on the Arenas-email
// stand-in, mirroring the structure of the paper's evaluation at reduced
// scale so it runs in CI time.

#include <gtest/gtest.h>

#include "core/tpp.h"
#include "graph/datasets.h"
#include "linkpred/attack.h"
#include "metrics/utility.h"
#include "motif/enumerate.h"
#include "reference/naive_engine.h"

namespace tpp {
namespace {

using core::CandidateScope;
using core::IndexedEngine;
using core::NaiveEngine;
using core::TppInstance;
using graph::Edge;
using graph::Graph;
using motif::MotifKind;

class PipelineTest : public ::testing::TestWithParam<MotifKind> {
 protected:
  void SetUp() override {
    graph_ = *graph::MakeArenasEmailLike(42);
    Rng rng(7);
    targets_ = *core::SampleTargets(graph_, 20, rng);
    instance_ = *core::MakeInstance(graph_, targets_, GetParam());
  }

  Graph graph_{0};
  std::vector<Edge> targets_;
  TppInstance instance_;
};

TEST_P(PipelineTest, TargetsHaveNonTrivialInitialSimilarity) {
  // Paper reports s({},T)=48/532/209 for Triangle/Rectangle/RecTri at
  // |T|=20 on Arenas-email: randomly sampled real links participate in
  // many motifs. The stand-in must reproduce the regime (non-zero, and
  // Rectangle the largest).
  size_t s0 =
      motif::TotalSimilarity(instance_.released, targets_, GetParam());
  EXPECT_GT(s0, 10u);
  EXPECT_LT(s0, 5000u);
}

TEST_P(PipelineTest, FullProtectionTerminatesAtZero) {
  IndexedEngine engine = *IndexedEngine::Create(instance_);
  core::GreedyOptions opts;
  opts.scope = CandidateScope::kTargetSubgraphEdges;
  core::ProtectionResult result = *core::FullProtection(engine, opts);
  EXPECT_EQ(result.final_similarity, 0u);
  EXPECT_EQ(motif::TotalSimilarity(engine.CurrentGraph(), targets_,
                                   GetParam()),
            0u);
}

TEST_P(PipelineTest, MethodOrderingMatchesFig3) {
  // With the same modest budget: SGB >= CT:TBD >= WT:TBD in protection
  // (similarity after deletion), and all greedy methods beat RD.
  IndexedEngine probe = *IndexedEngine::Create(instance_);
  const size_t k = std::max<size_t>(4, probe.TotalSimilarity() / 10);
  std::vector<size_t> sims(probe.NumTargets());
  for (size_t t = 0; t < sims.size(); ++t) sims[t] = probe.SimilarityOf(t);
  std::vector<size_t> budgets = core::DivideBudgetTbd(sims, k);

  core::GreedyOptions opts;
  opts.scope = CandidateScope::kTargetSubgraphEdges;
  IndexedEngine e1 = *IndexedEngine::Create(instance_);
  IndexedEngine e2 = *IndexedEngine::Create(instance_);
  IndexedEngine e3 = *IndexedEngine::Create(instance_);
  IndexedEngine e4 = *IndexedEngine::Create(instance_);
  size_t sgb = core::SgbGreedy(e1, k, opts)->final_similarity;
  size_t ct = core::CtGreedy(e2, budgets, opts)->final_similarity;
  size_t wt = core::WtGreedy(e3, budgets, opts)->final_similarity;
  Rng rd_rng(5);
  size_t rd = core::RandomDeletion(e4, k, rd_rng)->final_similarity;

  EXPECT_LE(sgb, ct);
  EXPECT_LE(ct, wt + 2);  // CT is a bit better than WT, modulo small noise
  EXPECT_LT(sgb, rd);     // greedy decisively beats random deletion
}

TEST_P(PipelineTest, UtilityLossOfFullProtectionIsSmall) {
  IndexedEngine engine = *IndexedEngine::Create(instance_);
  core::GreedyOptions opts;
  opts.scope = CandidateScope::kTargetSubgraphEdges;
  core::ProtectionResult result = *core::FullProtection(engine, opts);
  ASSERT_EQ(result.final_similarity, 0u);

  // Compare released-and-protected graph against the ORIGINAL graph, as
  // the paper's Tables III-V do. Use the fast metrics; APL sampled.
  metrics::UtilityOptions uopts;
  uopts.apl_sample_sources = 50;
  uopts.mu = false;  // slow on 1133 nodes in debug CI; covered elsewhere
  metrics::UtilityMetrics before = ComputeUtilityMetrics(graph_, uopts);
  metrics::UtilityMetrics after =
      ComputeUtilityMetrics(engine.CurrentGraph(), uopts);
  metrics::UtilityLoss loss = UtilityLossRatio(before, after);
  ASSERT_FALSE(loss.per_metric.empty());
  // Paper: ~0.6%-8.6% depending on motif and |T|; 15% is a safe ceiling
  // that still catches regressions that destroy the graph.
  EXPECT_LT(loss.average, 0.15);
  EXPECT_GT(loss.average, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllMotifs, PipelineTest,
                         ::testing::ValuesIn(motif::kAllMotifs),
                         [](const ::testing::TestParamInfo<MotifKind>& info) {
                           return std::string(motif::MotifName(info.param));
                         });

TEST(NaiveVsIndexedIntegration, SamePicksOnArenasSubsample) {
  // Run both engines through SGB on a small slice of the Arenas-like graph
  // and require identical protector sequences (paper's -R equivalence).
  Graph g = *graph::MakeArenasEmailLike(9);
  Rng rng(3);
  auto targets = *core::SampleTargets(g, 5, rng);
  TppInstance inst = *core::MakeInstance(g, targets, MotifKind::kTriangle);
  NaiveEngine naive(inst);
  IndexedEngine indexed = *IndexedEngine::Create(inst);
  core::GreedyOptions opts;
  opts.scope = CandidateScope::kTargetSubgraphEdges;
  core::ProtectionResult rn = *core::SgbGreedy(naive, 8, opts);
  core::ProtectionResult ri = *core::SgbGreedy(indexed, 8, opts);
  ASSERT_EQ(rn.protectors.size(), ri.protectors.size());
  for (size_t i = 0; i < rn.protectors.size(); ++i) {
    EXPECT_EQ(rn.protectors[i], ri.protectors[i]);
  }
}

TEST(CriticalBudgetIntegration, RectangleNeedsLargestKStar) {
  // Fig. 3: k* (full-protection budget) is largest for the Rectangle
  // motif — it has the most target subgraphs to break.
  Graph g = *graph::MakeArenasEmailLike(11);
  Rng rng(13);
  auto targets = *core::SampleTargets(g, 10, rng);
  std::map<MotifKind, size_t> k_star;
  for (MotifKind kind : motif::kAllMotifs) {
    TppInstance inst = *core::MakeInstance(g, targets, kind);
    IndexedEngine engine = *IndexedEngine::Create(inst);
    core::GreedyOptions opts;
    opts.scope = CandidateScope::kTargetSubgraphEdges;
    k_star[kind] = core::FullProtection(engine, opts)->protectors.size();
  }
  EXPECT_GE(k_star[MotifKind::kRectangle], k_star[MotifKind::kTriangle]);
  EXPECT_GE(k_star[MotifKind::kRectangle], k_star[MotifKind::kRecTri]);
}

}  // namespace
}  // namespace tpp
