// Tests for the Katz defense extension (paper future work item 1).

#include "core/katz_defense.h"

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/indexed_engine.h"
#include "graph/datasets.h"
#include "graph/fixtures.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::Graph;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

TEST(TotalKatzScoreTest, MatchesPairwiseSums) {
  Graph g = graph::MakeKarateClub();
  std::vector<Edge> targets = {E(0, 5), E(2, 33)};
  linkpred::KatzParams params{0.05, 4};
  double total = *TotalKatzScore(g, targets, params);
  double manual = *linkpred::KatzScore(g, 0, 5, params) +
                  *linkpred::KatzScore(g, 2, 33, params);
  EXPECT_NEAR(total, manual, 1e-12);
}

TEST(KatzDefenseTest, DisconnectsSimplePath) {
  // Single 2-path 0-2-1 behind hidden target (0,1): deleting either path
  // edge zeroes the truncated Katz score.
  Graph g = MakeGraph(3, {{0, 1}, {0, 2}, {2, 1}});
  TppInstance inst = *MakeInstance(g, {E(0, 1)}, motif::MotifKind::kTriangle);
  KatzDefenseOptions opts;
  opts.katz = {0.1, 4};
  opts.budget = 5;
  auto result = *GreedyKatzDefense(inst.released, inst.targets, opts);
  EXPECT_GT(result.initial_score, 0.0);
  EXPECT_DOUBLE_EQ(result.final_score, 0.0);
  EXPECT_LE(result.protectors.size(), 2u);
}

TEST(KatzDefenseTest, ScoreTrajectoryIsNonIncreasing) {
  Graph g = *graph::MakeArenasEmailLike(3);
  Rng rng(5);
  auto targets = *SampleTargets(g, 5, rng);
  TppInstance inst = *MakeInstance(g, targets, motif::MotifKind::kTriangle);
  KatzDefenseOptions opts;
  opts.katz = {0.05, 3};
  opts.budget = 12;
  auto result = *GreedyKatzDefense(inst.released, inst.targets, opts);
  double prev = result.initial_score;
  for (double score : result.score_trajectory) {
    EXPECT_LE(score, prev + 1e-12);
    prev = score;
  }
  EXPECT_DOUBLE_EQ(prev, result.final_score);
  EXPECT_LT(result.final_score, result.initial_score);
}

TEST(KatzDefenseTest, BeatsTriangleProtectionOnKatzObjective) {
  // Triangle-motif TPP only destroys 2-paths; the Katz attacker also uses
  // 3-walks. With the same deletion count, the Katz-aware defense must
  // achieve a lower (or equal) Katz score.
  Graph g = *graph::MakeArenasEmailLike(9);
  Rng rng(13);
  auto targets = *SampleTargets(g, 5, rng);
  TppInstance inst = *MakeInstance(g, targets, motif::MotifKind::kTriangle);
  linkpred::KatzParams params{0.05, 4};

  IndexedEngine engine = *IndexedEngine::Create(inst);
  auto triangle_result = *FullProtection(engine);
  double katz_after_triangle =
      *TotalKatzScore(engine.CurrentGraph(), targets, params);

  KatzDefenseOptions opts;
  opts.katz = params;
  opts.budget = triangle_result.protectors.size();
  auto katz_result = *GreedyKatzDefense(inst.released, inst.targets, opts);
  EXPECT_LE(katz_result.final_score, katz_after_triangle + 1e-9);
}

TEST(KatzDefenseTest, StopsAtThreshold) {
  Graph g = *graph::MakeArenasEmailLike(17);
  Rng rng(19);
  auto targets = *SampleTargets(g, 3, rng);
  TppInstance inst = *MakeInstance(g, targets, motif::MotifKind::kTriangle);
  KatzDefenseOptions opts;
  opts.katz = {0.05, 3};
  opts.budget = 1000;
  double initial = *TotalKatzScore(inst.released, targets, opts.katz);
  opts.stop_score = initial / 2;
  auto result = *GreedyKatzDefense(inst.released, inst.targets, opts);
  EXPECT_LE(result.final_score, opts.stop_score);
  // It must have stopped early, not burned the whole budget.
  EXPECT_LT(result.protectors.size(), 1000u);
}

TEST(KatzDefenseTest, RejectsBadBeta) {
  Graph g = MakeGraph(3, {{0, 1}, {0, 2}, {2, 1}});
  TppInstance inst = *MakeInstance(g, {E(0, 1)}, motif::MotifKind::kTriangle);
  KatzDefenseOptions opts;
  opts.katz.beta = 1.5;
  EXPECT_FALSE(GreedyKatzDefense(inst.released, inst.targets, opts).ok());
}

TEST(KatzWalkCountsTest, PathGraphCounts) {
  // P3 (0-1-2): walks from 0: l=1 -> {1:1}; l=2 -> {0:1, 2:1};
  // l=3 -> {1:2}.
  Graph g = graph::MakePath(3);
  auto counts = *linkpred::KatzWalkCounts(g, 0, 3);
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_DOUBLE_EQ(counts[0][0], 1.0);
  EXPECT_DOUBLE_EQ(counts[1][1], 1.0);
  EXPECT_DOUBLE_EQ(counts[2][0], 1.0);
  EXPECT_DOUBLE_EQ(counts[2][2], 1.0);
  EXPECT_DOUBLE_EQ(counts[3][1], 2.0);
  EXPECT_FALSE(linkpred::KatzWalkCounts(g, 99, 3).ok());
}

}  // namespace
}  // namespace tpp::core
