// Tests for protection reporting and deletion-plan round-trips.

#include "core/report.h"

#include <gtest/gtest.h>

#include "core/greedy.h"
#include "core/indexed_engine.h"
#include "graph/fixtures.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using graph::Edge;
using graph::Graph;
using ::tpp::testing::E;

struct Fixture {
  Graph g = graph::MakeKarateClub();
  TppInstance instance;
  ProtectionResult result;

  Fixture() {
    Rng rng(3);
    auto targets = *SampleTargets(g, 4, rng);
    instance = *MakeInstance(g, targets, motif::MotifKind::kTriangle);
    IndexedEngine engine = *IndexedEngine::Create(instance);
    result = *FullProtection(engine);
  }
};

TEST(ReportTest, FormatMentionsKeyFacts) {
  Fixture fx;
  std::string report = FormatProtectionReport(fx.g, fx.instance, fx.result);
  EXPECT_NE(report.find("Triangle"), std::string::npos);
  // The released graph's summary, without the report making that graph.
  EXPECT_NE(report.find("released graph:   " +
                        fx.instance.released.DebugString() + "\n"),
            std::string::npos);
  EXPECT_NE(report.find("full protection"), std::string::npos);
  EXPECT_NE(report.find("targets:          4"), std::string::npos);
  // One pick line per protector.
  size_t lines = 0;
  for (char c : report) {
    if (c == '\n') ++lines;
  }
  EXPECT_GE(lines, fx.result.protectors.size());
}

TEST(PlanTest, SerializeParseRoundTrip) {
  Fixture fx;
  std::string text = SerializeDeletionPlan(fx.instance, fx.result);
  auto plan = ParseDeletionPlan(text);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->targets.size(), fx.instance.targets.size());
  ASSERT_EQ(plan->protectors.size(), fx.result.protectors.size());
  for (size_t i = 0; i < plan->targets.size(); ++i) {
    EXPECT_EQ(plan->targets[i], fx.instance.targets[i]);
  }
  for (size_t i = 0; i < plan->protectors.size(); ++i) {
    EXPECT_EQ(plan->protectors[i], fx.result.protectors[i]);
  }
}

TEST(PlanTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseDeletionPlan("").ok());
  EXPECT_FALSE(ParseDeletionPlan("target 0 1\n").ok());  // missing header
  EXPECT_FALSE(
      ParseDeletionPlan("# tpp deletion plan v1\nbogus 1 2\n").ok());
  EXPECT_FALSE(
      ParseDeletionPlan("# tpp deletion plan v1\ntarget 1\n").ok());
  EXPECT_FALSE(
      ParseDeletionPlan("# tpp deletion plan v1\ntarget 2 2\n").ok());
  EXPECT_FALSE(
      ParseDeletionPlan("# tpp deletion plan v1\ntarget a b\n").ok());
}

TEST(PlanTest, ApplyProducesReleasedGraph) {
  Fixture fx;
  auto plan = *ParseDeletionPlan(SerializeDeletionPlan(fx.instance,
                                                       fx.result));
  auto released = *ApplyDeletionPlan(fx.g, plan);
  EXPECT_EQ(released.NumEdges(),
            fx.g.NumEdges() - plan.targets.size() - plan.protectors.size());
  for (const Edge& e : plan.AllDeletions()) {
    EXPECT_FALSE(released.HasEdge(e.u, e.v));
  }
}

TEST(PlanTest, ApplyRejectsMismatchedGraph) {
  Fixture fx;
  auto plan = *ParseDeletionPlan(SerializeDeletionPlan(fx.instance,
                                                       fx.result));
  Graph wrong = graph::MakePath(50);
  auto released = ApplyDeletionPlan(wrong, plan);
  ASSERT_FALSE(released.ok());
  EXPECT_EQ(released.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PlanTest, FileRoundTrip) {
  Fixture fx;
  std::string path = ::testing::TempDir() + "/tpp_plan_test.plan";
  ASSERT_TRUE(SaveDeletionPlan(fx.instance, fx.result, path).ok());
  auto plan = LoadDeletionPlan(path);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->targets.size(), fx.instance.targets.size());
  EXPECT_EQ(plan->protectors.size(), fx.result.protectors.size());
  EXPECT_FALSE(LoadDeletionPlan("/nonexistent/plan").ok());
}

}  // namespace
}  // namespace tpp::core
