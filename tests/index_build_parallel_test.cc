// Differential tests of the parallel, allocation-lean IncidenceIndex build
// path against the serial reference: bit-identity at every thread count on
// every motif, hub-split task planning, post-build DeleteEdge equivalence
// (the slot-table fast path), the maintained alive-edge count, the
// parallel TotalSimilarity sweep, and end-to-end byte-identity of plan
// files across build thread budgets.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/flags.h"
#include "core/problem.h"
#include "graph/generators.h"
#include "motif/enumerate.h"
#include "motif/incidence_index.h"
#include "service/plan_service.h"
#include "test_util.h"

namespace tpp::motif {
namespace {

using core::TppInstance;
using graph::Edge;
using graph::Graph;
using ::tpp::testing::E;
using ::tpp::testing::MakeGraph;

// Phase-1 instance over `g` with `count` targets sampled at `seed`.
TppInstance SampledInstance(const Graph& g, size_t count, uint64_t seed,
                            MotifKind kind) {
  Rng rng(seed);
  auto targets = *core::SampleTargets(g, count, rng);
  return *core::MakeInstance(g, targets, kind);
}

class IndexBuildParallelTest : public ::testing::TestWithParam<MotifKind> {};

TEST_P(IndexBuildParallelTest, BitIdenticalToSerialOnRandomGraphs) {
  const MotifKind kind = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Result<Graph> g = graph::HolmeKim(250, 4, 0.3, rng);
    ASSERT_TRUE(g.ok());
    TppInstance inst = SampledInstance(*g, 12, seed + 100, kind);
    auto serial = IncidenceIndex::BuildSerialReference(
        inst.released, inst.targets, inst.motif);
    ASSERT_TRUE(serial.ok());
    for (int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      IncidenceIndex::BuildOptions options;
      options.threads = threads;
      auto parallel = IncidenceIndex::Build(inst.released, inst.targets,
                                            inst.motif, options);
      ASSERT_TRUE(parallel.ok());
      EXPECT_TRUE(parallel->BitIdentical(*serial));
    }
  }
}

TEST_P(IndexBuildParallelTest, BitIdenticalOnSparseRandomGraph) {
  const MotifKind kind = GetParam();
  Rng rng(11);
  Result<Graph> g = graph::ErdosRenyiGnm(400, 1200, rng);
  ASSERT_TRUE(g.ok());
  TppInstance inst = SampledInstance(*g, 15, 7, kind);
  auto serial = IncidenceIndex::BuildSerialReference(
      inst.released, inst.targets, inst.motif);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 8}) {
    IncidenceIndex::BuildOptions options;
    options.threads = threads;
    auto parallel = IncidenceIndex::Build(inst.released, inst.targets,
                                          inst.motif, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_TRUE(parallel->BitIdentical(*serial));
  }
}

TEST_P(IndexBuildParallelTest, EnumerateAllMatchesPerTargetConcatenation) {
  const MotifKind kind = GetParam();
  Rng rng(5);
  Result<Graph> g = graph::HolmeKim(200, 5, 0.4, rng);
  ASSERT_TRUE(g.ok());
  TppInstance inst = SampledInstance(*g, 10, 9, kind);
  std::vector<TargetSubgraph> expected;
  for (size_t t = 0; t < inst.targets.size(); ++t) {
    std::vector<TargetSubgraph> one = EnumerateTargetSubgraphs(
        inst.released, inst.targets[t], kind, static_cast<int32_t>(t));
    expected.insert(expected.end(), one.begin(), one.end());
  }
  for (int threads : {1, 4}) {
    EXPECT_EQ(EnumerateAllTargetSubgraphs(inst.released, inst.targets, kind,
                                          threads),
              expected)
        << "threads=" << threads;
  }
}

TEST_P(IndexBuildParallelTest, RangeUnionMatchesFullEnumeration) {
  const MotifKind kind = GetParam();
  Rng rng(13);
  Result<Graph> g = graph::HolmeKim(150, 4, 0.3, rng);
  ASSERT_TRUE(g.ok());
  TppInstance inst = SampledInstance(*g, 6, 3, kind);
  EnumerateScratch scratch;
  for (size_t t = 0; t < inst.targets.size(); ++t) {
    const Edge target = inst.targets[t];
    const size_t deg = inst.released.Degree(target.u);
    std::vector<TargetSubgraph> whole = EnumerateTargetSubgraphs(
        inst.released, target, kind, static_cast<int32_t>(t));
    // Concatenating arbitrary consecutive ranges reproduces the full
    // enumeration, the invariant hub splitting relies on.
    std::vector<TargetSubgraph> pieces;
    const size_t step = deg < 3 ? 1 : deg / 3;
    for (size_t lo = 0; lo < deg; lo += step) {
      AppendTargetSubgraphs(inst.released, target, kind,
                            static_cast<int32_t>(t), lo,
                            std::min(lo + step, deg), scratch, pieces);
    }
    EXPECT_EQ(pieces, whole) << "target " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllMotifs, IndexBuildParallelTest,
                         ::testing::ValuesIn(kAllMotifs),
                         [](const auto& info) {
                           return std::string(MotifName(info.param));
                         });

// A hub target (deg > 128) must split into several first-neighbor-chunk
// tasks for the heavy motifs and stay one task for Triangle.
TEST(EnumerationTaskTest, HubTargetsSplitForHeavyMotifs) {
  Graph g(300);
  for (graph::NodeId w = 2; w < 300; ++w) {
    ASSERT_TRUE(g.AddEdge(0, w).ok());      // hub 0: degree 298
    if (w % 3 == 0) ASSERT_TRUE(g.AddEdge(1, w).ok());
  }
  const std::vector<Edge> targets = {E(0, 1)};
  EXPECT_EQ(PlanEnumerationTasks(g, targets, MotifKind::kTriangle).size(),
            1u);
  const auto rect_tasks =
      PlanEnumerationTasks(g, targets, MotifKind::kRectangle);
  EXPECT_GT(rect_tasks.size(), 1u);
  // Chunks tile [0, deg) without gaps or overlaps, in order.
  uint32_t expect_begin = 0;
  for (const EnumerationTask& task : rect_tasks) {
    EXPECT_EQ(task.target, 0u);
    EXPECT_EQ(task.nbr_begin, expect_begin);
    EXPECT_GT(task.nbr_end, task.nbr_begin);
    expect_begin = task.nbr_end;
  }
  EXPECT_EQ(expect_begin, g.Degree(0));

  // And the split build is still bit-identical to the serial one.
  for (MotifKind kind : kAllMotifs) {
    auto serial = IncidenceIndex::BuildSerialReference(g, targets, kind);
    ASSERT_TRUE(serial.ok());
    IncidenceIndex::BuildOptions options;
    options.threads = 4;
    auto parallel = IncidenceIndex::Build(g, targets, kind, options);
    ASSERT_TRUE(parallel.ok());
    EXPECT_TRUE(parallel->BitIdentical(*serial))
        << MotifName(kind);
  }
}

// Degree-zero targets produce no tasks and no instances but keep their
// alive-count slot.
TEST(EnumerationTaskTest, IsolatedTargetEndpointIsHandled) {
  Graph g = MakeGraph(5, {{1, 2}, {2, 3}, {3, 4}});
  const std::vector<Edge> targets = {E(0, 1), E(1, 3)};
  EXPECT_EQ(PlanEnumerationTasks(g, targets, MotifKind::kTriangle).size(),
            1u);  // target 0's u has degree 0
  auto serial =
      IncidenceIndex::BuildSerialReference(g, targets, MotifKind::kTriangle);
  ASSERT_TRUE(serial.ok());
  IncidenceIndex::BuildOptions options;
  options.threads = 4;
  auto parallel = IncidenceIndex::Build(g, targets, MotifKind::kTriangle,
                                        options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_TRUE(parallel->BitIdentical(*serial));
  EXPECT_EQ(parallel->NumTargets(), 2u);
  EXPECT_EQ(parallel->AliveForTarget(0), 0u);
}

// The slot-table DeleteEdge fast path must evolve a parallel-built index
// exactly like the serial one under a full greedy-style deletion sequence.
TEST(IndexBuildDeleteTest, DeleteSequencesMatchSerialBuild) {
  for (MotifKind kind : kAllMotifs) {
    SCOPED_TRACE(std::string(MotifName(kind)));
    Rng rng(21);
    Result<Graph> g = graph::HolmeKim(180, 4, 0.35, rng);
    ASSERT_TRUE(g.ok());
    TppInstance inst = SampledInstance(*g, 10, 17, kind);
    auto serial = *IncidenceIndex::BuildSerialReference(
        inst.released, inst.targets, inst.motif);
    IncidenceIndex::BuildOptions options;
    options.threads = 4;
    auto parallel = *IncidenceIndex::Build(inst.released, inst.targets,
                                           inst.motif, options);
    // Greedily delete the current best candidate until nothing is alive.
    while (serial.TotalAlive() > 0) {
      std::vector<graph::EdgeKey> edges = serial.AliveCandidateEdges();
      ASSERT_FALSE(edges.empty());
      size_t best = 0;
      for (size_t i = 1; i < edges.size(); ++i) {
        if (serial.Gain(edges[i]) > serial.Gain(edges[best])) best = i;
      }
      EXPECT_EQ(parallel.DeleteEdge(edges[best]),
                serial.DeleteEdge(edges[best]));
      EXPECT_TRUE(parallel.BitIdentical(serial));
    }
    EXPECT_EQ(parallel.TotalAlive(), 0u);
    EXPECT_EQ(parallel.NumAliveEdges(), 0u);
  }
}

// NumAliveEdges tracks |AliveCandidateEdges()| through arbitrary deletes.
TEST(IndexBuildDeleteTest, NumAliveEdgesTracksCandidateCount) {
  Rng rng(31);
  Result<Graph> g = graph::HolmeKim(150, 4, 0.3, rng);
  ASSERT_TRUE(g.ok());
  TppInstance inst = SampledInstance(*g, 8, 23, MotifKind::kRecTri);
  auto idx = *IncidenceIndex::Build(inst.released, inst.targets, inst.motif);
  EXPECT_EQ(idx.NumAliveEdges(), idx.NumInternedEdges());
  Rng pick(5);
  while (idx.TotalAlive() > 0) {
    std::vector<graph::EdgeKey> candidates = idx.AliveCandidateEdges();
    ASSERT_EQ(candidates.size(), idx.NumAliveEdges());
    idx.DeleteEdge(candidates[pick.UniformIndex(candidates.size())]);
  }
  EXPECT_EQ(idx.NumAliveEdges(), 0u);
  EXPECT_TRUE(idx.AliveCandidateEdges().empty());
}

TEST(TotalSimilarityTest, ParallelMatchesSerial) {
  Rng rng(41);
  Result<Graph> g = graph::HolmeKim(300, 5, 0.4, rng);
  ASSERT_TRUE(g.ok());
  for (MotifKind kind : kAllMotifs) {
    TppInstance inst = SampledInstance(*g, 14, 29, kind);
    const size_t serial =
        TotalSimilarity(inst.released, inst.targets, kind, 1);
    for (int threads : {2, 4, 8}) {
      EXPECT_EQ(TotalSimilarity(inst.released, inst.targets, kind, threads),
                serial)
          << MotifName(kind) << " threads=" << threads;
    }
  }
}

// End to end: the plan files `tpp protect` / `tpp batch` would write are
// byte-identical whatever the global build thread budget is.
TEST(IndexBuildServiceTest, PlanFilesByteIdenticalAcrossBuildThreads) {
  Rng rng(51);
  Result<Graph> g = graph::HolmeKim(220, 4, 0.3, rng);
  ASSERT_TRUE(g.ok());
  service::PlanService plan_service(*g);
  std::vector<service::PlanRequest> requests;
  for (size_t i = 0; i < 4; ++i) {
    service::PlanRequest request;
    request.name = "r" + std::to_string(i);
    request.sample = 6;
    request.seed = 60 + i;
    request.motif =
        i % 2 == 0 ? MotifKind::kTriangle : MotifKind::kRecTri;
    request.spec.budget = 5;
    requests.push_back(std::move(request));
  }

  auto run_at = [&](int global_threads) {
    SetGlobalThreadCount(global_threads);
    std::vector<std::string> plans;
    for (const service::PlanResponse& response :
         plan_service.RunBatch(requests, /*max_workers=*/global_threads)) {
      EXPECT_TRUE(response.status.ok()) << response.status.ToString();
      plans.push_back(response.plan_text);
    }
    return plans;
  };
  const std::vector<std::string> at_one = run_at(1);
  const std::vector<std::string> at_four = run_at(4);
  SetGlobalThreadCount(0);  // restore the automatic resolution
  ASSERT_EQ(at_one.size(), at_four.size());
  for (size_t i = 0; i < at_one.size(); ++i) {
    EXPECT_EQ(at_one[i], at_four[i]) << "request " << i;
    EXPECT_FALSE(at_one[i].empty());
  }
}

}  // namespace
}  // namespace tpp::motif
