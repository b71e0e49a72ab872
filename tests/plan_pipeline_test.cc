// Tests for the staged plan pipeline: instance sharing, in-batch dedup,
// content-addressed caching, and streaming delivery must all reproduce a
// cold sequential RunOneCold loop bit for bit.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/indexed_engine.h"
#include "core/tpp.h"
#include "graph/datasets.h"
#include "gtest/gtest.h"
#include "reference/run_one_cold.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"

namespace tpp::service {
namespace {

using core::IndexedEngine;
using core::SolverSpec;
using graph::Edge;
using graph::Graph;

const Graph& ArenasBase() {
  static const Graph g = *graph::MakeArenasEmailLike(1);
  return g;
}

// A request file exercising every pipeline stage: exact duplicates (r0 ==
// r4, r2 == r6), same-(targets, motif) groups under different solvers
// (r1/r5 share explicit targets), a deterministic failure (r7 samples
// more targets than the graph has edges), and mixed motifs/budgets.
std::vector<PlanRequest> PipelineBatch() {
  const std::string text =
      "# pipeline exercise\n"
      "name=r0 algorithm=sgb sample=6 seed=11 budget=5\n"
      "name=r1 algorithm=ct-tbd links=3-14;15-92 budget=6\n"
      "name=r2 algorithm=rdt sample=8 seed=12 budget=4 motif=Rectangle\n"
      "name=r3 algorithm=wt-dbd sample=5 seed=13 budget=6\n"
      "name=r4 algorithm=sgb sample=6 seed=11 budget=5\n"
      "name=r5 algorithm=wt-tbd links=3-14;15-92 budget=6\n"
      "name=r6 algorithm=rdt sample=8 seed=12 budget=4 motif=Rectangle\n"
      "name=r7 algorithm=sgb sample=999999 seed=14 budget=2\n"
      "name=r8 algorithm=full sample=4 seed=15\n";
  Result<std::vector<PlanScriptStep>> script = ParsePlanScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_EQ(script->size(), 1u);  // no edit lines: one step
  return script->front().requests;
}

void ExpectSameResponse(const PlanResponse& got, const PlanResponse& want,
                        const std::string& trace) {
  SCOPED_TRACE(trace);
  ASSERT_EQ(got.status.ok(), want.status.ok())
      << got.status.ToString() << " vs " << want.status.ToString();
  if (!want.status.ok()) {
    EXPECT_EQ(got.status.ToString(), want.status.ToString());
    return;
  }
  EXPECT_EQ(got.targets, want.targets);
  EXPECT_EQ(got.result.protectors, want.result.protectors);
  EXPECT_EQ(got.result.initial_similarity, want.result.initial_similarity);
  EXPECT_EQ(got.result.final_similarity, want.result.final_similarity);
  EXPECT_EQ(got.plan_text, want.plan_text);
}

// The acceptance check of the pipeline: instance sharing + warm cache +
// streaming delivery at several worker counts, byte-identical to a cold
// sequential RunOneCold loop over the same parsed request file.
TEST(PlanPipelineTest, EndToEndBitIdenticalToColdSequentialLoop) {
  PlanService plan_service(ArenasBase());
  std::vector<PlanRequest> requests = PipelineBatch();

  // The reference: one RunOneCold per request, nothing shared.
  std::vector<PlanResponse> reference;
  for (const PlanRequest& request : requests) {
    reference.push_back(RunOneCold(plan_service.base(), request));
  }

  PlanCache cache(64);
  for (int workers : {1, 4}) {
    // Two passes per worker count: the first fills the cache, the second
    // runs warm. Both must match the cold reference.
    for (int pass = 0; pass < 2; ++pass) {
      BatchStats stats;
      BatchOptions options;
      options.max_workers = workers;
      options.cache = &cache;
      options.stats = &stats;

      std::vector<size_t> delivery_order;
      std::vector<PlanResponse> streamed(requests.size());
      plan_service.RunBatch(
          requests, options,
          [&](size_t i, const PlanResponse& response) {
            delivery_order.push_back(i);
            streamed[i] = response;
          });

      ASSERT_EQ(delivery_order.size(), requests.size());
      for (size_t i = 0; i < delivery_order.size(); ++i) {
        EXPECT_EQ(delivery_order[i], i) << "sink must run in input order";
      }
      for (size_t i = 0; i < requests.size(); ++i) {
        ExpectSameResponse(streamed[i], reference[i],
                           requests[i].name + " workers=" +
                               std::to_string(workers) + " pass=" +
                               std::to_string(pass));
      }
      EXPECT_EQ(stats.requests, requests.size());
      EXPECT_EQ(stats.cache_hits + stats.dedup_shared + stats.solved,
                requests.size());
      if (pass == 1) {
        // Warm pass: every representative is a cache hit, nothing solves.
        EXPECT_EQ(stats.solved, 0u);
        EXPECT_GT(stats.cache_hits, 0u);
      }
    }
    cache.Clear();
  }
}

// The ResponseSink contract under real concurrency: four workers, 18
// solve units, a leading and an interior cache hit, and dedup followers
// (the last one trailing, of a cache hit). The sink must see every index
// exactly once, in input order, never re-entered, and the same bytes as
// a one-worker run.
TEST(PlanPipelineTest, ParallelSinkIsSerialInOrderAndExactlyOnce) {
  PlanService plan_service(ArenasBase());
  std::vector<PlanRequest> requests;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    PlanRequest request;
    request.name = "s" + std::to_string(seed);
    request.spec.algorithm = seed % 2 == 1 ? "sgb" : "ct-tbd";
    request.spec.budget = 3;
    request.sample = 3;
    request.seed = seed;
    requests.push_back(std::move(request));
  }
  requests.insert(requests.begin() + 7, requests[2]);
  requests.push_back(requests[10]);
  requests.push_back(requests[0]);
  const std::vector<PlanRequest> warm = {requests[0], requests[9]};

  auto run = [&](int workers) {
    PlanCache cache(0);
    BatchOptions options;
    options.cache = &cache;
    plan_service.RunBatch(warm, options);  // the two cache hits
    BatchStats stats;
    options.stats = &stats;
    options.max_workers = workers;
    std::atomic<int> inside{0};
    std::vector<size_t> order;
    std::vector<PlanResponse> got(requests.size());
    plan_service.RunBatch(
        requests, options, [&](size_t i, const PlanResponse& response) {
          EXPECT_EQ(inside.fetch_add(1), 0) << "sink re-entered at " << i;
          // Widen the window a concurrent delivery would hit.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          order.push_back(i);
          got[i] = response;
          inside.fetch_sub(1);
        });
    EXPECT_EQ(stats.cache_hits, 2u);
    EXPECT_EQ(stats.dedup_shared, 3u);
    EXPECT_EQ(stats.solved, 18u);
    EXPECT_EQ(order.size(), requests.size());
    for (size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i) << "workers=" << workers;
    }
    return got;
  };

  const std::vector<PlanResponse> serial = run(1);
  const std::vector<PlanResponse> parallel = run(4);
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(serial[i].status.ok()) << serial[i].status.ToString();
    ExpectSameResponse(parallel[i], serial[i], requests[i].name);
    EXPECT_EQ(parallel[i].from_cache, serial[i].from_cache);
  }
  EXPECT_TRUE(serial.front().from_cache);
  EXPECT_TRUE(serial.back().from_cache);
}

TEST(PlanPipelineTest, DedupSolvesEachDistinctRequestOnce) {
  PlanService plan_service(ArenasBase());
  PlanRequest request;
  request.sample = 6;
  request.seed = 21;
  request.spec.algorithm = "rdt";
  request.spec.budget = 5;
  std::vector<PlanRequest> requests(4, request);
  requests[2].seed = 22;  // one distinct request among duplicates

  BatchStats stats;
  BatchOptions options;
  options.stats = &stats;
  std::vector<PlanResponse> responses =
      plan_service.RunBatch(requests, options);

  EXPECT_EQ(stats.solved, 2u);
  EXPECT_EQ(stats.dedup_shared, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(responses[0].plan_text, responses[1].plan_text);
  EXPECT_EQ(responses[0].plan_text, responses[3].plan_text);
  EXPECT_NE(responses[0].plan_text, responses[2].plan_text);
}

TEST(PlanPipelineTest, InstanceSharingBuildsOncePerGroup) {
  PlanService plan_service(ArenasBase());
  std::vector<Edge> targets = {ArenasBase().Edges()[0],
                               ArenasBase().Edges()[42]};
  // Four distinct requests (different solvers/seeds) over ONE (targets,
  // motif) pair, plus one request on a different motif.
  const char* algorithms[] = {"sgb", "ct-tbd", "wt-dbd", "rdt"};
  std::vector<PlanRequest> requests;
  for (size_t i = 0; i < 4; ++i) {
    PlanRequest request;
    request.targets = targets;
    request.spec.algorithm = algorithms[i];
    request.spec.budget = 4;
    request.seed = 30 + i;
    requests.push_back(std::move(request));
  }
  PlanRequest other;
  other.targets = targets;
  other.motif = motif::MotifKind::kRectangle;
  other.spec.budget = 4;
  requests.push_back(std::move(other));

  BatchStats stats;
  BatchOptions options;
  options.stats = &stats;
  std::vector<PlanResponse> responses =
      plan_service.RunBatch(requests, options);

  EXPECT_EQ(stats.solved, 5u);
  EXPECT_EQ(stats.instance_groups, 2u);
  EXPECT_EQ(stats.instance_builds, 2u);  // one per group, not per request
  for (const PlanResponse& response : responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }

  // Sharing changes no output: each response equals a RunOneCold, which
  // builds its own instance.
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(responses[i].plan_text,
              RunOneCold(plan_service.base(), requests[i]).plan_text);
  }
}

// With a repository carried across batches, instance_groups counts the
// groups each run interned, not every group the repository ever held.
TEST(PlanPipelineTest, InstanceGroupsCountsTheGroupsOfThisRun) {
  PlanService plan_service(ArenasBase());
  InstanceRepository repository(&plan_service.base());
  BatchStats stats;
  BatchOptions options;
  options.repository = &repository;
  options.stats = &stats;
  // Each group serves two requests (seeds differ), so the repository
  // keeps it past its batch.
  std::vector<PlanRequest> requests(4);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].targets = {ArenasBase().Edges()[i % 2]};
    requests[i].seed = i;
  }
  plan_service.RunBatch(requests, options);
  EXPECT_EQ(stats.instance_groups, 2u);
  EXPECT_EQ(stats.instance_builds, 2u);
  requests.resize(2);
  for (PlanRequest& request : requests) {
    request.targets = {ArenasBase().Edges()[7]};
  }
  plan_service.RunBatch(requests, options);
  EXPECT_EQ(stats.instance_groups, 1u);
  EXPECT_EQ(stats.instance_builds, 1u);
  EXPECT_EQ(repository.NumGroups(), 3u);
}

TEST(PlanPipelineTest, FailuresStayIsolatedUnderSharingAndCache) {
  PlanService plan_service(ArenasBase());
  PlanRequest good;
  good.sample = 5;
  good.spec.budget = 3;
  PlanRequest bad = good;
  bad.targets = {Edge(0, 1), Edge(0, 1)};  // duplicate target: MakeInstance
                                           // rejects it at solve time
  PlanRequest missing = good;
  // Nodes beyond the fixture's range: the instance build fails, the
  // batch continues.
  missing.targets = {Edge(4000000, 4000001)};
  std::vector<PlanRequest> requests = {good, bad, good, missing};

  PlanCache cache(16);
  BatchOptions options;
  options.cache = &cache;
  std::vector<PlanResponse> responses =
      plan_service.RunBatch(requests, options);
  EXPECT_TRUE(responses[0].status.ok());
  EXPECT_FALSE(responses[1].status.ok());
  EXPECT_TRUE(responses[2].status.ok());
  EXPECT_FALSE(responses[3].status.ok());
  EXPECT_EQ(responses[0].plan_text, responses[2].plan_text);

  // Cached failures replay identically.
  std::vector<PlanResponse> warm = plan_service.RunBatch(requests, options);
  EXPECT_EQ(warm[1].status.ToString(), responses[1].status.ToString());
  EXPECT_EQ(warm[3].status.ToString(), responses[3].status.ToString());
}

TEST(PlanPipelineTest, EngineCloneIsIndependentOfPrototype) {
  std::vector<Edge> targets = {ArenasBase().Edges()[7]};
  core::TppInstance instance =
      *core::MakeInstance(ArenasBase(), targets, motif::MotifKind::kTriangle);
  IndexedEngine prototype = *IndexedEngine::Create(instance);
  const size_t initial = prototype.TotalSimilarity();
  ASSERT_GT(initial, 0u);
  prototype.Gain(instance.released.EdgeKeys()[0]);
  ASSERT_GT(prototype.GainEvaluations(), 0u);

  IndexedEngine clone = prototype.Clone();
  // A clone starts with a zeroed work counter but the prototype's state.
  EXPECT_EQ(clone.GainEvaluations(), 0u);
  EXPECT_EQ(clone.TotalSimilarity(), initial);

  // Deletions in the clone never reach the prototype (or vice versa).
  std::vector<graph::EdgeKey> candidates =
      clone.Candidates(core::CandidateScope::kTargetSubgraphEdges);
  ASSERT_FALSE(candidates.empty());
  clone.DeleteEdge(candidates[0]);
  EXPECT_LT(clone.TotalSimilarity(), initial);
  EXPECT_EQ(prototype.TotalSimilarity(), initial);
  EXPECT_TRUE(prototype.CurrentGraph().HasEdgeKey(candidates[0]));
}

TEST(PlanPipelineTest, InstanceRepositoryInternsAndRepeatsBuildErrors) {
  const Graph& base = ArenasBase();
  InstanceRepository repository(&base);
  std::vector<Edge> targets = {base.Edges()[0], base.Edges()[1]};
  std::vector<Edge> reversed = {base.Edges()[1], base.Edges()[0]};

  size_t a = repository.Intern(targets, motif::MotifKind::kTriangle);
  size_t b = repository.Intern(targets, motif::MotifKind::kTriangle);
  EXPECT_EQ(a, b);
  // Target order is part of the identity (budgets and serialization
  // follow positions), as is the motif.
  EXPECT_NE(a, repository.Intern(reversed, motif::MotifKind::kTriangle));
  EXPECT_NE(a, repository.Intern(targets, motif::MotifKind::kRectangle));
  EXPECT_EQ(repository.NumGroups(), 3u);

  Result<IndexedEngine> first = repository.AcquireEngine(a);
  Result<IndexedEngine> second = repository.AcquireEngine(a);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(repository.NumBuilds(), 1u);  // built once, copied twice
  EXPECT_EQ(repository.NumAcquisitions(), 2u);
  EXPECT_EQ(first->TotalSimilarity(), second->TotalSimilarity());

  // A group whose build fails reports the same error to every acquirer:
  // nothing is memoized, each acquirer builds again.
  size_t bad = repository.Intern({Edge(0, 1), Edge(0, 1)},
                                 motif::MotifKind::kTriangle);
  Result<IndexedEngine> e1 = repository.AcquireEngine(bad);
  Result<IndexedEngine> e2 = repository.AcquireEngine(bad);
  EXPECT_FALSE(e1.ok());
  EXPECT_EQ(e1.status().ToString(), e2.status().ToString());
  EXPECT_EQ(repository.NumBuilds(), 3u);
}

}  // namespace
}  // namespace tpp::service
