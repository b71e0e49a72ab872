// Tests for cooperative cancellation (common/cancellation.h) and its
// threading through the plan service: deadline tokens, explicit cancel,
// parent chaining, the deadline_ms request key, and the service-level
// guarantees — an expired request fails with kDeadlineExceeded without
// stalling the rest of its batch, a generous deadline changes nothing
// byte for byte, and timing failures are never served from the cache.

#include "common/cancellation.h"

#include <chrono>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "motif/incidence_index.h"
#include "reference/run_one_cold.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "test_util.h"

namespace tpp::service {
namespace {

using ::tpp::testing::BuildFreshIndex;
using Clock = CancellationToken::Clock;
using graph::Graph;

const Graph& ArenasBase() {
  static const Graph g = *graph::MakeArenasEmailLike(1);
  return g;
}

// Base graph for the deadline tests: large enough that kHeavyRequest
// takes ~20ms cold, so a 1ms deadline expires with a 20x margin rather
// than racing the solver.
const Graph& HeavyBase() {
  static const Graph g = [] {
    Rng rng(5);
    return *graph::HolmeKim(40000, 6, 0.4, rng);
  }();
  return g;
}

// A request whose cold solve on HeavyBase() takes well over a
// millisecond: a wide rectangle-motif instance with a deep budget. The
// deadline tests rely on "this cannot finish in 1ms", which holds with
// ~20x margin.
constexpr const char* kHeavyRequest =
    "algorithm=sgb sample=1500 seed=3 budget=300 motif=Rectangle";

std::vector<PlanRequest> Parse(const std::string& text) {
  Result<std::vector<PlanScriptStep>> script = ParsePlanScript(text);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  return script->front().requests;  // no edit lines: one step
}

void ExpectSameResponse(const PlanResponse& got, const PlanResponse& want,
                        const std::string& trace) {
  SCOPED_TRACE(trace);
  ASSERT_EQ(got.status.ToString(), want.status.ToString());
  EXPECT_EQ(got.targets, want.targets);
  EXPECT_EQ(got.result.protectors, want.result.protectors);
  EXPECT_EQ(got.result.initial_similarity, want.result.initial_similarity);
  EXPECT_EQ(got.result.final_similarity, want.result.final_similarity);
  EXPECT_EQ(got.plan_text, want.plan_text);
}

// ------------------------------------------------------------ token unit

TEST(CancellationTokenTest, UnarmedTokenIsLive) {
  CancellationToken token;
  EXPECT_FALSE(token.Expired());
  EXPECT_TRUE(token.Check("site").ok());
  EXPECT_TRUE(PollCancellation(nullptr, "site").ok());
  EXPECT_TRUE(PollCancellation(&token, "site").ok());
}

TEST(CancellationTokenTest, PastDeadlineIsDeadlineExceeded) {
  CancellationToken token(Clock::now() - std::chrono::seconds(1));
  EXPECT_TRUE(token.Expired());
  Status status = token.Check("solver round");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(status.message().find("solver round"), std::string::npos)
      << "the message must name the checkpoint that observed expiry";
}

TEST(CancellationTokenTest, CancelIsAbortedAndWinsOverDeadline) {
  CancellationToken token(Clock::now() - std::chrono::seconds(1));
  token.Cancel();
  EXPECT_TRUE(token.canceled());
  EXPECT_EQ(token.Check("site").code(), StatusCode::kAborted);
}

TEST(CancellationTokenTest, TightenKeepsTheEarliestDeadline) {
  CancellationToken token;
  EXPECT_FALSE(token.has_deadline());
  const Clock::time_point soon = Clock::now() + std::chrono::seconds(10);
  token.TightenDeadline(soon);
  ASSERT_TRUE(token.has_deadline());
  EXPECT_EQ(token.deadline(), soon);
  // A later deadline never loosens an armed token.
  token.TightenDeadline(soon + std::chrono::seconds(10));
  EXPECT_EQ(token.deadline(), soon);
  // An earlier one tightens.
  token.TightenDeadline(soon - std::chrono::seconds(5));
  EXPECT_EQ(token.deadline(), soon - std::chrono::seconds(5));
}

TEST(CancellationTokenTest, ParentChainPropagatesExpiry) {
  CancellationToken parent;
  CancellationToken child;
  child.set_parent(&parent);
  EXPECT_TRUE(child.Check("site").ok());
  parent.Cancel();
  EXPECT_TRUE(child.Expired());
  EXPECT_EQ(child.Check("site").code(), StatusCode::kAborted);

  CancellationToken expired_parent(Clock::now() - std::chrono::seconds(1));
  CancellationToken child2;
  child2.set_parent(&expired_parent);
  EXPECT_EQ(child2.Check("site").code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, AfterMillisZeroExpiresImmediately) {
  CancellationToken token = CancellationToken::AfterMillis(0);
  EXPECT_TRUE(token.Expired());
}

// -------------------------------------------------------- request plumbing

TEST(PlanRequestDeadlineTest, DeadlineKeyParses) {
  std::vector<PlanRequest> requests =
      Parse("name=a algorithm=sgb sample=4 seed=1 budget=2 deadline_ms=250\n");
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].deadline_ms, 250);
}

TEST(PlanRequestDeadlineTest, DeadlineStaysOutOfTheCacheKey) {
  // deadline_ms is a wall-clock knob, like rounds: it never changes what
  // a finished run computes, so it must not fragment the plan cache.
  PlanService plan_service(ArenasBase());
  PlanRequest request;
  request.sample = 4;
  request.seed = 1;
  request.spec.algorithm = "sgb";
  request.spec.budget = 2;
  const std::string bare =
      CanonicalRequestKey(plan_service.fingerprint(), request);
  request.deadline_ms = 250;
  EXPECT_EQ(CanonicalRequestKey(plan_service.fingerprint(), request), bare);
}

// ------------------------------------------------------------- service

TEST(PlanServiceDeadlineTest, PreCanceledRequestAborts) {
  PlanService plan_service(HeavyBase());
  std::vector<PlanRequest> requests =
      Parse(std::string("name=r ") + kHeavyRequest + "\n");
  CancellationToken token;
  token.Cancel();
  requests[0].cancel = &token;
  std::vector<PlanResponse> responses = plan_service.RunBatch(requests);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kAborted);
}

TEST(PlanServiceDeadlineTest, ExpiredTokenFailsFastViaRunBatch) {
  PlanService plan_service(HeavyBase());
  std::vector<PlanRequest> requests =
      Parse(std::string("name=r ") + kHeavyRequest + "\n");
  CancellationToken token(Clock::now() - std::chrono::seconds(1));
  requests[0].cancel = &token;
  std::vector<PlanResponse> responses = plan_service.RunBatch(requests);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kDeadlineExceeded);
}

TEST(PlanServiceDeadlineTest, TightDeadlineExpiresWithoutStallingBatch) {
  PlanService plan_service(HeavyBase());
  const std::string text =
      std::string("name=fast0 algorithm=sgb sample=6 seed=11 budget=5\n") +
      "name=slow " + kHeavyRequest + " deadline_ms=1\n" +
      "name=fast1 algorithm=ct-tbd sample=6 seed=12 budget=5\n";
  std::vector<PlanRequest> requests = Parse(text);

  // No-deadline references for the neighbors of the expiring request.
  PlanRequest fast0 = requests[0], fast1 = requests[2];
  const PlanResponse want0 = RunOneCold(plan_service.base(), fast0);
  const PlanResponse want1 = RunOneCold(plan_service.base(), fast1);

  PlanCache cache(16);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    BatchStats stats;
    BatchOptions options;
    options.max_workers = 2;
    options.cache = &cache;
    options.stats = &stats;
    std::vector<PlanResponse> responses =
        plan_service.RunBatch(requests, options);
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[1].status.code(), StatusCode::kDeadlineExceeded);
    ExpectSameResponse(responses[0], want0, "fast0");
    ExpectSameResponse(responses[2], want1, "fast1");
    EXPECT_EQ(stats.deadline_exceeded, 1u);
    // The deadline verdict is timing-dependent and must never memoize:
    // the warm pass re-solves the expiring request (and only it).
    if (pass == 1) {
      EXPECT_EQ(stats.cache_hits, 2u);
      EXPECT_EQ(stats.solved, 1u);
    }
  }
}

TEST(PlanServiceDeadlineTest, GenerousDeadlinesAreBitIdentical) {
  PlanService plan_service(ArenasBase());
  const std::string bare =
      std::string("name=a algorithm=sgb sample=8 seed=5 budget=6\n") +
      "name=b algorithm=wt-dbd sample=6 seed=7 budget=5\n";
  const std::string bounded =
      std::string(
          "name=a algorithm=sgb sample=8 seed=5 budget=6 deadline_ms=60000\n") +
      "name=b algorithm=wt-dbd sample=6 seed=7 budget=5 deadline_ms=60000\n";
  std::vector<PlanRequest> without = Parse(bare);
  std::vector<PlanRequest> with = Parse(bounded);

  BatchStats stats;
  BatchOptions options;
  options.batch_deadline_ms = 600000;
  options.stats = &stats;
  std::vector<PlanResponse> reference =
      plan_service.RunBatch(without, BatchOptions{});
  std::vector<PlanResponse> bounded_run =
      plan_service.RunBatch(with, options);
  ASSERT_EQ(reference.size(), bounded_run.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ExpectSameResponse(bounded_run[i], reference[i],
                       "request " + std::to_string(i));
  }
  EXPECT_EQ(stats.deadline_exceeded, 0u);
}

TEST(PlanServiceDeadlineTest, BatchDeadlineCoversEveryRequest) {
  PlanService plan_service(HeavyBase());
  const std::string text = std::string("name=h0 ") + kHeavyRequest + "\n" +
                           "name=h1 algorithm=sgb sample=1500 seed=4 "
                           "budget=300 motif=Rectangle\n";
  std::vector<PlanRequest> requests = Parse(text);
  BatchStats stats;
  BatchOptions options;
  options.batch_deadline_ms = 1;
  options.stats = &stats;
  std::vector<PlanResponse> responses =
      plan_service.RunBatch(requests, options);
  ASSERT_EQ(responses.size(), 2u);
  for (const PlanResponse& response : responses) {
    EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(stats.deadline_exceeded, 2u);
}

TEST(PlanServiceDeadlineTest, CacheHitsServeUnderAnExpiredBatchDeadline) {
  // Deadline tokens arm after the cache probe: a warm batch costs no
  // deadline budget, so even a 1ms batch deadline serves entirely from
  // cache — the heavy request that would blow the deadline cold is a
  // hit.
  PlanService plan_service(HeavyBase());
  std::vector<PlanRequest> requests =
      Parse(std::string("name=h ") + kHeavyRequest + "\n");
  PlanCache cache(8);
  BatchOptions warm;
  warm.cache = &cache;
  std::vector<PlanResponse> first = plan_service.RunBatch(requests, warm);
  ASSERT_TRUE(first[0].status.ok()) << first[0].status.ToString();

  BatchStats stats;
  BatchOptions tight;
  tight.cache = &cache;
  tight.batch_deadline_ms = 1;
  tight.stats = &stats;
  std::vector<PlanResponse> second = plan_service.RunBatch(requests, tight);
  ASSERT_TRUE(second[0].status.ok()) << second[0].status.ToString();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  ExpectSameResponse(second[0], first[0], "warm heavy request");
}

// --------------------------------------------- build-stage cancellation
//
// The pipeline's build-once stage (instance build / index construction)
// is the most expensive unit of work a request pays for; cancellation
// must reach INSIDE it, not just solver round boundaries. And because a
// cancel/deadline failure is a property of the requesting caller's
// clock, not of the group, it must never be memoized — the next acquirer
// rebuilds under its own deadline.

// An existing edge of the base to protect.
graph::Edge FirstEdge(const Graph& g) {
  for (graph::NodeId u = 0; u < g.NumNodes(); ++u) {
    if (g.Degree(u) > 0) return graph::Edge(u, g.Neighbors(u)[0]);
  }
  ADD_FAILURE() << "base graph has no edges";
  return graph::Edge(0, 1);
}

TEST(BuildStageCancellationTest, IndexBuildPollsTheToken) {
  Graph released = ArenasBase();
  const graph::Edge target = FirstEdge(released);
  ASSERT_TRUE(released.RemoveEdge(target.u, target.v).ok());

  CancellationToken canceled;
  canceled.Cancel();
  motif::IncidenceIndex::BuildOptions options;
  options.cancel = &canceled;
  Result<motif::IncidenceIndex> index = BuildFreshIndex(
      released, {target}, motif::MotifKind::kTriangle, options);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kAborted)
      << index.status().ToString();

  // An expired deadline takes the same stage-boundary exits with the
  // deadline code.
  CancellationToken expired(Clock::now() - std::chrono::seconds(1));
  options.cancel = &expired;
  index = BuildFreshIndex(released, {target},
                          motif::MotifKind::kTriangle, options);
  ASSERT_FALSE(index.ok());
  EXPECT_EQ(index.status().code(), StatusCode::kDeadlineExceeded)
      << index.status().ToString();

  // The same build without a token succeeds: polling is the only effect.
  options.cancel = nullptr;
  index = BuildFreshIndex(released, {target},
                          motif::MotifKind::kTriangle, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
}

TEST(BuildStageCancellationTest, CanceledBuildIsNotMemoizedByTheRepository) {
  const Graph& base = ArenasBase();
  InstanceRepository repository(&base);
  const size_t group = repository.Intern({FirstEdge(base)},
                                         motif::MotifKind::kTriangle);

  CancellationToken canceled;
  canceled.Cancel();
  Result<core::IndexedEngine> aborted =
      repository.AcquireEngine(group, &canceled);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(aborted.status().code(), StatusCode::kAborted)
      << aborted.status().ToString();

  // The cancellation fails this acquirer alone: the group stays unbuilt
  // and the next acquisition (no token) builds cleanly.
  Result<core::IndexedEngine> rebuilt = repository.AcquireEngine(group);
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(repository.NumAcquisitions(), 2u);
}

}  // namespace
}  // namespace tpp::service
