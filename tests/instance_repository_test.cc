// The instance repository's admission rule and byte cap. A group that
// served one acquisition leaves the table with its batch, and its key is
// kept once it serves a second (the sighting table credits a dropped key
// with its first use). Trim erases least recently acquired groups past the
// cap, an evicted or edit-reset group leaves nothing in the table and
// rebuilds when it is interned and acquired again, ApplyEdit never sees
// it, and no response byte depends on any of this — a repository under a
// tiny cap answers a random script of requests and edits exactly like an
// uncapped one, at 1 and 4 workers, a script of one-off and repeated sets
// answers like the cold oracle, and the table never outgrows its resident
// groups.

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/problem.h"
#include "core/solver.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "reference/run_one_cold.h"
#include "service/instance_repository.h"
#include "service/plan_service.h"
#include "test_util.h"

namespace tpp::service {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphDelta;
using motif::MotifKind;

Graph ScriptGraph() {
  Rng rng(2302);
  return *graph::HolmeKim(160, 3, 0.5, rng);
}

// One step of a script: a batch, then an edit of the base graph (empty
// on odd steps, so groups evicted by one batch are acquired again by the
// next without an edit in between).
struct Step {
  std::vector<PlanRequest> requests;
  GraphDelta edit;
};

// Up to `removes` present edges out and up to `inserts` absent pairs in.
GraphDelta RandomEdit(const Graph& g, size_t removes, size_t inserts,
                      Rng& rng) {
  std::set<graph::EdgeKey> touched;
  std::vector<Edge> inserted;
  std::vector<Edge> removed;
  const std::vector<Edge> edges = g.Edges();
  for (size_t i = 0; i < removes; ++i) {
    const Edge& e = edges[rng.UniformIndex(edges.size())];
    if (touched.insert(e.Key()).second) removed.push_back(e);
  }
  for (size_t i = 0; i < inserts; ++i) {
    const auto u = static_cast<graph::NodeId>(rng.UniformIndex(g.NumNodes()));
    const auto v = static_cast<graph::NodeId>(rng.UniformIndex(g.NumNodes()));
    if (u == v || g.HasEdge(u, v)) continue;
    if (touched.insert(graph::MakeEdgeKey(u, v)).second) {
      inserted.emplace_back(u, v);
    }
  }
  return *graph::MakeGraphDelta(std::move(inserted), std::move(removed));
}

// A seeded script over every solver, motif and scope. Requests draw their
// targets from a small pool, so groups recur across batches: a capped
// repository re-acquires groups it evicted, an uncapped one copies them.
// Edits may remove pooled target links; those groups then fail to build,
// the same way under both repositories.
std::vector<Step> RandomScript(uint64_t seed) {
  Rng rng(seed);
  Graph g = ScriptGraph();
  std::vector<std::vector<Edge>> pool;
  for (size_t i = 0; i < 8; ++i) {
    pool.push_back(rng.SampleK(g.Edges(), 2 + i % 3));
  }
  const std::vector<std::string_view> solvers = core::SolverNames();
  std::vector<Step> script(6);
  size_t next = 0;
  for (size_t s = 0; s < script.size(); ++s) {
    Step& step = script[s];
    for (size_t i = 0; i < 9; ++i, ++next) {
      PlanRequest request;
      request.name = StrFormat("q%zu", next);
      request.targets = pool[rng.UniformIndex(pool.size())];
      request.motif = motif::kAllMotifs[next % std::size(motif::kAllMotifs)];
      request.spec.algorithm = std::string(solvers[next % solvers.size()]);
      request.spec.scope = next % 2 == 0
                               ? core::CandidateScope::kAllEdges
                               : core::CandidateScope::kTargetSubgraphEdges;
      request.spec.budget = 3;
      request.seed = 100 + next;
      step.requests.push_back(std::move(request));
    }
    if (s % 2 == 1) continue;
    step.edit = RandomEdit(g, 3, 3, rng);
    TPP_CHECK(g.ApplyDelta(step.edit).ok());
  }
  return script;
}

// The script's transcript — per request its status and plan — through one
// repository carried across every batch and edit. Each batch runs twice,
// so every group it names serves a second acquisition and stays past the
// batch until the cap evicts it.
struct ScriptRun {
  std::vector<std::string> transcript;
  std::vector<size_t> evictions_after_batch;
  size_t edit_repairs = 0;
};

ScriptRun RunScript(const std::vector<Step>& script, size_t max_bytes,
                    int workers) {
  PlanService service(ScriptGraph());
  InstanceRepository repository(&service.base(), max_bytes);
  BatchOptions options;
  options.repository = &repository;
  options.max_workers = workers;
  ScriptRun run;
  for (size_t s = 0; s < script.size(); ++s) {
    for (int pass = 0; pass < 2; ++pass) {
      for (const PlanResponse& response :
           service.RunBatch(script[s].requests, options)) {
        run.transcript.push_back(response.status.ToString() + "\n" +
                                 response.plan_text);
      }
    }
    run.evictions_after_batch.push_back(repository.NumEvictions());
    EXPECT_LE(repository.ResidentBytes(), max_bytes);
    if (script[s].edit.empty()) continue;
    Result<EditSummary> summary =
        service.ApplyEdit(script[s].edit, nullptr, &repository);
    TPP_CHECK(summary.ok());
    run.edit_repairs += summary->groups_repaired;
  }
  return run;
}

TEST(InstanceRepositoryCapTest, TinyCapAnswersARandomScriptByteIdentically) {
  const std::vector<Step> script = RandomScript(20261018);
  const ScriptRun reference =
      RunScript(script, InstanceRepository::kMaxBytes, 1);
  EXPECT_EQ(reference.evictions_after_batch.back(), 0u);
  EXPECT_GT(reference.edit_repairs, 0u);
  size_t ok = 0;
  for (const std::string& reply : reference.transcript) {
    ok += reply.starts_with("Ok\n") ? 1 : 0;
  }
  EXPECT_GE(2 * ok, reference.transcript.size());  // mostly real solves

  // A cap of about two groups: every batch touches more than two groups,
  // so every batch evicts, and the survivors still repair at each edit.
  size_t group_bytes = 0;
  {
    PlanService service(ScriptGraph());
    InstanceRepository repository(&service.base());
    BatchOptions options;
    options.repository = &repository;
    service.RunBatch(script[0].requests, options);
    service.RunBatch(script[0].requests, options);  // keeps its groups
    ASSERT_GT(repository.NumGroups(), 0u);
    group_bytes = repository.ResidentBytes() / repository.NumGroups();
  }
  ASSERT_GT(group_bytes, 0u);
  for (int workers : {1, 4}) {
    SCOPED_TRACE(StrFormat("workers=%d", workers));
    const ScriptRun capped = RunScript(script, 2 * group_bytes, workers);
    EXPECT_EQ(capped.transcript, reference.transcript);
    size_t before = 0;
    for (size_t evictions : capped.evictions_after_batch) {
      EXPECT_GT(evictions, before);
      before = evictions;
    }
    EXPECT_GT(capped.edit_repairs, 0u);
    EXPECT_EQ(RunScript(script, InstanceRepository::kMaxBytes, workers)
                  .transcript,
              reference.transcript);
  }
}

std::vector<Edge> Targets(size_t first) {
  const std::vector<Edge> edges = ScriptGraph().Edges();
  return {edges[first], edges[first + 40]};
}

// The bytes a Triangle group over `targets` is charged on `base`.
size_t ChargeOf(const Graph& base, const std::vector<Edge>& targets) {
  InstanceRepository probe(&base);
  TPP_CHECK(
      probe.AcquireEngine(probe.Intern(targets, MotifKind::kTriangle)).ok());
  return probe.ResidentBytes();
}

TEST(InstanceRepositoryCapTest, TrimKeepsTheMostRecentlyAcquiredGroup) {
  const Graph base = ScriptGraph();
  const size_t a_bytes = ChargeOf(base, Targets(0));
  // Room for A alone: of two built groups, Trim must evict one.
  InstanceRepository repository(&base, a_bytes);
  // Each group serves two acquisitions, so Trim keeps both but for the
  // cap.
  const size_t a = repository.Intern(Targets(0), MotifKind::kTriangle);
  const size_t b = repository.Intern(Targets(1), MotifKind::kTriangle);
  ASSERT_TRUE(repository.AcquireEngine(a).ok());
  ASSERT_TRUE(repository.AcquireEngine(b).ok());
  ASSERT_TRUE(repository.AcquireEngine(b).ok());
  ASSERT_TRUE(repository.AcquireEngine(a).ok());  // A is now the newest
  EXPECT_EQ(repository.NumBuilds(), 2u);
  EXPECT_GT(repository.ResidentBytes(), a_bytes);

  repository.Trim();
  EXPECT_EQ(repository.NumEvictions(), 1u);
  EXPECT_EQ(repository.ResidentBytes(), a_bytes);
  EXPECT_EQ(repository.NumGroups(), 1u);  // B left nothing behind
  // Trim voided both ids: intern again.
  ASSERT_TRUE(repository
                  .AcquireEngine(
                      repository.Intern(Targets(0), MotifKind::kTriangle))
                  .ok());
  EXPECT_EQ(repository.NumBuilds(), 2u);  // A survived: a copy, no build
  ASSERT_TRUE(repository
                  .AcquireEngine(
                      repository.Intern(Targets(1), MotifKind::kTriangle))
                  .ok());
  EXPECT_EQ(repository.NumBuilds(), 3u);  // B was evicted: it rebuilds
}

TEST(InstanceRepositoryCapTest, ApplyEditSkipsEvictedGroups) {
  PlanService service(ScriptGraph());
  InstanceRepository repository(&service.base(),
                                ChargeOf(service.base(), Targets(0)));
  // B, then A, each twice: both are kept but for the cap.
  for (size_t first : {1, 1, 0, 0}) {
    ASSERT_TRUE(repository
                    .AcquireEngine(repository.Intern(Targets(first),
                                                     MotifKind::kTriangle))
                    .ok());
  }
  repository.Trim();  // evicts B
  ASSERT_EQ(repository.NumEvictions(), 1u);

  // An edit away from both groups' targets: A repairs in place, and the
  // evicted B is neither repaired nor reset.
  const std::vector<Edge> edges = service.base().Edges();
  GraphDelta delta;
  delta.removed = {edges[100]};
  Result<EditSummary> summary = service.ApplyEdit(delta, nullptr, &repository);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->groups_repaired, 1u);
  EXPECT_EQ(summary->groups_reset, 0u);

  // B rebuilds on the edited base, A's repair is what a cold build gives,
  // and both engines derive the edited released graph from the base.
  const size_t a = repository.Intern(Targets(0), MotifKind::kTriangle);
  const size_t b = repository.Intern(Targets(1), MotifKind::kTriangle);
  Result<core::IndexedEngine> rebuilt = repository.AcquireEngine(b);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
  EXPECT_EQ(repository.NumBuilds(), 3u);
  for (size_t group : {a, b}) {
    Result<core::TppInstance> cold = core::MakeInstance(
        service.base(), repository.instance(group).targets,
        MotifKind::kTriangle);
    ASSERT_TRUE(cold.ok());
    Result<core::IndexedEngine> engine = repository.AcquireEngine(group);
    ASSERT_TRUE(engine.ok()) << engine.status();
    EXPECT_EQ(engine->CurrentGraph(), cold->released);
    Result<core::IndexedEngine> cold_engine =
        core::IndexedEngine::Create(*cold);
    ASSERT_TRUE(cold_engine.ok());
    EXPECT_EQ(engine->index().AliveCandidateEdges(),
              cold_engine->index().AliveCandidateEdges());
  }
}

// A group builds from the base alone, yet a bad target set fails with
// exactly the status core::MakeInstance returns for it, and a later
// acquirer, building again, gets the same status.
TEST(InstanceRepositoryTest, BuildErrorsMatchMakeInstance) {
  const Graph base = ScriptGraph();
  const Edge e = base.Edges()[7];
  graph::NodeId absent = 0;
  while (absent == e.u || base.HasEdge(e.u, absent)) ++absent;
  const auto n = static_cast<graph::NodeId>(base.NumNodes());
  const std::vector<std::vector<Edge>> bad = {
      {e, e},                  // duplicate
      {e, Edge(e.v, e.u)},     // duplicate, other orientation
      {e, Edge(e.u, absent)},  // not an edge
      {Edge(n, n + 5)},        // out of range
  };
  for (const std::vector<Edge>& targets : bad) {
    InstanceRepository repository(&base);
    const size_t group = repository.Intern(targets, MotifKind::kRectangle);
    Result<core::IndexedEngine> engine = repository.AcquireEngine(group);
    Result<core::TppInstance> instance =
        core::MakeInstance(base, targets, MotifKind::kRectangle);
    ASSERT_FALSE(instance.ok());
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().ToString(), instance.status().ToString());
    EXPECT_EQ(repository.AcquireEngine(group).status().ToString(),
              instance.status().ToString());
    EXPECT_EQ(repository.NumBuilds(), 2u);  // nothing memoized
  }
  InstanceRepository repository(&base);
  EXPECT_EQ(repository
                .AcquireEngine(repository.Intern({e, e}, MotifKind::kTriangle))
                .status()
                .message(),
            StrFormat("duplicate target (%u,%u)", e.u, e.v));
  EXPECT_EQ(repository
                .AcquireEngine(repository.Intern({Edge(e.u, absent)},
                                                 MotifKind::kTriangle))
                .status()
                .message(),
            StrFormat("target (%u,%u) is not an edge of the graph", e.u,
                      absent));
}

// ResidentBytes() is exactly what the built groups hold — per group the
// MemoryBytes() of its index plus its key and target bytes, a group
// holding no graph — after builds, after an edit repairs every group in
// place, and after Trim evicts.
TEST(InstanceRepositoryCapTest, ResidentBytesIsTheSumOfGroupMemoryBytes) {
  PlanService service(ScriptGraph());
  const size_t one_group = ChargeOf(service.base(), Targets(2));
  // Room for one group, not two: Trim keeps only the newest.
  InstanceRepository repository(&service.base(), one_group * 3 / 2);
  // Each group twice, so each is kept but for the cap.
  for (size_t first : {0, 0, 1, 1, 2, 2}) {
    ASSERT_TRUE(repository
                    .AcquireEngine(repository.Intern(Targets(first),
                                                     MotifKind::kTriangle))
                    .ok());
  }
  // The index of the built Triangle group over Targets(first).
  auto index_of = [&](size_t first) -> const motif::IncidenceIndex& {
    return repository.index(
        repository.Intern(Targets(first), MotifKind::kTriangle));
  };
  // Its charge: the index, the key ("<motif>|", then "u-v;" per target)
  // and the targets.
  auto held = [&](std::initializer_list<size_t> built) {
    size_t bytes = 0;
    for (size_t first : built) {
      std::string key =
          StrFormat("%d|", static_cast<int>(MotifKind::kTriangle));
      for (const Edge& e : Targets(first)) {
        key += StrFormat("%u-%u;", e.u, e.v);
      }
      bytes += index_of(first).MemoryBytes() + key.size() +
               Targets(first).size() * sizeof(Edge);
    }
    return bytes;
  };
  EXPECT_EQ(repository.ResidentBytes(), held({0, 1, 2}));

  // An insert closing a new triangle over the first group's first target
  // (u, v) adds an instance to its index, so its bytes change.
  const Graph& base = service.base();
  const Edge target = Targets(0)[0];
  std::vector<Edge> inserted;
  for (graph::NodeId w : base.Neighbors(target.v)) {
    if (w != target.u && !base.HasEdge(target.u, w)) {
      inserted.emplace_back(std::min(target.u, w), std::max(target.u, w));
      break;
    }
  }
  ASSERT_EQ(inserted.size(), 1u);
  const size_t before = index_of(0).MemoryBytes();
  Result<GraphDelta> delta =
      graph::MakeGraphDelta(std::move(inserted), {base.Edges()[100]});
  ASSERT_TRUE(delta.ok());
  Result<EditSummary> summary =
      service.ApplyEdit(*delta, nullptr, &repository);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->groups_repaired, 3u);
  EXPECT_NE(index_of(0).MemoryBytes(), before);
  EXPECT_EQ(repository.ResidentBytes(), held({0, 1, 2}));

  repository.Trim();
  EXPECT_EQ(repository.NumEvictions(), 2u);
  EXPECT_EQ(repository.NumGroups(), 1u);
  EXPECT_EQ(repository.ResidentBytes(), held({2}));
}

// The plan text of one request through `repository`.
std::string Answer(const PlanService& service, InstanceRepository& repository,
                   const std::vector<Edge>& targets) {
  PlanRequest request;
  request.targets = targets;
  request.spec.algorithm = "sgb";
  request.spec.budget = 3;
  BatchOptions options;
  options.repository = &repository;
  const std::vector<PlanResponse> responses =
      service.RunBatch(std::vector<PlanRequest>{request}, options);
  return responses[0].status.ToString() + "\n" + responses[0].plan_text;
}

// A key erased from the table — once by Trim's eviction, once by an edit
// that touches its targets — is interned anew when named again, and it
// answers byte-identically to a fresh repository over the same base.
TEST(InstanceRepositoryCapTest, ReInternedKeyAnswersLikeAFreshRepository) {
  PlanService service(ScriptGraph());
  const std::vector<Edge> a = Targets(0);
  const std::vector<Edge> b = Targets(1);
  // Room for either group, not both.
  InstanceRepository repository(
      &service.base(),
      std::max(ChargeOf(service.base(), a), ChargeOf(service.base(), b)));
  auto fresh_answer = [&](const std::vector<Edge>& targets) {
    InstanceRepository fresh(&service.base());
    return Answer(service, fresh, targets);
  };

  // Eviction: B is newest, so A goes; then A comes back and B goes. Each
  // key is named in two batches: the second acquisition keeps its group.
  const std::string a_first = Answer(service, repository, a);
  ASSERT_TRUE(a_first.starts_with("Ok\n")) << a_first;
  EXPECT_EQ(Answer(service, repository, a), a_first);
  ASSERT_EQ(repository.NumGroups(), 1u);
  Answer(service, repository, b);
  Answer(service, repository, b);
  ASSERT_EQ(repository.NumEvictions(), 1u);
  ASSERT_EQ(repository.NumGroups(), 1u);
  const size_t builds = repository.NumBuilds();
  EXPECT_EQ(Answer(service, repository, a), a_first);
  EXPECT_EQ(repository.NumBuilds(), builds + 1);
  EXPECT_EQ(a_first, fresh_answer(a));

  // Edit reset: removing A's last target erases A (it is resident now);
  // the edit also inserts a link, and A named with the remaining targets
  // is a new key that builds on the edited base.
  ASSERT_EQ(repository.NumGroups(), 1u);
  const Edge removed = a.back();
  graph::NodeId far = 0;
  while (far == removed.u || service.base().HasEdge(removed.u, far)) ++far;
  Result<GraphDelta> delta = graph::MakeGraphDelta(
      {Edge(std::min(removed.u, far), std::max(removed.u, far))}, {removed});
  ASSERT_TRUE(delta.ok());
  Result<EditSummary> summary = service.ApplyEdit(*delta, nullptr, &repository);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->groups_reset, 1u);
  EXPECT_EQ(repository.NumGroups(), 0u);
  EXPECT_EQ(repository.ResidentBytes(), 0u);
  const std::vector<Edge> kept(a.begin(), a.end() - 1);
  EXPECT_EQ(Answer(service, repository, kept), fresh_answer(kept));
  EXPECT_EQ(Answer(service, repository, kept), fresh_answer(kept));
  // The erased key itself: its link is gone, so it fails exactly as a
  // fresh repository's build does, and leaves the table as it found it.
  const std::string gone = Answer(service, repository, a);
  EXPECT_FALSE(gone.starts_with("Ok\n")) << gone;
  EXPECT_EQ(gone, fresh_answer(a));
  EXPECT_EQ(repository.NumGroups(), 1u);
}

// A long run of distinct target sets, each named by two requests of its
// batch (so each is kept), through RunBatch under a small cap: after every
// batch the table holds exactly the resident groups and the charge is
// within the cap, so the table does not grow with the number of target
// sets ever named.
TEST(InstanceRepositoryCapTest, DistinctTargetSetsKeepTheTableResident) {
  PlanService service(ScriptGraph());
  const std::vector<Edge> edges = service.base().Edges();
  const size_t cap = 4 * ChargeOf(service.base(), Targets(0));
  InstanceRepository repository(&service.base(), cap);
  BatchOptions options;
  options.repository = &repository;
  Rng rng(20261019);
  size_t requests = 0;
  for (size_t batch = 0; batch < 250; ++batch) {
    std::vector<PlanRequest> requests_of_batch;
    for (size_t i = 0; i < 4; ++i, ++requests) {
      PlanRequest request;
      request.targets = rng.SampleK(edges, 2 + requests % 3);
      request.spec.algorithm = "sgb";
      request.spec.budget = 1;
      requests_of_batch.push_back(request);
      request.spec.budget = 2;  // the same group, another plan
      requests_of_batch.push_back(std::move(request));
    }
    for (const PlanResponse& response :
         service.RunBatch(requests_of_batch, options)) {
      ASSERT_TRUE(response.status.ok()) << response.status;
    }
    ASSERT_LE(repository.ResidentBytes(), cap);
    // Every set is new and builds, and only eviction takes a group out,
    // so the groups resident are the builds less the evictions.
    ASSERT_EQ(repository.NumBuilds(), requests);
    ASSERT_EQ(repository.NumGroups(),
              repository.NumBuilds() - repository.NumEvictions());
    ASSERT_GT(repository.NumGroups(), 0u);
  }
  EXPECT_EQ(requests, 1000u);
  EXPECT_GT(repository.NumEvictions(), 900u);
}

// A request for `targets` under SGB at `budget` over `motif`.
PlanRequest SgbRequest(std::vector<Edge> targets, motif::MotifKind motif,
                       int budget) {
  PlanRequest request;
  request.targets = std::move(targets);
  request.motif = motif;
  request.spec.algorithm = "sgb";
  request.spec.budget = budget;
  return request;
}

// The shape of a one-off workload: large target sets, each named once.
// None stays past its batch, so nothing is resident and an edit repairs
// nothing, however many sets were built.
TEST(InstanceRepositoryAdmissionTest, OneOffTargetSetsLeaveNothingResident) {
  PlanService service(ScriptGraph());
  const std::vector<Edge> edges = service.base().Edges();
  InstanceRepository repository(&service.base());
  BatchOptions options;
  options.repository = &repository;
  Rng rng(20261020);
  for (size_t batch = 0; batch < 250; ++batch) {
    std::vector<PlanRequest> requests;
    for (size_t i = 0; i < 4; ++i) {
      requests.push_back(SgbRequest(
          rng.SampleK(edges, 20 + rng.UniformIndex(21)),
          motif::kAllMotifs[(4 * batch + i) % std::size(motif::kAllMotifs)],
          1));
    }
    for (const PlanResponse& response : service.RunBatch(requests, options)) {
      ASSERT_TRUE(response.status.ok()) << response.status;
    }
    ASSERT_EQ(repository.NumGroups(), 0u);
    ASSERT_EQ(repository.ResidentBytes(), 0u);
  }
  EXPECT_EQ(repository.NumBuilds(), 1000u);
  EXPECT_EQ(repository.NumEvictions(), 0u);
  GraphDelta delta;
  delta.removed = {edges[100]};
  Result<EditSummary> summary = service.ApplyEdit(delta, nullptr, &repository);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->groups_repaired, 0u);
  EXPECT_EQ(summary->groups_reset, 0u);
}

TEST(InstanceRepositoryAdmissionTest, TwoAcquisitionsInOneBatchKeepTheGroup) {
  PlanService service(ScriptGraph());
  InstanceRepository repository(&service.base());
  BatchOptions options;
  options.repository = &repository;
  service.RunBatch(
      std::vector<PlanRequest>{SgbRequest(Targets(0), MotifKind::kTriangle, 1),
                               SgbRequest(Targets(0), MotifKind::kTriangle, 2)},
      options);
  EXPECT_EQ(repository.NumBuilds(), 1u);
  EXPECT_EQ(repository.NumGroups(), 1u);
  EXPECT_EQ(repository.ResidentBytes(),
            ChargeOf(service.base(), Targets(0)));
  GraphDelta delta;
  delta.removed = {service.base().Edges()[100]};
  Result<EditSummary> summary = service.ApplyEdit(delta, nullptr, &repository);
  ASSERT_TRUE(summary.ok()) << summary.status();
  EXPECT_EQ(summary->groups_repaired, 1u);
}

// A key dropped after one use and named again in a later batch builds
// once more and stays: its third request copies the kept group.
TEST(InstanceRepositoryAdmissionTest, DroppedKeyNamedAgainIsKept) {
  PlanService service(ScriptGraph());
  InstanceRepository repository(&service.base());
  const std::string first = Answer(service, repository, Targets(3));
  ASSERT_TRUE(first.starts_with("Ok\n")) << first;
  EXPECT_EQ(repository.NumGroups(), 0u);
  EXPECT_EQ(repository.NumBuilds(), 1u);
  // Another one-off between the two: the sighting survives it.
  Answer(service, repository, Targets(4));
  EXPECT_EQ(repository.NumGroups(), 0u);
  EXPECT_EQ(Answer(service, repository, Targets(3)), first);
  EXPECT_EQ(repository.NumGroups(), 1u);
  EXPECT_EQ(repository.NumBuilds(), 3u);
  EXPECT_EQ(Answer(service, repository, Targets(3)), first);
  EXPECT_EQ(repository.NumBuilds(), 3u);
  EXPECT_EQ(repository.NumAcquisitions(), 4u);
}

// Batches mixing pooled sets, which recur and are kept, with one-off
// sets, which are dropped, between edits that repair the kept groups and
// may remove pooled target links: every reply equals the cold oracle on
// the base of its epoch, at 1 and 4 workers.
TEST(InstanceRepositoryAdmissionTest, MixedScriptAnswersLikeRunOneCold) {
  for (int workers : {1, 4}) {
    SCOPED_TRACE(StrFormat("workers=%d", workers));
    Rng rng(20261021);
    PlanService service(ScriptGraph());
    InstanceRepository repository(&service.base());
    BatchOptions options;
    options.repository = &repository;
    options.max_workers = workers;
    std::vector<std::vector<Edge>> pool;
    for (size_t i = 0; i < std::size(motif::kAllMotifs); ++i) {
      pool.push_back(rng.SampleK(service.base().Edges(), 3 + i));
    }
    const std::vector<std::string_view> solvers = core::SolverNames();
    size_t next = 0;
    size_t repaired = 0;
    size_t solved = 0;
    for (size_t batch = 0; batch < 8; ++batch) {
      std::vector<PlanRequest> requests;
      for (size_t i = 0; i < 6; ++i, ++next) {
        // Pooled set k always comes with motif k: one group per set.
        const size_t k = rng.UniformIndex(pool.size());
        PlanRequest request =
            i % 2 == 0
                ? SgbRequest(pool[k], motif::kAllMotifs[k], 3)
                : SgbRequest(rng.SampleK(service.base().Edges(), 2 + i),
                             motif::kAllMotifs[next % pool.size()], 3);
        request.spec.algorithm = std::string(solvers[next % solvers.size()]);
        request.seed = 100 + next;
        requests.push_back(std::move(request));
      }
      const std::vector<PlanResponse> responses =
          service.RunBatch(requests, options);
      for (size_t i = 0; i < requests.size(); ++i) {
        const PlanResponse cold = RunOneCold(service.base(), requests[i]);
        EXPECT_EQ(responses[i].status.ToString(), cold.status.ToString());
        EXPECT_EQ(responses[i].plan_text, cold.plan_text);
        solved += responses[i].status.ok() ? 1 : 0;
      }
      EXPECT_LE(repository.NumGroups(), pool.size());
      if (batch % 2 == 1) {
        Result<EditSummary> summary = service.ApplyEdit(
            RandomEdit(service.base(), 3, 3, rng), nullptr, &repository);
        ASSERT_TRUE(summary.ok()) << summary.status();
        repaired += summary->groups_repaired;
      }
    }
    EXPECT_GE(2 * solved, next);  // mostly real solves
    EXPECT_GT(repository.NumGroups(), 0u);
    EXPECT_GT(repaired, 0u);
  }
}

}  // namespace
}  // namespace tpp::service
