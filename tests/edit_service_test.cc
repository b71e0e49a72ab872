// Service-layer tests for live-graph edits: the batch-script parser
// (edit directive lines), PlanService::ApplyEdit keeping the cache and
// instance repository consistent across a committed base-graph edit, and
// WarmStore::EvictStale dropping entries no live caller can match.

#include <filesystem>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/problem.h"
#include "graph/fingerprint.h"
#include "graph/graph.h"
#include "gtest/gtest.h"
#include "motif/incidence_index.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/store/warm_store.h"
#include "test_util.h"

namespace tpp::service {
namespace {

using graph::Edge;
using graph::Graph;
using graph::GraphDelta;
using ::tpp::testing::E;

// Two well-separated communities: a ring-with-chords over nodes 0..19
// (cluster A) and the same shape over 20..39 (cluster B), joined by one
// long bridge. Edits confined to cluster B leave every cluster-A
// neighborhood untouched, which is what the cache-survival and
// repository-repair tests rely on.
Graph TwoClusters() {
  Graph g(40);
  for (graph::NodeId base : {0u, 20u}) {
    for (graph::NodeId i = 0; i < 20; ++i) {
      TPP_CHECK(g.AddEdge(base + i, base + (i + 1) % 20).ok());
      TPP_CHECK(g.AddEdge(base + i, base + (i + 2) % 20).ok());
    }
  }
  TPP_CHECK(g.AddEdge(10, 30).ok());
  return g;
}

// An edit entirely inside cluster B: one removal, one insertion.
GraphDelta ClusterBDelta() {
  GraphDelta delta;
  delta.inserted = {E(20, 25)};
  delta.removed = {E(21, 22)};
  return delta;
}

PlanRequest ExplicitRequest(const std::string& name,
                            std::vector<Edge> targets) {
  PlanRequest request;
  request.name = name;
  request.targets = std::move(targets);
  request.spec.algorithm = "sgb";
  request.spec.budget = 3;
  return request;
}

TEST(ParseEditLineTest, NormalizesEndpointsAndOrder) {
  Result<GraphDelta> delta =
      ParseEditLine("edit insert=5-3;1-2 remove=7-4", 1);
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->inserted, (std::vector<Edge>{E(1, 2), E(3, 5)}));
  EXPECT_EQ(delta->removed, (std::vector<Edge>{E(4, 7)}));
}

TEST(ParseEditLineTest, RejectsMalformedDirectives) {
  EXPECT_FALSE(ParseEditLine("edit", 1).ok());  // no insert=/remove=
  EXPECT_FALSE(ParseEditLine("edit insert=1-2 insert=3-4", 1).ok());
  EXPECT_FALSE(ParseEditLine("edit frobnicate=1-2", 1).ok());
  EXPECT_FALSE(ParseEditLine("edit insert=1-1", 1).ok());
  EXPECT_FALSE(ParseEditLine("edit insert=1-2;2-1", 1).ok());
  // Inserting and removing the same edge in one directive is
  // contradictory, not a cancellation.
  EXPECT_FALSE(ParseEditLine("edit insert=1-2 remove=2-1", 1).ok());
}

TEST(ParsePlanScriptTest, SplitsRequestsIntoStepsAtEditLines) {
  Result<std::vector<PlanScriptStep>> steps = ParsePlanScript(
      "# comment\n"
      "algorithm=sgb links=0-1 budget=2\n"
      "algorithm=sgb links=2-3 budget=2\n"
      "edit insert=4-5 remove=0-1\n"
      "algorithm=sgb links=2-3 budget=2\n");
  ASSERT_TRUE(steps.ok());
  ASSERT_EQ(steps->size(), 2u);
  EXPECT_EQ((*steps)[0].requests.size(), 2u);
  ASSERT_TRUE((*steps)[0].edit.has_value());
  EXPECT_EQ((*steps)[0].edit->inserted, (std::vector<Edge>{E(4, 5)}));
  EXPECT_EQ((*steps)[1].requests.size(), 1u);
  EXPECT_FALSE((*steps)[1].edit.has_value());
  // Default names number across the whole script, not per step.
  EXPECT_EQ((*steps)[1].requests[0].name, "r2");
}

TEST(ParsePlanScriptTest, PlainRequestFileIsOneStep) {
  Result<std::vector<PlanScriptStep>> steps =
      ParsePlanScript("algorithm=sgb links=0-1\nalgorithm=sgb links=2-3\n");
  ASSERT_TRUE(steps.ok());
  ASSERT_EQ(steps->size(), 1u);
  EXPECT_EQ((*steps)[0].requests.size(), 2u);
  EXPECT_FALSE((*steps)[0].edit.has_value());
}

TEST(ParsePlanScriptTest, TrailingEditKeepsItsStep) {
  Result<std::vector<PlanScriptStep>> steps =
      ParsePlanScript("algorithm=sgb links=0-1\nedit remove=0-1\n");
  ASSERT_TRUE(steps.ok());
  ASSERT_EQ(steps->size(), 1u);
  ASSERT_TRUE((*steps)[0].edit.has_value());
  EXPECT_EQ((*steps)[0].edit->removed, (std::vector<Edge>{E(0, 1)}));
}

TEST(ParsePlanScriptTest, BadEditLineNamesTheLine) {
  Result<std::vector<PlanScriptStep>> steps =
      ParsePlanScript("algorithm=sgb links=0-1\nedit\n");
  ASSERT_FALSE(steps.ok());
  EXPECT_NE(steps.status().ToString().find("line 2"), std::string::npos);
}

TEST(PlanServiceEditTest, ApplyEditAdvancesGraphAndFingerprint) {
  PlanService service(TwoClusters());
  const uint64_t before = service.fingerprint();
  GraphDelta delta = ClusterBDelta();

  Result<EditSummary> summary = service.ApplyEdit(delta);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->old_fingerprint, before);
  EXPECT_EQ(summary->inserted, 1u);
  EXPECT_EQ(summary->removed, 1u);
  EXPECT_TRUE(service.base().HasEdge(20, 25));
  EXPECT_FALSE(service.base().HasEdge(21, 22));
  EXPECT_EQ(service.fingerprint(), graph::Fingerprint(service.base()));
  EXPECT_EQ(summary->new_fingerprint, service.fingerprint());

  // An invalid delta changes nothing.
  GraphDelta bad;
  bad.removed = {E(21, 22)};  // already gone
  const uint64_t after = service.fingerprint();
  EXPECT_FALSE(service.ApplyEdit(bad).ok());
  EXPECT_EQ(service.fingerprint(), after);
}

TEST(PlanServiceEditTest, CacheSurvivalFollowsTheDeltaNeighborhood) {
  PlanService service(TwoClusters());
  PlanCache cache(64);

  // far:   deterministic, explicit cluster-A targets, restricted scope
  //        — provably unaffected by a cluster-B edit, must survive.
  // near:  a target endpoint inside the delta neighborhood.
  // sampled / released / randomized: each fails one survival rule.
  std::vector<PlanRequest> requests;
  requests.push_back(ExplicitRequest("far", {E(0, 1), E(5, 6)}));
  requests.push_back(ExplicitRequest("near", {E(21, 23)}));
  PlanRequest sampled;
  sampled.name = "sampled";
  sampled.sample = 4;
  sampled.spec.algorithm = "sgb";
  sampled.spec.budget = 3;
  requests.push_back(sampled);
  PlanRequest released = ExplicitRequest("released", {E(0, 1)});
  released.want_released = true;
  requests.push_back(released);
  PlanRequest randomized = ExplicitRequest("randomized", {E(0, 1)});
  randomized.spec.algorithm = "rd";
  requests.push_back(randomized);

  BatchOptions options;
  options.cache = &cache;
  std::vector<PlanResponse> first = service.RunBatch(requests, options);
  for (const PlanResponse& r : first) ASSERT_TRUE(r.status.ok());

  Result<EditSummary> summary =
      service.ApplyEdit(ClusterBDelta(), &cache);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->cache_rekeyed, 1u);
  EXPECT_EQ(summary->cache_invalidated, 4u);

  // The surviving entry answers under the new fingerprint without a
  // solve; its payload is byte-identical to a cold run on the edited
  // base.
  BatchStats stats;
  options.stats = &stats;
  std::vector<PlanRequest> repeat = {requests[0]};
  std::vector<PlanResponse> second = service.RunBatch(repeat, options);
  ASSERT_TRUE(second[0].status.ok());
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_TRUE(second[0].from_cache);
  PlanResponse cold = service.RunOne(requests[0]);
  EXPECT_EQ(second[0].plan_text, cold.plan_text);

  PlanCache::Stats cache_stats = cache.stats();
  EXPECT_EQ(cache_stats.rekeyed_by_edit, 1u);
  EXPECT_EQ(cache_stats.invalidated_by_edit, 4u);
}

TEST(PlanServiceEditTest, RepositoryRepairsAcrossBatchesWithoutRebuilds) {
  PlanService service(TwoClusters());
  InstanceRepository repository(&service.base());

  std::vector<PlanRequest> requests = {
      ExplicitRequest("far", {E(0, 1), E(5, 6)})};
  BatchOptions options;
  options.repository = &repository;
  BatchStats stats;
  options.stats = &stats;
  std::vector<PlanResponse> first = service.RunBatch(requests, options);
  ASSERT_TRUE(first[0].status.ok());
  EXPECT_EQ(stats.instance_builds, 1u);

  Result<EditSummary> summary =
      service.ApplyEdit(ClusterBDelta(), nullptr, &repository);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->groups_repaired, 1u);
  EXPECT_EQ(summary->groups_reset, 0u);

  // The follow-up batch re-clones the repaired prototype: zero builds,
  // and the response is byte-identical to a cold service on the edited
  // graph.
  BatchStats stats2;
  options.stats = &stats2;
  std::vector<PlanResponse> second = service.RunBatch(requests, options);
  ASSERT_TRUE(second[0].status.ok());
  EXPECT_EQ(stats2.instance_builds, 0u);

  PlanService cold(service.base());
  PlanResponse reference = cold.RunOne(requests[0]);
  EXPECT_EQ(second[0].plan_text, reference.plan_text);
}

TEST(PlanServiceEditTest, EditResetsAGroupWhosePrototypeWasTaken) {
  PlanService service(TwoClusters());
  InstanceRepository repository(&service.base());
  size_t taken = repository.Intern({E(0, 1), E(5, 6)},
                                   motif::MotifKind::kTriangle);
  size_t shared = repository.Intern({E(0, 1)}, motif::MotifKind::kTriangle);
  ASSERT_TRUE(repository.TakeEngine(taken).ok());
  ASSERT_TRUE(repository.AcquireEngine(shared).ok());

  // The taken group has no prototype left to repair, so it resets; the
  // other group repairs in place as usual.
  Result<EditSummary> summary =
      service.ApplyEdit(ClusterBDelta(), nullptr, &repository);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->groups_repaired, 1u);
  EXPECT_EQ(summary->groups_reset, 1u);

  // After the reset the group cold-builds on the edited base again.
  Result<core::IndexedEngine> rebuilt = repository.AcquireEngine(taken);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  Result<core::IndexedEngine> cold =
      core::IndexedEngine::Create(repository.instance(taken));
  ASSERT_TRUE(cold.ok());
  EXPECT_TRUE(rebuilt->index().BitIdentical(cold->index()));
  EXPECT_EQ(repository.NumBuilds(), 3u);
}

TEST(PlanServiceEditTest, TargetTouchingEditResetsTheGroup) {
  PlanService service(TwoClusters());
  InstanceRepository repository(&service.base());

  std::vector<PlanRequest> requests = {
      ExplicitRequest("group", {E(0, 1)})};
  BatchOptions options;
  options.repository = &repository;
  std::vector<PlanResponse> first = service.RunBatch(requests, options);
  ASSERT_TRUE(first[0].status.ok());

  // Removing the group's own target link changes the problem: the group
  // must reset for a cold rebuild, not repair.
  GraphDelta delta;
  delta.removed = {E(0, 1)};
  Result<EditSummary> summary =
      service.ApplyEdit(delta, nullptr, &repository);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->groups_repaired, 0u);
  EXPECT_EQ(summary->groups_reset, 1u);
}

TEST(EvictStaleTest, DropsForeignSnapshotsAndStaleSealedSegments) {
  std::string dir =
      ::testing::TempDir() + "/tpp_evict_stale_test";
  std::filesystem::remove_all(dir);
  store::StoreOptions options;
  // Sized so each padded record overflows (sealing its segment) while
  // the final small record leaves its segment active.
  options.plan_segment_bytes = 250;
  Result<std::unique_ptr<store::WarmStore>> store =
      store::WarmStore::Open(dir, options);
  ASSERT_TRUE(store.ok());

  Graph g = TwoClusters();
  const uint64_t live_fp = graph::Fingerprint(g);
  const uint64_t stale_fp = live_fp ^ 0x1234;
  std::vector<Edge> targets = {E(0, 1)};
  core::TppInstance inst =
      *core::MakeInstance(g, targets, motif::MotifKind::kTriangle);
  motif::IncidenceIndex index = *motif::IncidenceIndex::Build(
      inst.released, targets, motif::MotifKind::kTriangle);
  motif::IndexSnapshotMeta live_meta{live_fp,
                                     graph::TargetSetHash(targets),
                                     motif::MotifKind::kTriangle, 1};
  motif::IndexSnapshotMeta stale_meta = live_meta;
  stale_meta.graph_fingerprint = stale_fp;
  ASSERT_TRUE((*store)->SaveIndex(index, live_meta).ok());
  ASSERT_TRUE((*store)->SaveIndex(index, stale_meta).ok());

  // Segment 1: a live-fingerprint plan key (seals on overflow).
  // Segment 2: a stale-fingerprint key. Segment 3: stays active.
  std::string live_key = StrFormat(
      "tpp-plan-v1|fp=%016llx|motif=Triangle|alg=sgb|scope=1|seed=1|"
      "rel=0|budget=3|links=0-1",
      static_cast<unsigned long long>(live_fp));
  std::string stale_key = StrFormat(
      "tpp-plan-v1|fp=%016llx|motif=Triangle|alg=sgb|scope=1|seed=1|"
      "rel=0|budget=3|links=0-1",
      static_cast<unsigned long long>(stale_fp));
  std::string pad(200, 'x');
  ASSERT_TRUE((*store)->AppendPlan(live_key, pad).ok());
  ASSERT_TRUE((*store)->AppendPlan(stale_key, pad).ok());
  ASSERT_TRUE((*store)->AppendPlan(stale_key + "-active", "tiny").ok());

  Result<size_t> evicted = (*store)->EvictStale(live_fp);
  ASSERT_TRUE(evicted.ok());
  // Dropped: the stale snapshot and the sealed all-stale segment.
  EXPECT_EQ(*evicted, 2u);

  Result<std::vector<store::StoreEntry>> entries = (*store)->Scan();
  ASSERT_TRUE(entries.ok());
  size_t snapshots = 0;
  size_t segments = 0;
  for (const store::StoreEntry& entry : *entries) {
    if (entry.kind == store::StoreEntry::Kind::kIndexSnapshot) {
      ++snapshots;
      EXPECT_EQ(entry.graph_fingerprint, live_fp);
    } else {
      ++segments;
    }
  }
  EXPECT_EQ(snapshots, 1u);
  EXPECT_EQ(segments, 2u);  // the live sealed segment + the active one

  // The live plan record still serves.
  std::string payload;
  EXPECT_TRUE((*store)->LoadPlan(live_key, &payload));
  EXPECT_EQ(payload, pad);
}

}  // namespace
}  // namespace tpp::service
