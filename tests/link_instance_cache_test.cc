// Differential tests of the per-link instance cache behind
// InstanceRepository's cold builds: every repository-built index must be
// BitIdentical to the serial reference build on the group's released
// graph, for all four motifs, however the cache was warmed — targets that
// share endpoints, targets on each other's motif paths, hub targets whose
// enumeration splits into chunks, links recurring across groups in both
// orientations, concurrent builds, and builds after a base-graph edit.
// The hit counters are asserted too, so an always-miss cache cannot pass.

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/problem.h"
#include "graph/fingerprint.h"
#include "graph/generators.h"
#include "motif/enumerate.h"
#include "motif/incidence_index.h"
#include "reference/serial_index_build.h"
#include "service/instance_repository.h"

namespace tpp::service {
namespace {

using graph::Edge;
using graph::Graph;
using motif::MotifKind;

Graph RandomGraph(size_t n, uint64_t seed) {
  Rng rng(seed);
  Result<Graph> g = graph::HolmeKim(n, 4, 0.3, rng);
  TPP_CHECK(g.ok());
  return std::move(*g);
}

// `count` distinct edges of `g`, each flipped to (v, u) with probability
// one half — orientation changes the enumeration order, so the cache must
// keep the two orientations apart.
std::vector<Edge> RandomTargets(const Graph& g, size_t count, Rng& rng) {
  std::vector<Edge> targets = *core::SampleTargets(g, count, rng);
  for (Edge& t : targets) {
    if (rng.UniformIndex(2) == 1) std::swap(t.u, t.v);
  }
  return targets;
}

// Builds `targets` through `repo` and checks the index against the serial
// reference on an independently derived released graph.
void ExpectMatchesReference(InstanceRepository& repo, const Graph& base,
                            const std::vector<Edge>& targets,
                            MotifKind kind) {
  SCOPED_TRACE(std::string(motif::MotifName(kind)) +
               " |T|=" + std::to_string(targets.size()));
  Result<core::IndexedEngine> engine =
      repo.AcquireEngine(repo.Intern(targets, kind));
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  Result<core::TppInstance> inst = core::MakeInstance(base, targets, kind);
  ASSERT_TRUE(inst.ok());
  Result<motif::IncidenceIndex> reference = motif::BuildIndexSerialReference(
      inst->released, inst->targets, kind);
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(std::as_const(*engine).index().BitIdentical(*reference));
}

class LinkInstanceCacheTest : public ::testing::TestWithParam<MotifKind> {};

TEST_P(LinkInstanceCacheTest, RandomTargetSetsMatchSerialReference) {
  const MotifKind kind = GetParam();
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const Graph g = RandomGraph(200, seed);
    InstanceRepository repo(&g);
    // Target sets drawn from a 40-link pool, so links recur across groups
    // with and without their neighbors in the set.
    Rng rng(seed + 50);
    const std::vector<Edge> pool = RandomTargets(g, 40, rng);
    for (size_t set = 0; set < 8; ++set) {
      std::vector<Edge> targets =
          rng.SampleK(pool, 5 + rng.UniformIndex(16));
      ExpectMatchesReference(repo, g, targets, kind);
    }
    EXPECT_GT(repo.NumLinkCacheHits(), 0u);
    EXPECT_GT(repo.LinkCacheBytes(), 0u);
  }
}

TEST_P(LinkInstanceCacheTest, TargetsSharingAnEndpoint) {
  const MotifKind kind = GetParam();
  const Graph g = RandomGraph(150, 11);
  graph::NodeId hub = 0;
  for (graph::NodeId x = 0; x < g.NumNodes(); ++x) {
    if (g.Degree(x) > g.Degree(hub)) hub = x;
  }
  std::vector<Edge> star;
  for (graph::NodeId w : g.Neighbors(hub)) {
    // Alternate which side the shared endpoint is on.
    star.push_back(star.size() % 2 == 0 ? Edge(hub, w) : Edge(w, hub));
    if (star.size() == 8) break;
  }
  ASSERT_GE(star.size(), 4u);
  InstanceRepository repo(&g);
  // Each star link alone first (its base list holds the instances through
  // its siblings), then the whole star, then halves of it.
  for (const Edge& t : star) ExpectMatchesReference(repo, g, {t}, kind);
  ExpectMatchesReference(repo, g, star, kind);
  ExpectMatchesReference(
      repo, g, std::vector<Edge>(star.begin(), star.begin() + 3), kind);
  ExpectMatchesReference(
      repo, g, std::vector<Edge>(star.begin() + 2, star.end()), kind);
  EXPECT_EQ(repo.NumLinkCacheMisses(), star.size());
  EXPECT_GT(repo.NumLinkCacheHits(), 0u);
}

TEST_P(LinkInstanceCacheTest, TargetsOnEachOthersMotifPaths) {
  const MotifKind kind = GetParam();
  const Graph g = RandomGraph(150, 21);
  Rng rng(22);
  InstanceRepository repo(&g);
  size_t checked = 0;
  for (const Edge& seed_target : RandomTargets(g, 20, rng)) {
    // The links of seed_target's first base instances become targets
    // beside it, so the filter has to drop exactly those instances.
    const std::vector<motif::TargetSubgraph> paths =
        motif::EnumerateTargetSubgraphs(g, seed_target, kind);
    if (paths.empty()) continue;
    std::vector<Edge> targets = {seed_target};
    for (size_t i = 0; i < std::min<size_t>(paths.size(), 2); ++i) {
      for (uint8_t j = 0; j < paths[i].num_edges; ++j) {
        const Edge e(graph::EdgeKeyU(paths[i].edges[j]),
                     graph::EdgeKeyV(paths[i].edges[j]));
        if (std::find(targets.begin(), targets.end(), e) == targets.end()) {
          targets.push_back(e);
        }
      }
    }
    ExpectMatchesReference(repo, g, {seed_target}, kind);
    ExpectMatchesReference(repo, g, targets, kind);
    std::reverse(targets.begin(), targets.end());
    ExpectMatchesReference(repo, g, targets, kind);
    if (++checked == 4) break;
  }
  EXPECT_EQ(checked, 4u);
  EXPECT_GT(repo.NumLinkCacheHits(), 0u);
}

TEST_P(LinkInstanceCacheTest, HubTargetsPastTheEnumerationSplit) {
  const MotifKind kind = GetParam();
  Graph g = RandomGraph(400, 31);
  const graph::NodeId hub = 0;
  for (graph::NodeId x = 1; x < 200; ++x) {
    if (!g.HasEdge(hub, x)) ASSERT_TRUE(g.AddEdge(hub, x).ok());
  }
  std::vector<Edge> hub_targets;
  for (graph::NodeId x : {5u, 50u, 150u}) hub_targets.push_back(Edge(hub, x));
  if (kind != MotifKind::kTriangle) {
    // The hub is each target's first endpoint, so its enumeration splits
    // into first-neighbor chunks.
    EXPECT_GT(motif::PlanEnumerationTasks(g, hub_targets, kind).size(),
              hub_targets.size());
  }
  Rng rng(32);
  std::vector<Edge> mixed = RandomTargets(g, 10, rng);
  mixed.erase(std::remove_if(mixed.begin(), mixed.end(),
                             [&](const Edge& e) {
                               return std::find(hub_targets.begin(),
                                                hub_targets.end(),
                                                e) != hub_targets.end();
                             }),
              mixed.end());
  mixed.insert(mixed.begin() + 3, hub_targets.begin(), hub_targets.end());
  InstanceRepository repo(&g);
  repo.set_build_threads(4);
  ExpectMatchesReference(repo, g, hub_targets, kind);
  ExpectMatchesReference(repo, g, mixed, kind);
  ExpectMatchesReference(
      repo, g, std::vector<Edge>(hub_targets.begin() + 1, hub_targets.end()),
      kind);
  EXPECT_GE(repo.NumLinkCacheHits(), hub_targets.size() + 2);
}

TEST_P(LinkInstanceCacheTest, OneLinkInSeveralGroups) {
  const MotifKind kind = GetParam();
  const Graph g = RandomGraph(200, 41);
  Rng rng(42);
  const std::vector<Edge> pool = RandomTargets(g, 31, rng);
  const Edge shared = pool[0];
  InstanceRepository repo(&g);
  constexpr size_t kGroups = 5;
  for (size_t k = 0; k < kGroups; ++k) {
    // Six private links per group plus the shared one, at a different
    // position each time and reversed in every other group: (u, v) and
    // (v, u) enumerate in different orders, so they are different lists.
    std::vector<Edge> targets(pool.begin() + 1 + 6 * k,
                              pool.begin() + 7 + 6 * k);
    targets.insert(targets.begin() + k,
                   k % 2 == 0 ? shared : Edge(shared.v, shared.u));
    ExpectMatchesReference(repo, g, targets, kind);
  }
  // Sequential builds under the byte cap: every distinct oriented link is
  // enumerated once, and the shared one is served from the cache after
  // its first group in each orientation.
  EXPECT_EQ(repo.NumLinkCacheMisses(), 2 + 6 * kGroups);
  EXPECT_EQ(repo.NumLinkCacheHits(), kGroups - 2);
}

TEST_P(LinkInstanceCacheTest, ConcurrentGroupBuildsAtFourWorkers) {
  const MotifKind kind = GetParam();
  const Graph g = RandomGraph(250, 51);
  Rng rng(52);
  const std::vector<Edge> pool = RandomTargets(g, 30, rng);
  std::vector<std::vector<Edge>> sets;
  for (size_t k = 0; k < 16; ++k) sets.push_back(rng.SampleK(pool, 12));
  InstanceRepository repo(&g);
  repo.set_build_threads(4);
  std::vector<size_t> groups;
  for (const auto& targets : sets) groups.push_back(repo.Intern(targets, kind));
  // Four workers acquire every group in different orders, so builds of
  // groups sharing links race on the same cache entries.
  std::vector<std::thread> workers;
  std::vector<Status> failures(4);
  for (size_t w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (size_t k = 0; k < groups.size(); ++k) {
        const size_t group = groups[(k * (w + 1) + w) % groups.size()];
        Result<core::IndexedEngine> engine = repo.AcquireEngine(group);
        if (!engine.ok()) failures[w] = engine.status();
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (const Status& s : failures) EXPECT_TRUE(s.ok()) << s.ToString();
  for (const auto& targets : sets) {
    ExpectMatchesReference(repo, g, targets, kind);
  }
  EXPECT_EQ(repo.NumBuilds(), sets.size());
  EXPECT_GT(repo.NumLinkCacheHits(), 0u);
}

TEST_P(LinkInstanceCacheTest, BuildAfterApplyEditMatchesColdBuild) {
  const MotifKind kind = GetParam();
  Graph base = RandomGraph(200, 61);
  Rng rng(62);
  const std::vector<Edge> targets = RandomTargets(base, 16, rng);
  InstanceRepository repo(&base);
  ExpectMatchesReference(repo, base, targets, kind);
  ASSERT_GT(repo.LinkCacheBytes(), 0u);

  // Remove non-target links the cached instances run through and insert
  // fresh ones, so a stale list would both keep dead and miss new
  // instances.
  graph::GraphDelta delta;
  std::vector<graph::EdgeKey> target_keys;
  for (const Edge& t : targets) target_keys.push_back(t.Key());
  for (const Edge& t : targets) {
    for (const motif::TargetSubgraph& inst :
         motif::EnumerateTargetSubgraphs(base, t, kind)) {
      const graph::EdgeKey key = inst.edges[inst.num_edges - 1];
      const Edge e(graph::EdgeKeyU(key), graph::EdgeKeyV(key));
      if (std::find(target_keys.begin(), target_keys.end(), key) ==
              target_keys.end() &&
          std::find(delta.removed.begin(), delta.removed.end(), e) ==
              delta.removed.end()) {
        delta.removed.push_back(e);
      }
      break;
    }
    if (delta.removed.size() == 4) break;
  }
  while (delta.inserted.size() < 6) {
    const auto u = static_cast<graph::NodeId>(rng.UniformIndex(200));
    const auto v = static_cast<graph::NodeId>(rng.UniformIndex(200));
    const Edge e(std::min(u, v), std::max(u, v));  // deltas are canonical
    if (u != v && !base.HasEdge(u, v) &&
        std::find(delta.inserted.begin(), delta.inserted.end(), e) ==
            delta.inserted.end()) {
      delta.inserted.push_back(e);
    }
  }
  ASSERT_FALSE(delta.removed.empty());
  // GraphDelta lists are ascending by key.
  auto by_key = [](const Edge& a, const Edge& b) { return a.Key() < b.Key(); };
  std::sort(delta.removed.begin(), delta.removed.end(), by_key);
  std::sort(delta.inserted.begin(), delta.inserted.end(), by_key);
  ASSERT_TRUE(base.ApplyDelta(delta).ok());
  repo.ApplyEdit(delta, graph::Fingerprint(base));
  EXPECT_EQ(repo.LinkCacheBytes(), 0u);

  // New groups over the same links: each must equal a cold build on the
  // edited base, both the reference and a fresh repository's.
  const size_t misses_before = repo.NumLinkCacheMisses();
  const std::vector<Edge> subset(targets.begin() + 1, targets.end());
  ExpectMatchesReference(repo, base, subset, kind);
  EXPECT_EQ(repo.NumLinkCacheMisses(), misses_before + subset.size());
  std::vector<Edge> reordered = targets;
  std::reverse(reordered.begin(), reordered.end());
  ExpectMatchesReference(repo, base, reordered, kind);
  InstanceRepository cold(&base);
  Result<core::IndexedEngine> cold_engine =
      cold.AcquireEngine(cold.Intern(reordered, kind));
  Result<core::IndexedEngine> warm_engine =
      repo.AcquireEngine(repo.Intern(reordered, kind));
  ASSERT_TRUE(cold_engine.ok());
  ASSERT_TRUE(warm_engine.ok());
  EXPECT_TRUE(std::as_const(*warm_engine)
                  .index()
                  .BitIdentical(std::as_const(*cold_engine).index()));
  EXPECT_GT(repo.NumLinkCacheHits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllMotifs, LinkInstanceCacheTest,
                         ::testing::ValuesIn(motif::kAllMotifs),
                         [](const auto& info) {
                           return std::string(motif::MotifName(info.param));
                         });

}  // namespace
}  // namespace tpp::service
