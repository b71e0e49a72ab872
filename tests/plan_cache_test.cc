// Tests for the content-addressed plan cache (service/plan_cache.h):
// canonical keying, LRU bounds and counters, hit/miss behavior through
// the pipeline, and base-graph-change invalidation via the fingerprint.

#include "service/plan_cache.h"

#include <string>
#include <vector>

#include "core/tpp.h"
#include "graph/datasets.h"
#include "gtest/gtest.h"
#include "service/plan_service.h"
#include "test_util.h"

namespace tpp::service {
namespace {

using graph::Edge;
using graph::Graph;
using testing::E;

const Graph& ArenasBase() {
  static const Graph g = *graph::MakeArenasEmailLike(1);
  return g;
}

PlanRequest BaseRequest() {
  PlanRequest request;
  request.sample = 5;
  request.seed = 7;
  request.spec.algorithm = "sgb";
  request.spec.budget = 4;
  return request;
}

TEST(CanonicalRequestKeyTest, EveryResponseRelevantFieldChangesTheKey) {
  const uint64_t fp = 0x1234;
  PlanRequest request = BaseRequest();
  const std::string key = CanonicalRequestKey(fp, request);

  // The name never reaches the response payload, so it never changes the
  // key — that is what lets differently-named repeats hit.
  PlanRequest renamed = request;
  renamed.name = "other";
  EXPECT_EQ(CanonicalRequestKey(fp, renamed), key);

  PlanRequest changed = request;
  changed.seed = 8;
  EXPECT_NE(CanonicalRequestKey(fp, changed), key);
  changed = request;
  changed.sample = 6;
  EXPECT_NE(CanonicalRequestKey(fp, changed), key);
  changed = request;
  changed.motif = motif::MotifKind::kRectangle;
  EXPECT_NE(CanonicalRequestKey(fp, changed), key);
  changed = request;
  changed.spec.algorithm = "rdt";
  EXPECT_NE(CanonicalRequestKey(fp, changed), key);
  changed = request;
  changed.spec.scope = core::CandidateScope::kAllEdges;
  EXPECT_NE(CanonicalRequestKey(fp, changed), key);
  changed = request;
  changed.spec.budget = 5;
  EXPECT_NE(CanonicalRequestKey(fp, changed), key);
  changed = request;
  changed.spec.budget = core::SolverSpec::kFullProtection;
  EXPECT_NE(CanonicalRequestKey(fp, changed), key);
  // A different base graph (fingerprint) never matches.
  EXPECT_NE(CanonicalRequestKey(fp + 1, request), key);

  // Explicit targets key on the links (order preserved), not the sample.
  PlanRequest links = request;
  links.targets = {E(3, 14), E(15, 92)};
  PlanRequest swapped = request;
  swapped.targets = {E(15, 92), E(3, 14)};
  EXPECT_NE(CanonicalRequestKey(fp, links), key);
  EXPECT_NE(CanonicalRequestKey(fp, links),
            CanonicalRequestKey(fp, swapped));
}

TEST(CanonicalRequestKeyTest, KeyFingerprintReadsTheEmbeddedFingerprint) {
  for (uint64_t fp : {uint64_t{0}, uint64_t{0xfedcba9876543210ull}}) {
    EXPECT_EQ(KeyFingerprint(CanonicalRequestKey(fp, BaseRequest())), fp);
  }
  // Anything not in the canonical shape has no fingerprint.
  for (const char* key : {"", "tpp-plan-v1|fp=00000000000012",
                          "tpp-plan-v1|fp=000000000000123x|",
                          "tpp-plan-v0|fp=0000000000001234|"}) {
    EXPECT_EQ(KeyFingerprint(key), std::nullopt) << key;
  }
}

TEST(PlanCacheTest, LruBoundsAndCounters) {
  PlanCache cache(2);
  PlanResponse response;
  response.plan_text = "a";
  cache.Insert("k1", response);
  response.plan_text = "b";
  cache.Insert("k2", response);

  PlanResponse out;
  EXPECT_TRUE(cache.Lookup("k1", &out));  // k1 now most-recently-used
  EXPECT_EQ(out.plan_text, "a");
  response.plan_text = "c";
  cache.Insert("k3", response);  // evicts k2, the LRU entry

  EXPECT_FALSE(cache.Lookup("k2", &out));
  EXPECT_TRUE(cache.Lookup("k1", &out));
  EXPECT_TRUE(cache.Lookup("k3", &out));
  EXPECT_EQ(out.plan_text, "c");

  PlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);

  cache.Clear();
  EXPECT_EQ(cache.stats().size, 0u);
  EXPECT_FALSE(cache.Lookup("k1", &out));
}

TEST(PlanCacheTest, HitAfterIdenticalRequestThroughThePipeline) {
  PlanService plan_service(ArenasBase());
  PlanCache cache(8);
  BatchOptions options;
  options.cache = &cache;
  std::vector<PlanRequest> requests = {BaseRequest()};

  std::vector<PlanResponse> cold = plan_service.RunBatch(requests, options);
  ASSERT_TRUE(cold[0].status.ok());
  EXPECT_FALSE(cold[0].from_cache);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Same request, new batch, even a different name: served from cache,
  // payload identical.
  requests[0].name = "renamed";
  std::vector<PlanResponse> warm = plan_service.RunBatch(requests, options);
  ASSERT_TRUE(warm[0].status.ok());
  EXPECT_TRUE(warm[0].from_cache);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(warm[0].targets, cold[0].targets);
  EXPECT_EQ(warm[0].plan_text, cold[0].plan_text);
  EXPECT_EQ(warm[0].result.protectors, cold[0].result.protectors);
}

TEST(PlanCacheTest, MissAfterSeedChange) {
  PlanService plan_service(ArenasBase());
  PlanCache cache(8);
  BatchOptions options;
  options.cache = &cache;
  std::vector<PlanRequest> requests = {BaseRequest()};
  plan_service.RunBatch(requests, options);

  requests[0].seed = 8;
  std::vector<PlanResponse> responses =
      plan_service.RunBatch(requests, options);
  EXPECT_FALSE(responses[0].from_cache);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(PlanCacheTest, BaseGraphChangeInvalidatesViaFingerprint) {
  // One cache shared by two services over different bases: entries are
  // content-addressed by fingerprint, so the modified base never matches
  // the original's entries (and vice versa).
  Graph modified = ArenasBase();
  Edge dropped = modified.Edges()[3];
  ASSERT_TRUE(modified.RemoveEdge(dropped.u, dropped.v).ok());

  PlanService original_service(ArenasBase());
  PlanService modified_service(modified);
  ASSERT_NE(original_service.fingerprint(), modified_service.fingerprint());

  PlanCache cache(8);
  BatchOptions options;
  options.cache = &cache;
  std::vector<PlanRequest> requests = {BaseRequest()};

  std::vector<PlanResponse> first =
      original_service.RunBatch(requests, options);
  std::vector<PlanResponse> second =
      modified_service.RunBatch(requests, options);
  EXPECT_FALSE(second[0].from_cache);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // The two bases legitimately produce different plans; the cache kept
  // them apart.
  ASSERT_TRUE(first[0].status.ok());
  ASSERT_TRUE(second[0].status.ok());
  EXPECT_TRUE(cache.stats().size == 2u);

  // Re-running against the original base still hits its own entry.
  std::vector<PlanResponse> warm =
      original_service.RunBatch(requests, options);
  EXPECT_TRUE(warm[0].from_cache);
  EXPECT_EQ(warm[0].plan_text, first[0].plan_text);
}

}  // namespace
}  // namespace tpp::service
