// Warm-start equivalence tests: a snapshot written by any build
// configuration must reconstitute to an index bit-identical to the serial
// reference build, for every motif; and a store-backed service restart
// must produce byte-identical plan responses, both to its own cold run
// and to a run with no store at all.

#include <cstddef>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/problem.h"
#include "graph/datasets.h"
#include "graph/fingerprint.h"
#include "gtest/gtest.h"
#include "motif/incidence_index.h"
#include "reference/serial_index_build.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/store/plan_codec.h"
#include "service/store/warm_store.h"
#include "test_util.h"

namespace tpp::service::store {
namespace {

using ::tpp::testing::BuildFreshIndex;
namespace fs = std::filesystem;

using core::TppInstance;
using graph::Graph;
using motif::IncidenceIndex;
using motif::IndexSnapshotMeta;
using motif::MotifKind;

std::string TempStoreDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/tpp_warmstart_test_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

const Graph& ArenasBase() {
  static const Graph g = *graph::MakeArenasEmailLike(1);
  return g;
}

TppInstance MakeArenasInstance(MotifKind kind, size_t num_targets) {
  Rng rng(11);
  auto targets = *core::SampleTargets(ArenasBase(), num_targets, rng);
  return *core::MakeInstance(ArenasBase(), targets, kind);
}

IndexSnapshotMeta MetaFor(const TppInstance& inst) {
  IndexSnapshotMeta meta;
  meta.graph_fingerprint = graph::Fingerprint(inst.released);
  meta.target_hash = graph::TargetSetHash(inst.targets);
  meta.motif = inst.motif;
  meta.num_targets = static_cast<uint32_t>(inst.targets.size());
  return meta;
}

// Every motif, built serially and with a thread fan-out, snapshotted and
// reloaded: the loaded index must be bit-identical to the serial
// reference build. This pins down the full chain
//   parallel build == serial build == save(load(build))
// so a snapshot written by a multi-threaded service instance can be
// adopted by any other instance.
TEST(WarmStartBitIdentityTest, EveryMotifAndThreadCountMatchesSerial) {
  for (MotifKind kind : motif::kAllMotifs) {
    const TppInstance inst = MakeArenasInstance(kind, 30);
    const IncidenceIndex serial = *motif::BuildIndexSerialReference(
        inst.released, inst.targets, inst.motif);
    for (int threads : {1, 4}) {
      IncidenceIndex::BuildOptions options;
      options.threads = threads;
      const IncidenceIndex built = *BuildFreshIndex(
          inst.released, inst.targets, inst.motif, options);
      ASSERT_TRUE(built.BitIdentical(serial))
          << motif::MotifName(kind) << " threads=" << threads;

      const std::string dir = TempStoreDir(
          std::string(motif::MotifName(kind)) + "_t" +
          std::to_string(threads));
      std::unique_ptr<WarmStore> store = WarmStore::Open(dir).value();
      ASSERT_TRUE(store->SaveIndex(built, MetaFor(inst)).ok());
      Result<IncidenceIndex> loaded = store->LoadIndex(MetaFor(inst));
      ASSERT_TRUE(loaded.ok()) << loaded.status();
      EXPECT_TRUE(loaded->BitIdentical(serial))
          << motif::MotifName(kind) << " threads=" << threads;
    }
  }
}

std::vector<PlanRequest> MakeBatch() {
  std::vector<PlanRequest> requests;
  for (MotifKind kind : motif::kAllMotifs) {
    PlanRequest request;
    request.name = std::string(motif::MotifName(kind));
    request.motif = kind;
    request.sample = 15;
    request.seed = 3;
    request.spec.algorithm = "sgb";
    request.spec.budget = 8;
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<PlanResponse> RunWithStore(PlanService& plan_service,
                                       const std::vector<PlanRequest>& batch,
                                       const std::string& dir) {
  std::unique_ptr<WarmStore> store = WarmStore::Open(dir).value();
  PlanCache cache(64);
  cache.set_backing_store(store.get());
  BatchOptions options;
  options.cache = &cache;
  options.store = store.get();
  return plan_service.RunBatch(batch, options);
}

// Encoding with the wall-clock timing fields zeroed: those are the only
// persisted fields that legitimately differ between a fresh computation
// and a replayed one (a cached plan reports its original compute cost).
std::string EncodeWithoutTimings(PlanResponse response) {
  response.seconds = 0;
  response.result.total_seconds = 0;
  for (core::PickTrace& pick : response.result.picks) {
    pick.cumulative_seconds = 0;
  }
  return EncodePlanResponse(std::move(response));
}

// The store must never change what the service computes — only how fast.
// Three runs of the same batch: no store, cold store, and a restarted
// process reading that store back. The restart must replay the cold
// run's responses byte-for-byte (timings included — it serves the
// persisted plan, it does not recompute), and both store runs must match
// the no-store baseline on every field except wall-clock timings.
TEST(WarmStartBatchTest, RestartResponsesAreByteIdentical) {
  PlanService plan_service(ArenasBase());
  const std::vector<PlanRequest> batch = MakeBatch();
  const std::string dir = TempStoreDir("batch_restart");

  const std::vector<PlanResponse> baseline =
      plan_service.RunBatch(batch, BatchOptions{});
  const std::vector<PlanResponse> cold =
      RunWithStore(plan_service, batch, dir);
  // Fresh WarmStore + PlanCache over the same directory: the restart.
  const std::vector<PlanResponse> warm =
      RunWithStore(plan_service, batch, dir);

  ASSERT_EQ(baseline.size(), batch.size());
  ASSERT_EQ(cold.size(), batch.size());
  ASSERT_EQ(warm.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(baseline[i].status.ok()) << baseline[i].status;
    EXPECT_EQ(EncodePlanResponse(warm[i]), EncodePlanResponse(cold[i]))
        << batch[i].name;
    const std::string reference = EncodeWithoutTimings(baseline[i]);
    EXPECT_EQ(EncodeWithoutTimings(cold[i]), reference) << batch[i].name;
    EXPECT_EQ(EncodeWithoutTimings(warm[i]), reference) << batch[i].name;
    EXPECT_TRUE(warm[i].from_cache) << batch[i].name;
  }
}

// An evicted group leaves the table; interned and acquired again, it
// re-adopts the snapshot its cold build wrote back — a store hit, not a
// second cold build (no link-cache enumeration, no second write).
TEST(WarmStartRepositoryTest, EvictedGroupReadoptsItsSnapshot) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kRectangle, 20);
  const std::string dir = TempStoreDir("evicted_readopts");
  std::unique_ptr<WarmStore> store = WarmStore::Open(dir).value();
  InstanceRepository repository(&ArenasBase(), /*max_bytes=*/0);
  repository.set_store(store.get(), MetaFor(inst).graph_fingerprint);
  // Two acquisitions admit the group, so Trim evicts it rather than
  // dropping a one-off.
  for (int use = 0; use < 2; ++use) {
    ASSERT_TRUE(
        repository.AcquireEngine(repository.Intern(inst.targets, inst.motif))
            .ok());
  }
  EXPECT_EQ(store->stats().index_writes, 1u);
  const size_t misses = repository.NumLinkCacheMisses();
  EXPECT_GT(misses, 0u);

  repository.Trim();
  EXPECT_EQ(repository.NumEvictions(), 1u);
  EXPECT_EQ(repository.ResidentBytes(), 0u);
  EXPECT_EQ(repository.NumGroups(), 0u);

  Result<core::IndexedEngine> engine =
      repository.AcquireEngine(repository.Intern(inst.targets, inst.motif));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_EQ(store->stats().index_hits, 1u);
  EXPECT_EQ(store->stats().index_writes, 1u);
  EXPECT_EQ(repository.NumLinkCacheMisses(), misses);
  EXPECT_EQ(repository.NumLinkCacheHits(), 0u);
  EXPECT_TRUE(engine->index().BitIdentical(*BuildFreshIndex(
      inst.released, inst.targets, inst.motif)));
}

}  // namespace
}  // namespace tpp::service::store
