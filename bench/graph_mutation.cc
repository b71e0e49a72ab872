// Live-edit benchmark: in-place IncidenceIndex repair vs cold rebuild
// under batched base-graph churn on the Arenas fixture. Emits
// BENCH_graph_mutation.json.
//
// Two sections:
//   repair-vs-rebuild — per motif x churn level {0.1%, 1%, 5%} of the
//                 released edge count: a committed edit session's delta
//                 (half removals of existing edges, half insertions of
//                 absent pairs, never touching a target link) is applied
//                 the way InstanceRepository applies it: to a copy of the
//                 base graph, then to a copy of the built index via
//                 IncidenceIndex::ApplyGraphDelta on the edited base
//                 (delta-neighborhood repair), timed together against a
//                 rebuild: IncidenceIndex::BuildCached on the edited base
//                 through an empty link cache, at the same thread budget
//                 — what a group's rebuild costs after ApplyEdit cleared
//                 the repository's link cache. EVERY rep
//                 proves equivalence the strong way: an sgb restricted
//                 solve on an engine adopting the repaired index must
//                 serialize a byte-identical deletion plan to the same
//                 solve on an engine adopting the rebuilt index.
//   cache-survival — a PlanService batch (explicit far-target requests +
//                 one sampled and one near-target request) runs against a
//                 PlanCache and an external InstanceRepository, a small
//                 edit commits through PlanService::ApplyEdit (cache
//                 rekeying + in-place group repair), and the batch reruns:
//                 far requests must hit the rekeyed cache (their plans
//                 CHECKed byte-identical to a cold service over the edited
//                 graph) while requests in the delta neighborhood are
//                 invalidated and re-solve.
//   copy        — info only, never gated: a copy of a Holme-Kim base
//                 graph (10^5 nodes; 10^6 too in full mode) minus three
//                 target links, and its release, the way a cache-missing
//                 request derives its engine's released graph from the
//                 shared base (IndexedEngine::Adopt) and frees it with
//                 the engine. Reps, median and quartiles per side and for
//                 the sum.
//
// Flags: --quick (fewer repetitions, CI smoke mode), --threads=N (build
//        thread budget for both sides; default 1), --targets=N (protected
//        edges per motif; default 1500, matching store_warmstart so the
//        rebuild cost is the realistic serving cost), --out=PATH (default
//        BENCH_graph_mutation.json).

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/timer.h"
#include "harness_common.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "core/report.h"
#include "core/solver.h"
#include "graph/datasets.h"
#include "graph/fingerprint.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "motif/incidence_index.h"
#include "motif/link_instances.h"
#include "reference/run_one_cold.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"

namespace tpp::bench {
namespace {

using core::IndexedEngine;
using core::TppInstance;
using graph::Edge;
using graph::EdgeKey;
using graph::GraphDelta;
using graph::NodeId;
using motif::IncidenceIndex;
using motif::LinkInstanceCache;
using motif::MotifKind;

// Overridable via --targets; matches bench/store_warmstart.cc so the cold
// rebuild here is the same index construction the warm-start bench prices.
size_t g_num_targets = 1500;

const double kChurnLevels[] = {0.1, 1.0, 5.0};

struct ChurnResult {
  std::string motif;
  double churn_pct = 0;
  size_t edits = 0;
  size_t instances = 0;
  double repair_ms = 0;
  double rebuild_ms = 0;
  double repair_speedup = 0;
};

struct CacheResult {
  size_t requests = 0;
  size_t far_requests = 0;
  size_t cache_rekeyed = 0;
  size_t invalidated_by_edit = 0;
  size_t groups_repaired = 0;
  size_t groups_reset = 0;
  size_t post_edit_cache_hits = 0;
  double post_edit_cache_hit_rate = 0;
};

struct CopyResult {
  size_t nodes = 0;
  size_t edges = 0;
  size_t reps = 0;
  Spread copy_ms;
  Spread release_ms;
  Spread total_ms;
};

TppInstance MakeArenas(const graph::Graph& base, MotifKind kind) {
  Rng rng(7);
  auto targets = *core::SampleTargets(base, g_num_targets, rng);
  return *core::MakeInstance(base, targets, kind);
}

// A random normalized delta against `g`: `edits`/2 removals of existing
// edges plus the rest insertions of absent pairs, none of them target
// links (edits to target links change the problem itself and route
// through a group reset, not a repair).
GraphDelta RandomChurn(const graph::Graph& g,
                       const std::unordered_set<EdgeKey>& target_keys,
                       size_t edits, Rng& rng) {
  const std::vector<Edge> edges = g.Edges();
  GraphDelta delta;
  std::unordered_set<EdgeKey> used;
  const size_t removes = edits / 2;
  while (delta.removed.size() < removes) {
    const Edge& e = edges[rng.UniformIndex(edges.size())];
    if (used.insert(e.Key()).second) delta.removed.push_back(e);
  }
  while (delta.inserted.size() < edits - removes) {
    NodeId u = static_cast<NodeId>(rng.UniformIndex(g.NumNodes()));
    NodeId v = static_cast<NodeId>(rng.UniformIndex(g.NumNodes()));
    if (u == v || g.HasEdge(u, v)) continue;
    EdgeKey key = graph::MakeEdgeKey(u, v);
    if (target_keys.count(key) || !used.insert(key).second) continue;
    delta.inserted.emplace_back(std::min(u, v), std::max(u, v));
  }
  const auto by_key = [](const Edge& a, const Edge& b) {
    return a.Key() < b.Key();
  };
  std::sort(delta.inserted.begin(), delta.inserted.end(), by_key);
  std::sort(delta.removed.begin(), delta.removed.end(), by_key);
  return delta;
}

// The strong equivalence check: repaired and rebuilt index must drive
// the sgb restricted greedy to a byte-identical deletion plan.
void CheckPlansByteIdentical(IncidenceIndex repaired, IncidenceIndex rebuilt,
                             const graph::Graph& edited_base,
                             const core::TppProblem& problem) {
  core::SolverSpec spec;
  spec.algorithm = "sgb";
  spec.budget = 8;
  Rng rng_a(99), rng_b(99);
  Result<IndexedEngine> via_repair =
      IndexedEngine::Adopt(edited_base, problem, std::move(repaired));
  TPP_CHECK(via_repair.ok());
  Result<core::ProtectionResult> a =
      core::RunSolver(spec, *via_repair, problem, rng_a);
  TPP_CHECK(a.ok());
  Result<IndexedEngine> via_rebuild =
      IndexedEngine::Adopt(edited_base, problem, std::move(rebuilt));
  TPP_CHECK(via_rebuild.ok());
  Result<core::ProtectionResult> b =
      core::RunSolver(spec, *via_rebuild, problem, rng_b);
  TPP_CHECK(b.ok());
  TPP_CHECK(core::SerializeDeletionPlan(problem, *a) ==
            core::SerializeDeletionPlan(problem, *b));
}

ChurnResult RunChurnLevel(MotifKind kind, const graph::Graph& base,
                          const TppInstance& inst,
                          const IncidenceIndex& prototype, double churn_pct,
                          bool quick, int build_threads) {
  ChurnResult out;
  out.motif = std::string(motif::MotifName(kind));
  out.churn_pct = churn_pct;
  out.instances = prototype.instances().size();
  out.edits = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(inst.released.NumEdges()) *
                             churn_pct / 100.0));
  // The rebuild side re-enumerates the full motif set every rep; keep
  // Pentagon repetitions low exactly as store_warmstart does (but never
  // a single rep: the first carries the cold-cache warmup).
  const size_t reps = quick ? (kind == MotifKind::kPentagon ? 2 : 3)
                            : (kind == MotifKind::kPentagon ? 3 : 5);

  std::unordered_set<EdgeKey> target_keys;
  for (const Edge& t : inst.targets) target_keys.insert(t.Key());

  IncidenceIndex::BuildOptions options;
  options.threads = build_threads;

  // Each rep draws a fresh random delta (so the equivalence CHECKs cover
  // distinct edits); the reported times are the per-side minima across
  // reps — the standard noise floor, since every rep does the same amount
  // of nominal work on both sides.
  double repair_best = 0, rebuild_best = 0;
  for (size_t r = 0; r < reps; ++r) {
    Rng rng(1000 * static_cast<uint64_t>(kind) +
            static_cast<uint64_t>(churn_pct * 10) + r);
    GraphDelta delta = RandomChurn(inst.released, target_keys, out.edits,
                                   rng);

    graph::Graph edited_base = base;
    IncidenceIndex repaired = prototype;
    {
      WallTimer timer;
      TPP_CHECK(edited_base.ApplyDelta(delta).ok());
      TPP_CHECK(
          repaired.ApplyGraphDelta(edited_base, inst.targets, kind, delta)
              .ok());
      const double ms = timer.Millis();
      repair_best = r == 0 ? ms : std::min(repair_best, ms);
    }
    IncidenceIndex rebuilt = [&] {
      WallTimer timer;
      LinkInstanceCache cache;
      IncidenceIndex idx = *IncidenceIndex::BuildCached(
          edited_base, inst.targets, kind, cache, options);
      const double ms = timer.Millis();
      rebuild_best = r == 0 ? ms : std::min(rebuild_best, ms);
      return idx;
    }();
    TPP_CHECK_EQ(repaired.TotalAlive(), rebuilt.TotalAlive());

    CheckPlansByteIdentical(std::move(repaired), std::move(rebuilt),
                            edited_base, inst);
  }
  out.repair_ms = repair_best;
  out.rebuild_ms = rebuild_best;
  out.repair_speedup =
      out.repair_ms > 0 ? out.rebuild_ms / out.repair_ms : 0;
  return out;
}

// ---------------------------------------------------------------------------
// Cache-survival section.

// Explicit-target request over `links`, shaped to satisfy the cache
// survival rules (deterministic sgb, restricted scope).
service::PlanRequest FarRequest(const std::string& name,
                                std::vector<Edge> links) {
  service::PlanRequest request;
  request.name = name;
  request.targets = std::move(links);
  request.spec.algorithm = "sgb";
  request.spec.scope = core::CandidateScope::kTargetSubgraphEdges;
  request.spec.budget = 6;
  request.seed = 3;
  return request;
}

CacheResult RunCacheSurvival() {
  Result<graph::Graph> base = graph::MakeArenasEmailLike(1);
  TPP_CHECK(base.ok());

  // Pick the edit first, then derive its distance-1 affected set so the
  // "far" requests provably sit outside it.
  Rng churn_rng(42);
  GraphDelta delta = RandomChurn(*base, {}, 12, churn_rng);
  std::unordered_set<NodeId> affected;
  const auto touch = [&](const Edge& e) {
    affected.insert(e.u);
    affected.insert(e.v);
    for (NodeId w : base->Neighbors(e.u)) affected.insert(w);
    for (NodeId w : base->Neighbors(e.v)) affected.insert(w);
  };
  for (const Edge& e : delta.inserted) touch(e);
  for (const Edge& e : delta.removed) touch(e);

  // Far target links: existing edges with both endpoints outside the
  // affected set, chunked two per request.
  constexpr size_t kFarRequests = 6;
  std::vector<service::PlanRequest> requests;
  {
    std::vector<Edge> pool;
    for (const Edge& e : base->Edges()) {
      if (!affected.count(e.u) && !affected.count(e.v)) pool.push_back(e);
      if (pool.size() == 2 * kFarRequests) break;
    }
    TPP_CHECK_EQ(pool.size(), 2 * kFarRequests);
    for (size_t i = 0; i < kFarRequests; ++i) {
      requests.push_back(FarRequest("far" + std::to_string(i),
                                    {pool[2 * i], pool[2 * i + 1]}));
    }
  }
  // Two requests the edit must invalidate: one sampled (targets depend on
  // the base fingerprint) and one whose target link sits inside the delta
  // neighborhood.
  {
    service::PlanRequest sampled;
    sampled.name = "sampled";
    sampled.sample = 15;
    sampled.seed = 5;
    sampled.spec.algorithm = "sgb";
    sampled.spec.budget = 6;
    requests.push_back(std::move(sampled));
    requests.push_back(FarRequest("near", {delta.removed.front()}));
    // The near request targets a link the edit deletes; re-point it at a
    // surviving edge incident to a touched endpoint instead.
    const Edge& victim = delta.removed.front();
    requests.back().targets.clear();
    for (NodeId w : base->Neighbors(victim.u)) {
      if (graph::MakeEdgeKey(victim.u, w) != victim.Key()) {
        requests.back().targets.emplace_back(std::min(victim.u, w),
                                             std::max(victim.u, w));
        break;
      }
    }
    TPP_CHECK(!requests.back().targets.empty());
  }

  service::PlanService plan_service(*base);
  service::PlanCache cache(1024);
  service::InstanceRepository repository(&plan_service.base());
  service::BatchOptions options;
  options.cache = &cache;
  options.repository = &repository;

  service::BatchStats cold_stats;
  options.stats = &cold_stats;
  std::vector<service::PlanResponse> cold =
      plan_service.RunBatch(requests, options);
  for (const service::PlanResponse& response : cold) {
    TPP_CHECK(response.status.ok());
  }

  Result<service::EditSummary> summary =
      plan_service.ApplyEdit(delta, &cache, &repository);
  TPP_CHECK(summary.ok());

  service::BatchStats warm_stats;
  options.stats = &warm_stats;
  std::vector<service::PlanResponse> warm =
      plan_service.RunBatch(requests, options);

  // Reference: a cold solve over the edited graph, no cache, no
  // sharing. Every response — served from the rekeyed cache or re-solved
  // — must match it byte for byte.
  graph::Graph edited = *base;
  TPP_CHECK(edited.ApplyDelta(delta).ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    TPP_CHECK(warm[i].status.ok());
    if (i < kFarRequests) TPP_CHECK(warm[i].from_cache);
    service::PlanResponse reference =
        service::RunOneCold(edited, requests[i]);
    TPP_CHECK(reference.status.ok());
    TPP_CHECK(warm[i].plan_text == reference.plan_text);
  }

  CacheResult out;
  out.requests = requests.size();
  out.far_requests = kFarRequests;
  out.cache_rekeyed = summary->cache_rekeyed;
  out.invalidated_by_edit = summary->cache_invalidated;
  out.groups_repaired = summary->groups_repaired;
  out.groups_reset = summary->groups_reset;
  out.post_edit_cache_hits = warm_stats.cache_hits;
  out.post_edit_cache_hit_rate =
      static_cast<double>(warm_stats.cache_hits) /
      static_cast<double>(requests.size());
  TPP_CHECK(out.post_edit_cache_hits >= kFarRequests);
  TPP_CHECK(out.invalidated_by_edit > 0);
  return out;
}

CopyResult RunCopy(size_t num_nodes, size_t reps) {
  Rng rng(20261019);
  const graph::Graph base = *graph::HolmeKim(num_nodes, 4, 0.5, rng);
  // What IndexedEngine::Adopt gives a 3-link request: a copy of the base
  // with the targets removed.
  const std::vector<Edge> targets = rng.SampleK(base.Edges(), 3);
  std::vector<double> copy_ms, release_ms, total_ms;
  for (size_t rep = 0; rep < reps; ++rep) {
    WallTimer timer;
    auto copy = std::make_unique<graph::Graph>(base);
    copy->RemoveEdges(targets);
    const double copied = timer.Millis();
    timer.Restart();
    copy.reset();
    const double freed = timer.Millis();
    copy_ms.push_back(copied);
    release_ms.push_back(freed);
    total_ms.push_back(copied + freed);
  }
  return {num_nodes,         base.NumEdges() - targets.size(), reps,
          SpreadOf(copy_ms), SpreadOf(release_ms),          SpreadOf(total_ms)};
}

void WriteJson(const std::string& path, bool quick,
               const std::vector<ChurnResult>& results,
               const CacheResult& cache,
               const std::vector<CopyResult>& copies,
               double min_speedup_at_1pct) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"graph_mutation\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"num_targets\": %zu,\n", g_num_targets);
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ChurnResult& r = results[i];
    std::fprintf(f,
                 "    {\"motif\": \"%s\", \"churn_pct\": %.1f, "
                 "\"edits\": %zu, \"instances\": %zu, "
                 "\"repair_ms\": %.3f, \"rebuild_ms\": %.3f, "
                 "\"repair_speedup\": %.1f, "
                 "\"plan_byte_identical\": true}%s\n",
                 r.motif.c_str(), r.churn_pct, r.edits, r.instances,
                 r.repair_ms, r.rebuild_ms, r.repair_speedup,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"cache\": {\"requests\": %zu, \"far_requests\": %zu, "
               "\"cache_rekeyed\": %zu, \"invalidated_by_edit\": %zu, "
               "\"groups_repaired\": %zu, \"groups_reset\": %zu, "
               "\"post_edit_cache_hits\": %zu, "
               "\"post_edit_cache_hit_rate\": %.3f, "
               "\"survivor_plans_byte_identical\": true},\n",
               cache.requests, cache.far_requests, cache.cache_rekeyed,
               cache.invalidated_by_edit, cache.groups_repaired,
               cache.groups_reset, cache.post_edit_cache_hits,
               cache.post_edit_cache_hit_rate);
  std::fprintf(f, "  \"copy\": {\"info_only\": true, \"rows\": [\n");
  for (size_t i = 0; i < copies.size(); ++i) {
    const CopyResult& c = copies[i];
    std::fprintf(f, "    {\"graph\": \"holme_kim\", \"nodes\": %zu, "
                 "\"edges\": %zu, \"reps\": %zu", c.nodes, c.edges, c.reps);
    for (const auto& [name, spread] :
         {std::pair{"copy", c.copy_ms}, std::pair{"release", c.release_ms},
          std::pair{"copy_release", c.total_ms}}) {
      std::fprintf(f,
                   ", \"%s_median_ms\": %.4f, \"%s_q1_ms\": %.4f, "
                   "\"%s_q3_ms\": %.4f",
                   name, spread.median, name, spread.q1, name, spread.q3);
    }
    std::fprintf(f, "}%s\n", i + 1 < copies.size() ? "," : "");
  }
  std::fprintf(f, "  ]},\n");
  std::fprintf(f, "  \"min_speedup_at_1pct\": %.1f\n}\n",
               min_speedup_at_1pct);
  std::fclose(f);
  std::printf("[json] %s\n", path.c_str());
}

int Run(int argc, char** argv) {
#if defined(__GLIBC__)
  // Both sides of the comparison allocate and free hundred-KB arrays
  // every rep; with default thresholds glibc serves those via mmap and
  // returns them on free, so each timed commit re-pays page faults on
  // fresh zero pages. Pin the thresholds so the heap retains and reuses
  // the pages — steady-state allocator behavior for a long-lived
  // service, applied identically to repair and rebuild.
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
  Result<ParsedArgs> args = ParsedArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Status threads_status = ApplyThreadsFlag(*args);
  if (!threads_status.ok()) {
    std::fprintf(stderr, "error: %s\n", threads_status.ToString().c_str());
    return 2;
  }
  const bool quick = args->GetBool("quick");
  Result<int64_t> threads_flag = args->GetInt("threads", 1);
  const int build_threads =
      *threads_flag <= 0 ? 1 : static_cast<int>(*threads_flag);
  Result<int64_t> targets_flag =
      args->GetInt("targets", static_cast<int64_t>(g_num_targets));
  if (*targets_flag > 0) {
    g_num_targets = static_cast<size_t>(*targets_flag);
  }
  const std::string out_path =
      args->GetString("out", "BENCH_graph_mutation.json");

  std::printf("== graph mutation: in-place index repair vs cold rebuild, "
              "Arenas-email-like, |T|=%zu%s ==\n\n",
              g_num_targets, quick ? ", quick" : "");
  std::vector<ChurnResult> results;
  double min_speedup_at_1pct = 0;
  const Result<graph::Graph> arenas = graph::MakeArenasEmailLike(1);
  TPP_CHECK(arenas.ok());
  for (MotifKind kind : motif::kAllMotifs) {
    const TppInstance inst = MakeArenas(*arenas, kind);
    LinkInstanceCache cache;
    const IncidenceIndex prototype = *IncidenceIndex::BuildCached(
        *arenas, inst.targets, kind, cache, IncidenceIndex::BuildOptions{});
    for (double churn : kChurnLevels) {
      ChurnResult result = RunChurnLevel(kind, *arenas, inst, prototype,
                                         churn, quick, build_threads);
      std::printf("%-9s %4.1f%% churn (%5zu edits)  repair %9.3f ms  "
                  "rebuild %9.2f ms  speedup %7.1fx\n",
                  result.motif.c_str(), result.churn_pct, result.edits,
                  result.repair_ms, result.rebuild_ms,
                  result.repair_speedup);
      if (churn <= 1.0) {
        min_speedup_at_1pct =
            results.empty() || min_speedup_at_1pct == 0
                ? result.repair_speedup
                : std::min(min_speedup_at_1pct, result.repair_speedup);
      }
      results.push_back(std::move(result));
    }
  }

  CacheResult cache = RunCacheSurvival();
  std::printf("\ncache survival: %zu/%zu requests served from the rekeyed "
              "cache after the edit (%zu invalidated, %zu groups repaired "
              "in place, %zu reset), survivors byte-identical to a cold "
              "service over the edited graph\n",
              cache.post_edit_cache_hits, cache.requests,
              cache.invalidated_by_edit, cache.groups_repaired,
              cache.groups_reset);
  std::printf("minimum repair speedup at <=1%% churn: %.1fx, every rep "
              "plan-byte-identical to the cold rebuild\n",
              min_speedup_at_1pct);
  std::vector<CopyResult> copies;
  for (size_t nodes : quick ? std::vector<size_t>{100000}
                            : std::vector<size_t>{100000, 1000000}) {
    copies.push_back(RunCopy(nodes, quick ? 9 : 25));
    const CopyResult& c = copies.back();
    std::printf("graph copy + release, Holme-Kim n=%zu m=%zu: median "
                "%.3f ms (IQR %.3f, %zu reps; copy %.3f, release %.3f)\n",
                c.nodes, c.edges, c.total_ms.median, c.total_ms.Iqr(),
                c.reps, c.copy_ms.median, c.release_ms.median);
  }
  WriteJson(out_path, quick, results, cache, copies, min_speedup_at_1pct);
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
