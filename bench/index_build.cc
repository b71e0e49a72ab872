// Instance-construction benchmark: the production IncidenceIndex build
// paths vs the serial reference build on the Fig. 5 Arenas fixture. Emits
// a machine-readable BENCH_index_build.json so the perf trajectory of the
// cold build stage — the dominant cost of distinct-target-set serving — is
// tracked across PRs.
//
// For every motif the bench times one 200-target set with these rows:
//   reference      — motif::BuildIndexSerialReference: serial
//                    per-target enumeration with materialized
//                    common-neighbor vectors, hash-map edge-id resolution
//                    in the CSR fill, per-edge scratch sort for the
//                    per-target counts.
//   build @ T      — IncidenceIndex::Build: task-parallel enumeration
//                    (hub targets split by first-neighbor chunk),
//                    marker-based O(1) adjacency probes, radix-sort
//                    interning with probe-table id resolution,
//                    count-then-fill CSR passes writing the slot table in
//                    the CSR-2 fill. Only enumeration fans out, and only
//                    above its work estimate, so T sweeps 1, 2, 4, 8 for a
//                    motif whose build passes that test and is 1 for the
//                    rest: a wider row would re-time the serial path.
//   cold @ T       — IncidenceIndex::BuildCached with an empty
//                    LinkInstanceCache: every link misses, so the row
//                    shows the all-miss overhead (base-graph enumeration,
//                    publishing the lists, the filter) over `build`.
//   cached @ T     — BuildCached after three other target sets, each half
//                    of this set's links plus 100 others, warmed the
//                    cache (untimed, per rep): the serving case, where
//                    most links were enumerated by earlier groups. The row
//                    records the hit rate it saw.
// cold and cached run at 1 thread, and also at the widest point <= 4 when
// the links they enumerate (all of them for cold, the ones the warm sets
// missed for cached) pass the same test. Each motif records its build's
// work estimate and whether it fans out, and the file records
// host_parallel_speedup (harness_common.h): what the box gave the run,
// which bounds any thread row's speedup. One info
// row, never compared to anything, times the serving case at the other
// extreme: a cold BuildCached of a 1-target Triangle index on the
// servebench point_hk1e5 fixture (Holme-Kim, 10^5 nodes, seed 1), with the
// index's MemoryBytes(), which holds no per-node array. A second info
// row, heavy_stream, times the serving case of servebench's heavy_arenas
// workload: a seeded stream of distinct 100-200-link target sets on this
// fixture (six in nine Pentagon, two Rectangle, one RecTri), each built
// once by BuildCached through one persistent LinkInstanceCache at 1
// thread. It records the spread of each stage over the stream and the
// cache's hit rate. The per-stage breakdown (enumerate = collect /
// intern / csr) comes from IncidenceIndex::BuildStats. Every row records
// its reps, median and interquartile range; the stage columns are
// medians. Every measured build is verified BitIdentical to the
// reference, so the speedups never come from computing something
// different.
//
// Flags: --quick (fewer repetitions, CI smoke mode), --threads=N (caps
//        the measured thread points at N — the TSan job passes 4 so the
//        sweep never exceeds its sanitizer budget; the 1-thread point
//        always runs), --out=PATH (default BENCH_index_build.json).

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/timer.h"
#include "core/problem.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "harness_common.h"
#include "motif/enumerate.h"
#include "motif/incidence_index.h"
#include "motif/link_instances.h"
#include "reference/serial_index_build.h"

namespace tpp::bench {
namespace {

using core::TppInstance;
using graph::Edge;
using graph::Graph;
using motif::IncidenceIndex;
using motif::LinkInstanceCache;
using motif::MotifKind;

constexpr size_t kNumTargets = 200;
constexpr int kThreadPoints[] = {1, 2, 4, 8};
constexpr size_t kWarmSets = 3;
constexpr size_t kWarmOtherLinks = 100;

struct Row {
  std::string kind;  ///< "reference", "build", "cold" or "cached"
  int threads = 1;
  size_t reps = 0;
  Spread total_ms;
  double enumerate_ms = 0;  ///< stage medians (0 for the reference)
  double intern_ms = 0;
  double csr_ms = 0;
  double hit_rate = -1;  ///< cached rows: cache hits / lists probed
};

struct MotifResult {
  std::string motif;
  size_t enumeration_work = 0;  ///< the build's EstimateEnumerationWork
  bool fans_out = false;        ///< the build's enumeration fans out
  size_t instances = 0;
  size_t interned_edges = 0;
  size_t tasks = 0;
  std::vector<Row> rows;

  const Row* Find(const std::string& kind, int threads) const {
    for (const Row& row : rows) {
      if (row.kind == kind && row.threads == threads) return &row;
    }
    return nullptr;
  }
  double SpeedupOf(const Row& row) const {
    const Row* reference = Find("reference", 1);
    return row.total_ms.median > 0
               ? reference->total_ms.median / row.total_ms.median
               : 0;
  }
};

// Times `reps` builds, each after an untimed `prepare` (when set), and
// checks the first against the reference.
using BuildFn =
    std::function<Result<IncidenceIndex>(IncidenceIndex::BuildStats*)>;

Row TimeRow(const std::string& kind, int threads, size_t reps,
            const IncidenceIndex& reference,
            const std::function<void()>& prepare, const BuildFn& build,
            MotifResult* result) {
  Row row;
  row.kind = kind;
  row.threads = threads;
  row.reps = reps;
  std::vector<double> total, enumerate, intern, csr;
  for (size_t r = 0; r < reps; ++r) {
    if (prepare) prepare();
    IncidenceIndex::BuildStats stats;
    WallTimer timer;
    Result<IncidenceIndex> idx = build(&stats);
    total.push_back(timer.Millis());
    TPP_CHECK(idx.ok());
    enumerate.push_back(stats.enumerate_seconds * 1e3);
    intern.push_back(stats.intern_seconds * 1e3);
    csr.push_back(stats.csr_seconds * 1e3);
    if (r == 0) {
      TPP_CHECK(idx->BitIdentical(reference));
      if (kind == "build" && threads == 1) {
        result->instances = stats.instances;
        result->interned_edges = stats.interned_edges;
        result->tasks = stats.tasks;
      }
    }
  }
  row.total_ms = SpreadOf(total);
  row.enumerate_ms = SpreadOf(enumerate).median;
  row.intern_ms = SpreadOf(intern).median;
  row.csr_ms = SpreadOf(csr).median;
  return row;
}

MotifResult RunMotif(const Graph& base, MotifKind kind, bool quick,
                     int max_threads, int wide_threads) {
  Rng rng(7);
  const std::vector<Edge> targets =
      *core::SampleTargets(base, kNumTargets, rng);
  const TppInstance inst = *core::MakeInstance(base, targets, kind);
  // The cached rows' warm sets: each half of this set's links plus links
  // no set here names, so about 1 - 2^-kWarmSets of the probes hit.
  std::vector<std::vector<Edge>> warm_sets;
  {
    Rng warm_rng(11);
    std::vector<Edge> others;
    for (const Edge& e : base.Edges()) {
      if (std::find(targets.begin(), targets.end(), e) == targets.end()) {
        others.push_back(e);
      }
    }
    for (size_t k = 0; k < kWarmSets; ++k) {
      std::vector<Edge> warm = warm_rng.SampleK(targets, kNumTargets / 2);
      for (const Edge& e : warm_rng.SampleK(others, kWarmOtherLinks)) {
        warm.push_back(e);
      }
      warm_rng.Shuffle(warm);
      warm_sets.push_back(std::move(warm));
    }
  }

  MotifResult out;
  out.motif = std::string(motif::MotifName(kind));
  // Pentagon probes O(deg^3) per target; keep its repetitions lower so
  // the full sweep stays seconds, not minutes.
  const size_t reps = quick ? (kind == MotifKind::kPentagon ? 3 : 5)
                            : (kind == MotifKind::kPentagon ? 15 : 31);

  const IncidenceIndex reference = *motif::BuildIndexSerialReference(
      inst.released, inst.targets, inst.motif);
  out.rows.push_back(TimeRow(
      "reference", 1, reps, reference, nullptr,
      [&](IncidenceIndex::BuildStats*) {
        return motif::BuildIndexSerialReference(inst.released, inst.targets,
                                                inst.motif);
      },
      &out));

  // The enumeration of `links` on `g` fans out: the test Build and
  // LinkInstanceCache::Collect apply, so no row re-times a serial path.
  auto fans_out = [&](const Graph& g, const std::vector<Edge>& links) {
    return motif::EstimateEnumerationWork(g, links, kind) >=
           motif::kMinParallelEnumerationWork;
  };
  out.enumeration_work =
      motif::EstimateEnumerationWork(inst.released, inst.targets, kind);
  out.fans_out =
      out.enumeration_work >= motif::kMinParallelEnumerationWork;
  for (int threads : kThreadPoints) {
    if (threads > 1 && (threads > max_threads || !out.fans_out)) continue;
    IncidenceIndex::BuildOptions options;
    options.threads = threads;
    out.rows.push_back(TimeRow(
        "build", threads, reps, reference, nullptr,
        [&](IncidenceIndex::BuildStats* stats) {
          return IncidenceIndex::Build(inst.released, inst.targets,
                                       inst.motif, options, stats);
        },
        &out));
  }

  // The links a cached build enumerates: those no warm set names (the
  // cache keys a link by its orientation, as the sets hold it).
  std::vector<Edge> cached_misses;
  for (const Edge& t : targets) {
    if (std::none_of(warm_sets.begin(), warm_sets.end(),
                     [&](const std::vector<Edge>& warm) {
                       return std::find(warm.begin(), warm.end(), t) !=
                              warm.end();
                     })) {
      cached_misses.push_back(t);
    }
  }
  auto cache_points = [&](const std::vector<Edge>& enumerated) {
    std::vector<int> points = {1};
    if (wide_threads > 1 && fans_out(base, enumerated)) {
      points.push_back(wide_threads);
    }
    return points;
  };
  IncidenceIndex::BuildOptions options;
  auto cache = std::make_unique<LinkInstanceCache>();
  auto build_cached = [&](IncidenceIndex::BuildStats* stats) {
    return IncidenceIndex::BuildCached(base, inst.targets, inst.motif, *cache,
                                       options, stats);
  };
  for (int threads : cache_points(targets)) {
    options.threads = threads;
    out.rows.push_back(TimeRow(
        "cold", threads, reps, reference,
        [&] { cache = std::make_unique<LinkInstanceCache>(); }, build_cached,
        &out));
  }
  for (int threads : cache_points(cached_misses)) {
    options.threads = threads;
    // Hits and probes of the timed builds only, not of the warm-ups.
    size_t hits = 0;
    size_t probes = 0;
    size_t warm_hits = 0;
    size_t warm_probes = 0;
    out.rows.push_back(TimeRow(
        "cached", threads, reps, reference,
        [&] {
          cache = std::make_unique<LinkInstanceCache>();
          for (const std::vector<Edge>& warm : warm_sets) {
            TPP_CHECK(
                IncidenceIndex::BuildCached(base, warm, kind, *cache, options)
                    .ok());
          }
          warm_hits = cache->hits();
          warm_probes = cache->hits() + cache->misses();
        },
        [&](IncidenceIndex::BuildStats* stats) {
          Result<IncidenceIndex> idx = build_cached(stats);
          hits += cache->hits() - warm_hits;
          probes += cache->hits() + cache->misses() - warm_probes;
          return idx;
        },
        &out));
    out.rows.back().hit_rate =
        probes > 0 ? static_cast<double>(hits) / static_cast<double>(probes)
                   : 0;
  }
  return out;
}

// The info row: a 1-target Triangle group's cold build on the point
// fixture, the way an InstanceRepository builds it (BuildCached from the
// base, empty link cache, 1 thread).
struct SmallIndexResult {
  size_t nodes = 0;
  size_t instances = 0;
  size_t interned_edges = 0;
  size_t memory_bytes = 0;
  Row row;
};

SmallIndexResult RunSmallIndex(bool quick) {
  Rng fixture_rng(1);
  const Graph base = *graph::HolmeKim(100000, 4, 0.5, fixture_rng);
  // The first of a seeded sample of links that has a triangle at all.
  Rng rng(7);
  std::vector<Edge> targets;
  const std::vector<Edge> sample = *core::SampleTargets(base, 64, rng);
  for (const Edge& e : sample) {
    if (motif::CountTargetSubgraphs(base, e, MotifKind::kTriangle) > 0) {
      targets = {e};
      break;
    }
  }
  TPP_CHECK(!targets.empty());
  const TppInstance inst =
      *core::MakeInstance(base, targets, MotifKind::kTriangle);
  const IncidenceIndex reference = *motif::BuildIndexSerialReference(
      inst.released, inst.targets, inst.motif);
  SmallIndexResult out;
  out.nodes = base.NumNodes();
  out.instances = reference.instances().size();
  out.interned_edges = reference.NumInternedEdges();
  out.memory_bytes = reference.MemoryBytes();
  IncidenceIndex::BuildOptions options;
  options.threads = 1;
  auto cache = std::make_unique<LinkInstanceCache>();
  MotifResult unused;
  out.row = TimeRow(
      "cold", 1, quick ? 9 : 31, reference,
      [&] { cache = std::make_unique<LinkInstanceCache>(); },
      [&](IncidenceIndex::BuildStats* stats) {
        return IncidenceIndex::BuildCached(base, targets, MotifKind::kTriangle,
                                           *cache, options, stats);
      },
      &unused);
  return out;
}

// The heavy_stream info row: one persistent link cache, distinct sets.
struct HeavyStreamResult {
  size_t sets = 0;
  size_t checked = 0;  ///< builds verified against the reference
  Spread total_ms;
  Spread collect_ms;
  Spread intern_ms;
  Spread csr_ms;
  double hit_rate = 0;  ///< cache hits / lists probed over the stream
};

HeavyStreamResult RunHeavyStream(const Graph& base, bool quick) {
  // servebench heavy_arenas' class mix, by motif.
  constexpr MotifKind kMix[] = {
      MotifKind::kPentagon, MotifKind::kPentagon, MotifKind::kRectangle,
      MotifKind::kPentagon, MotifKind::kPentagon, MotifKind::kRectangle,
      MotifKind::kPentagon, MotifKind::kPentagon, MotifKind::kRecTri};
  constexpr size_t kCheckEvery = 25;
  const std::vector<Edge> edges = base.Edges();
  Rng rng(31);
  LinkInstanceCache cache;
  IncidenceIndex::BuildOptions options;
  options.threads = 1;
  HeavyStreamResult out;
  out.sets = quick ? 60 : 300;
  std::vector<double> total, collect, intern, csr;
  for (size_t s = 0; s < out.sets; ++s) {
    const MotifKind kind = kMix[s % std::size(kMix)];
    const std::vector<Edge> targets =
        rng.SampleK(edges, 100 + rng.UniformIndex(101));
    IncidenceIndex::BuildStats stats;
    WallTimer timer;
    Result<IncidenceIndex> idx = IncidenceIndex::BuildCached(
        base, targets, kind, cache, options, &stats);
    total.push_back(timer.Millis());
    TPP_CHECK(idx.ok());
    collect.push_back(stats.enumerate_seconds * 1e3);
    intern.push_back(stats.intern_seconds * 1e3);
    csr.push_back(stats.csr_seconds * 1e3);
    if (s % kCheckEvery == 0) {  // untimed
      const TppInstance inst = *core::MakeInstance(base, targets, kind);
      TPP_CHECK(idx->BitIdentical(*motif::BuildIndexSerialReference(
          inst.released, inst.targets, inst.motif)));
      ++out.checked;
    }
  }
  out.total_ms = SpreadOf(total);
  out.collect_ms = SpreadOf(collect);
  out.intern_ms = SpreadOf(intern);
  out.csr_ms = SpreadOf(csr);
  const size_t probes = cache.hits() + cache.misses();
  out.hit_rate = probes > 0 ? static_cast<double>(cache.hits()) /
                                  static_cast<double>(probes)
                            : 0;
  return out;
}

void WriteJson(const std::string& path, bool quick, int wide_threads,
               double host_speedup, const std::vector<MotifResult>& results,
               const SmallIndexResult& small, const HeavyStreamResult& heavy,
               double headline_speedup) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"index_build\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"num_targets\": %zu,\n", kNumTargets);
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"bit_identical_to_serial\": true,\n");
  std::fprintf(f, "  \"host_parallel_workers\": %d,\n", wide_threads);
  std::fprintf(f, "  \"host_parallel_speedup\": %.2f,\n", host_speedup);
  std::fprintf(f, "  \"motifs\": [\n");
  for (size_t m = 0; m < results.size(); ++m) {
    const MotifResult& result = results[m];
    std::fprintf(f,
                 "    {\"motif\": \"%s\", \"enumeration_work\": %zu, "
                 "\"fans_out\": %s, \"instances\": %zu, "
                 "\"interned_edges\": %zu, \"tasks\": %zu, \"rows\": [\n",
                 result.motif.c_str(), result.enumeration_work,
                 result.fans_out ? "true" : "false", result.instances,
                 result.interned_edges, result.tasks);
    for (size_t p = 0; p < result.rows.size(); ++p) {
      const Row& row = result.rows[p];
      std::fprintf(f,
                   "      {\"row\": \"%s\", \"threads\": %d, \"reps\": %zu, "
                   "\"median_ms\": %.3f, \"iqr_ms\": %.3f, "
                   "\"enumerate_ms\": %.3f, \"intern_ms\": %.3f, "
                   "\"csr_ms\": %.3f, \"speedup_vs_reference\": %.2f",
                   row.kind.c_str(), row.threads, row.reps,
                   row.total_ms.median, row.total_ms.Iqr(), row.enumerate_ms,
                   row.intern_ms, row.csr_ms, result.SpeedupOf(row));
      if (row.hit_rate >= 0) {
        std::fprintf(f, ", \"hit_rate\": %.3f", row.hit_rate);
      }
      std::fprintf(f, "}%s\n", p + 1 < result.rows.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", m + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"point_small_index\": {\"fixture\": \"holme_kim_1e5\", "
               "\"nodes\": %zu, \"motif\": \"Triangle\", \"targets\": 1, "
               "\"instances\": %zu, \"interned_edges\": %zu, "
               "\"memory_bytes\": %zu, \"threads\": 1, \"reps\": %zu, "
               "\"median_ms\": %.4f, \"iqr_ms\": %.4f, "
               "\"enumerate_ms\": %.4f, \"intern_ms\": %.4f, "
               "\"csr_ms\": %.4f},\n",
               small.nodes, small.instances, small.interned_edges,
               small.memory_bytes, small.row.reps, small.row.total_ms.median,
               small.row.total_ms.Iqr(), small.row.enumerate_ms,
               small.row.intern_ms, small.row.csr_ms);
  std::fprintf(
      f,
      "  \"heavy_stream\": {\"fixture\": \"arenas_email_like\", "
      "\"links\": \"100-200\", \"motifs_per_9\": \"6 Pentagon, 2 Rectangle, "
      "1 RecTri\", \"threads\": 1, \"sets\": %zu, \"checked_sets\": %zu, "
      "\"median_ms\": %.3f, \"iqr_ms\": %.3f, "
      "\"collect_ms\": %.3f, \"collect_iqr_ms\": %.3f, "
      "\"intern_ms\": %.3f, \"intern_iqr_ms\": %.3f, "
      "\"csr_ms\": %.3f, \"csr_iqr_ms\": %.3f, \"hit_rate\": %.3f},\n",
      heavy.sets, heavy.checked, heavy.total_ms.median, heavy.total_ms.Iqr(),
      heavy.collect_ms.median, heavy.collect_ms.Iqr(), heavy.intern_ms.median,
      heavy.intern_ms.Iqr(), heavy.csr_ms.median, heavy.csr_ms.Iqr(),
      heavy.hit_rate);
  std::fprintf(f, "  \"headline_serial_build_speedup\": %.2f\n}\n",
               headline_speedup);
  std::fclose(f);
  std::printf("[json] %s\n", path.c_str());
}

int Run(int argc, char** argv) {
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
  Result<int64_t> max_threads_flag = args->GetInt("threads", 8);
  // <= 0 means "auto" to ApplyThreadsFlag; for the sweep it means no cap.
  const int max_threads =
      *max_threads_flag <= 0 ? 8 : static_cast<int>(*max_threads_flag);
  const std::string out_path =
      args->GetString("out", "BENCH_index_build.json");
  // The widest measured point <= 4: the second thread point of the cache
  // rows and the host probe's worker count. When --threads capped the
  // sweep below 4, the widest point that actually ran stands in.
  int wide_threads = 1;
  for (int threads : kThreadPoints) {
    if (threads <= max_threads && threads <= 4) wide_threads = threads;
  }

  std::printf("== index build: production paths vs serial reference, "
              "Arenas-email-like, |T|=%zu%s ==\n\n",
              kNumTargets, quick ? ", quick" : "");
  Result<Graph> base = graph::MakeArenasEmailLike(1);
  TPP_CHECK(base.ok());
  const double host_speedup = HostParallelSpeedup(wide_threads);
  std::printf("host: %d pool workers ran %.2fx one worker's CPU-bound "
              "loop\n\n",
              wide_threads, host_speedup);
  std::vector<MotifResult> results;
  for (MotifKind kind : motif::kAllMotifs) {
    MotifResult result = RunMotif(*base, kind, quick, max_threads,
                                  wide_threads);
    std::printf("%-9s %7zu inst %6zu edges %4zu tasks, work %zu (%s)\n",
                result.motif.c_str(), result.instances,
                result.interned_edges, result.tasks, result.enumeration_work,
                result.fans_out ? "fans out" : "serial");
    for (const Row& row : result.rows) {
      std::printf("  %-9s threads=%d  median %8.2f ms (IQR %6.2f, %2zu reps)"
                  "  enum %6.2f + intern %5.2f + csr %5.2f  "
                  "speedup %5.2fx",
                  row.kind.c_str(), row.threads, row.total_ms.median,
                  row.total_ms.Iqr(), row.reps, row.enumerate_ms,
                  row.intern_ms, row.csr_ms, result.SpeedupOf(row));
      if (row.hit_rate >= 0) std::printf("  hits %.0f%%", row.hit_rate * 100);
      std::printf("\n");
    }
    results.push_back(std::move(result));
  }
  // Headline: the better of Rectangle/RecTri's serial build over the
  // reference (the acceptance bar of the cold-build work; Triangle builds
  // are too small to matter and Pentagon is not in the paper's
  // evaluation). Neither build fans out on this fixture.
  double headline = 0;
  for (const MotifResult& result : results) {
    if (result.motif == "Rectangle" || result.motif == "RecTri") {
      headline = std::max(headline, result.SpeedupOf(*result.Find("build", 1)));
    }
  }
  std::printf("\nheadline (best of Rectangle/RecTri serial build): %.2fx, "
              "all builds bit-identical to serial\n",
              headline);
  const SmallIndexResult small = RunSmallIndex(quick);
  std::printf("info: 1-target Triangle index, Holme-Kim n=%zu: %zu "
              "instances, %zu interned edges, %zu bytes; cold build median "
              "%.4f ms (IQR %.4f, %zu reps; enum %.4f + intern %.4f + csr "
              "%.4f)\n",
              small.nodes, small.instances, small.interned_edges,
              small.memory_bytes, small.row.total_ms.median,
              small.row.total_ms.Iqr(), small.row.reps,
              small.row.enumerate_ms, small.row.intern_ms, small.row.csr_ms);
  const HeavyStreamResult heavy = RunHeavyStream(*base, quick);
  std::printf("info: heavy_stream, %zu distinct 100-200-link sets, one "
              "link cache, 1 thread: median %.3f ms (IQR %.3f; collect %.3f "
              "(IQR %.3f) + intern %.3f (IQR %.3f) + csr %.3f (IQR %.3f)), "
              "link-cache hit rate %.3f, %zu builds checked bit-identical\n",
              heavy.sets, heavy.total_ms.median, heavy.total_ms.Iqr(),
              heavy.collect_ms.median, heavy.collect_ms.Iqr(),
              heavy.intern_ms.median, heavy.intern_ms.Iqr(),
              heavy.csr_ms.median, heavy.csr_ms.Iqr(), heavy.hit_rate,
              heavy.checked);
  WriteJson(out_path, quick, wide_threads, host_speedup, results, small,
            heavy, headline);
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
