// Plan-service throughput: batches of mixed-solver protection requests
// against the Arenas fixture, executed by PlanService on the shared
// thread pool at 1/2/4/8 workers vs a plain sequential loop. Emits a
// machine-readable BENCH_service_throughput.json so the serving-path
// scaling trajectory is tracked across PRs. Every timed row records its
// reps, median and interquartile range (SpreadOf). Beside the rows the
// file records host_parallel_speedup (harness_common.h), the speedup a
// fixed CPU-bound loop got from all the pool's workers in the same run,
// which bounds the rows' own.
//
// Every run cross-checks that the concurrent batch reproduces the
// sequential plans bit-for-bit (the service's determinism contract), so
// the bench doubles as a stress test of per-request RNG stream isolation.
//
// A second scenario models the nightly repeated-request workload: a
// batch with 50% duplicate requests run on two consecutive "nights",
// served by the staged pipeline (in-batch dedup + instance sharing +
// content-addressed PlanCache) vs the uncached build-per-request path (a
// ParallelFor over the cold oracle RunOneCold).
// Emits BENCH_plan_cache.json with the cache hit-rate and the aggregate
// speedup, and cross-checks that every cached/shared response is
// bit-identical to the uncached one.
//
// Flags: --quick (smaller batch, CI smoke mode), --requests=N,
//        --out=PATH (default BENCH_service_throughput.json),
//        --cache-out=PATH (default BENCH_plan_cache.json).

#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/datasets.h"
#include "harness_common.h"
#include "reference/run_one_cold.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"

namespace tpp::bench {
namespace {

using service::PlanRequest;
using service::PlanResponse;
using service::PlanService;

// The solver mix cycled across the batch: the three greedy families, both
// budget divisions, and both random baselines — roughly what a mixed
// protection workload looks like.
constexpr const char* kSolverMix[] = {"sgb", "ct-tbd", "wt-dbd", "rdt",
                                      "sgb", "ct-dbd", "wt-tbd", "rd"};

// `heavy` (the non-quick mode) skews the mix toward Rectangle/RecTri
// motifs and larger target sets so per-request solver work dominates
// pool overhead — that is the regime the scaling numbers are about.
std::vector<PlanRequest> MakeRequests(size_t count, size_t budget,
                                      bool heavy) {
  std::vector<PlanRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    PlanRequest request;
    request.name = "q" + std::to_string(i);
    request.sample = (heavy ? 20 : 10) + (i % 3) * 5;
    if (heavy) {
      request.motif = i % 2 == 1 ? motif::MotifKind::kRectangle
                                 : motif::MotifKind::kRecTri;
    } else {
      request.motif = i % 4 == 3 ? motif::MotifKind::kRectangle
                                 : motif::MotifKind::kTriangle;
    }
    request.spec.algorithm = kSolverMix[i % std::size(kSolverMix)];
    request.spec.budget = budget;
    request.seed = 1000 + i;
    requests.push_back(std::move(request));
  }
  return requests;
}

// Spread of `reps` runs of `run`, each returning its own wall milliseconds.
Spread SpreadOfRuns(size_t reps, const std::function<double()>& run) {
  std::vector<double> ms;
  ms.reserve(reps);
  for (size_t r = 0; r < reps; ++r) ms.push_back(run());
  return SpreadOf(std::move(ms));
}

// Whether two response lists carry the same plans. A plan fixes its
// released graph (the base minus the plan's deletions), so comparing
// plan texts covers that too.
bool SamePlans(const std::vector<PlanResponse>& a,
               const std::vector<PlanResponse>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].plan_text != b[i].plan_text) return false;
  }
  return true;
}

struct ScalingPoint {
  int workers = 0;
  Spread ms;
  double requests_per_sec = 0;  ///< at the median
  double speedup = 0;           ///< median vs the sequential loop's median
};

// Nightly repeated-request scenario: `unique` distinct requests, each
// issued twice per night (50% duplicates), run on two consecutive nights.
// The uncached path (a RunOneCold per request) re-solves all of it; the
// staged pipeline dedups within the night and serves the second night
// from the PlanCache. Each rep of the pipeline starts from an empty
// cache. Responses are cross-checked bit-identical.
int RunPlanCacheScenario(const PlanService& plan_service, size_t unique,
                         size_t budget, size_t reps, bool quick,
                         const std::string& out_path) {
  std::vector<PlanRequest> night = MakeRequests(unique, budget,
                                                /*heavy=*/!quick);
  for (size_t i = 0; i < unique; ++i) {
    PlanRequest duplicate = night[i];  // same payload, different name
    duplicate.name += "-dup";
    night.push_back(std::move(duplicate));
  }
  constexpr int kNights = 2;
  const double requests_per_rep = kNights * night.size();
  std::printf(
      "== plan cache: %d nights x %zu requests (50%% duplicates), %zu "
      "reps ==\n",
      kNights, night.size(), reps);

  // Baseline: every request solved from scratch by its own RunOneCold — no
  // dedup, no sharing, no memo — on the same worker budget the pipeline
  // gets.
  std::vector<std::vector<PlanResponse>> reference(kNights);
  const Spread uncached = SpreadOfRuns(reps, [&] {
    WallTimer timer;
    for (std::vector<PlanResponse>& responses : reference) {
      responses.assign(night.size(), PlanResponse{});
      GlobalThreadPool().ParallelFor(
          night.size(), GlobalThreadCount(), /*grain=*/1,
          [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
              responses[i] =
                  service::RunOneCold(plan_service.base(), night[i]);
            }
          });
    }
    return timer.Millis();
  });
  for (const auto& responses : reference) {
    for (const PlanResponse& response : responses) {
      TPP_CHECK(response.status.ok());
    }
  }
  std::printf("uncached path: median %.3f ms (IQR %.3f, %.1f req/s)\n",
              uncached.median, uncached.Iqr(),
              1e3 * requests_per_rep / uncached.median);

  // Staged pipeline: dedup + instance sharing + content-addressed cache
  // warm across nights.
  bool identical = true;
  service::PlanCache::Stats cs;
  size_t dedup_shared = 0;
  size_t instance_builds = 0;
  const Spread cached = SpreadOfRuns(reps, [&] {
    service::PlanCache cache(/*capacity=*/4 * night.size());
    service::BatchStats stats;
    service::BatchOptions options;
    options.cache = &cache;
    options.stats = &stats;
    std::vector<std::vector<PlanResponse>> piped;
    dedup_shared = 0;
    instance_builds = 0;
    WallTimer timer;
    for (int n = 0; n < kNights; ++n) {
      piped.push_back(plan_service.RunBatch(night, options));
      dedup_shared += stats.dedup_shared;
      instance_builds += stats.instance_builds;
    }
    const double ms = timer.Millis();
    for (int n = 0; n < kNights; ++n) {
      identical = identical && SamePlans(piped[n], reference[n]);
    }
    cs = cache.stats();
    return ms;
  });
  const double hit_rate =
      cs.hits + cs.misses > 0
          ? static_cast<double>(cs.hits) / (cs.hits + cs.misses)
          : 0;
  const double speedup = uncached.median / cached.median;
  std::printf(
      "staged pipeline: median %.3f ms (IQR %.3f, %.1f req/s, %.2fx "
      "aggregate)\n",
      cached.median, cached.Iqr(), 1e3 * requests_per_rep / cached.median,
      speedup);
  std::printf(
      "cache: %llu hits / %llu misses (%.0f%% hit-rate), %zu "
      "dedup-shared, %zu instance builds\n",
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses), 100 * hit_rate,
      dedup_shared, instance_builds);
  std::printf(identical
                  ? "all cached/shared responses bit-identical to the "
                    "uncached path\n"
                  : "DETERMINISM VIOLATION: pipeline output differs from "
                    "the uncached path\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
    TPP_CHECK(identical);
    return 0;
  }
  std::fprintf(f, "{\n  \"bench\": \"plan_cache\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"nights\": %d,\n", kNights);
  std::fprintf(f, "  \"requests_per_night\": %zu,\n", night.size());
  std::fprintf(f, "  \"duplicate_fraction\": 0.5,\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", GlobalThreadCount());
  std::fprintf(f, "  \"reps\": %zu,\n", reps);
  std::fprintf(f, "  \"identical_to_uncached\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"uncached_median_ms\": %.3f,\n", uncached.median);
  std::fprintf(f, "  \"uncached_iqr_ms\": %.3f,\n", uncached.Iqr());
  std::fprintf(f, "  \"cached_median_ms\": %.3f,\n", cached.median);
  std::fprintf(f, "  \"cached_iqr_ms\": %.3f,\n", cached.Iqr());
  std::fprintf(f, "  \"aggregate_speedup\": %.2f,\n", speedup);
  std::fprintf(f, "  \"cache_hits\": %llu,\n",
               static_cast<unsigned long long>(cs.hits));
  std::fprintf(f, "  \"cache_misses\": %llu,\n",
               static_cast<unsigned long long>(cs.misses));
  std::fprintf(f, "  \"cache_evictions\": %llu,\n",
               static_cast<unsigned long long>(cs.evictions));
  std::fprintf(f, "  \"cache_hit_rate\": %.4f,\n", hit_rate);
  std::fprintf(f, "  \"dedup_shared\": %zu,\n", dedup_shared);
  std::fprintf(f, "  \"instance_builds\": %zu\n", instance_builds);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("[json] %s\n", out_path.c_str());
  // Fail AFTER writing so a determinism regression still uploads the
  // JSON evidence from CI.
  TPP_CHECK(identical);
  return 0;
}

int Run(int argc, char** argv) {
  Result<ParsedArgs> args = ParsedArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Status threads_status = ApplyThreadsFlag(*args);
  if (!threads_status.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 threads_status.ToString().c_str());
    return 2;
  }
  const bool quick = args->GetBool("quick");
  Result<int64_t> requests_flag =
      args->GetInt("requests", quick ? 8 : 16);
  if (!requests_flag.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 requests_flag.status().ToString().c_str());
    return 2;
  }
  const size_t num_requests = static_cast<size_t>(*requests_flag);
  const std::string out_path =
      args->GetString("out", "BENCH_service_throughput.json");
  const std::string cache_out_path =
      args->GetString("cache-out", "BENCH_plan_cache.json");
  const size_t reps = quick ? 3 : 21;

  PlanService plan_service(*graph::MakeArenasEmailLike(1));
  std::vector<PlanRequest> requests = MakeRequests(
      num_requests, /*budget=*/quick ? 8 : 24, /*heavy=*/!quick);
  std::printf("== service throughput: %zu mixed-solver requests on %s, "
              "%zu reps ==\n",
              requests.size(), plan_service.base().DebugString().c_str(),
              reps);

  // Baseline: the pre-service call pattern — one request at a time.
  std::vector<PlanResponse> reference;
  const Spread serial = SpreadOfRuns(reps, [&] {
    WallTimer timer;
    std::vector<PlanResponse> responses;
    responses.reserve(requests.size());
    for (const PlanRequest& request : requests) {
      responses.push_back(
          service::RunOneCold(plan_service.base(), request));
    }
    reference = std::move(responses);
    return timer.Millis();
  });
  for (const PlanResponse& response : reference) {
    TPP_CHECK(response.status.ok());
  }
  std::printf("sequential loop: median %.3f ms (IQR %.3f, %.1f req/s)\n",
              serial.median, serial.Iqr(),
              1e3 * requests.size() / serial.median);

  // What the box gives the run, beside the scaling rows it bounds.
  const int host_workers = GlobalThreadCount();
  const double host_speedup = HostParallelSpeedup(host_workers);
  std::printf("host: %d pool workers ran %.2fx one worker's CPU-bound "
              "loop\n",
              host_workers, host_speedup);

  std::vector<ScalingPoint> points;
  bool identical = true;
  for (int workers : {1, 2, 4, 8}) {
    ScalingPoint point;
    point.workers = workers;
    point.ms = SpreadOfRuns(reps, [&] {
      WallTimer timer;
      std::vector<PlanResponse> responses =
          plan_service.RunBatch(requests, workers);
      const double ms = timer.Millis();
      // Bit-identity of every rep's plans vs the sequential reference —
      // checked OUTSIDE the timed region so the speedup numbers measure
      // serving cost only.
      identical = identical && SamePlans(responses, reference);
      return ms;
    });
    point.requests_per_sec = 1e3 * requests.size() / point.ms.median;
    point.speedup = serial.median / point.ms.median;
    points.push_back(point);
    std::printf("batch x%d workers: median %.3f ms (IQR %.3f, %.1f req/s, "
                "%.2fx)\n",
                workers, point.ms.median, point.ms.Iqr(),
                point.requests_per_sec, point.speedup);
  }
  std::printf(identical
                  ? "all batches bit-identical to the sequential loop\n"
                  : "DETERMINISM VIOLATION: batch output differs from "
                    "the sequential loop\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", out_path.c_str());
    TPP_CHECK(identical);
    return 0;
  }
  std::fprintf(f, "{\n  \"bench\": \"service_throughput\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"requests\": %zu,\n", requests.size());
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"hardware_threads\": %d,\n", GlobalThreadCount());
  std::fprintf(f, "  \"reps\": %zu,\n", reps);
  std::fprintf(f, "  \"identical_to_sequential\": %s,\n",
               identical ? "true" : "false");
  std::fprintf(f, "  \"serial_median_ms\": %.3f,\n", serial.median);
  std::fprintf(f, "  \"serial_iqr_ms\": %.3f,\n", serial.Iqr());
  std::fprintf(f, "  \"serial_requests_per_sec\": %.2f,\n",
               1e3 * requests.size() / serial.median);
  std::fprintf(f, "  \"host_parallel_workers\": %d,\n", host_workers);
  std::fprintf(f, "  \"host_parallel_speedup\": %.2f,\n", host_speedup);
  std::fprintf(f, "  \"scaling\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    std::fprintf(f,
                 "    {\"workers\": %d, \"median_ms\": %.3f, "
                 "\"iqr_ms\": %.3f, \"requests_per_sec\": %.2f, "
                 "\"speedup_vs_serial\": %.2f}%s\n",
                 p.workers, p.ms.median, p.ms.Iqr(),
                 p.requests_per_sec, p.speedup,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] %s\n", out_path.c_str());

  int cache_rc = RunPlanCacheScenario(plan_service, num_requests,
                                      /*budget=*/quick ? 8 : 24, reps, quick,
                                      cache_out_path);
  // Fail AFTER writing so a determinism regression still uploads the
  // JSON evidence (with identical_to_sequential: false) from CI.
  TPP_CHECK(identical);
  return cache_rc;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
