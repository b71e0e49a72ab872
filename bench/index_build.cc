// Instance-construction benchmark: the parallel, allocation-lean
// IncidenceIndex build path vs the serial reference build on the Fig. 5
// Arenas fixture. Emits a machine-readable BENCH_index_build.json so the
// perf trajectory of the cold build stage — the last major serial stage in
// the serving path — is tracked across PRs.
//
// For every motif the bench times:
//   reference      — motif::BuildIndexSerialReference: serial
//                    per-target enumeration with materialized
//                    common-neighbor vectors, hash-map edge-id resolution
//                    in the CSR fill, per-edge scratch sort for the
//                    per-target counts.
//   build @ T      — IncidenceIndex::Build at T = 1, 2, 4, 8 threads:
//                    task-parallel enumeration (hub targets split by
//                    first-neighbor chunk), marker-based O(1) adjacency
//                    probes, counting-sort interning with bucket-table id
//                    resolution, blocked count-then-fill CSR passes. The
//                    per-stage breakdown (enumerate / intern / csr) comes
//                    from IncidenceIndex::BuildStats.
// Every measured build is verified BitIdentical to the reference, so the
// speedups never come from computing something different.
//
// Flags: --quick (fewer repetitions, CI smoke mode), --threads=N (caps
//        the measured thread points at N — the TSan job passes 4 so the
//        sweep never exceeds its sanitizer budget; the 1-thread point
//        always runs), --out=PATH (default BENCH_index_build.json).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/timer.h"
#include "core/problem.h"
#include "graph/datasets.h"
#include "motif/incidence_index.h"
#include "reference/serial_index_build.h"

namespace tpp::bench {
namespace {

using core::TppInstance;
using motif::IncidenceIndex;
using motif::MotifKind;

constexpr size_t kNumTargets = 200;
constexpr int kThreadPoints[] = {1, 2, 4, 8};

struct BuildPoint {
  int threads = 0;
  double total_ms = 0;
  double enumerate_ms = 0;
  double intern_ms = 0;
  double csr_ms = 0;
  double speedup = 0;  ///< reference_ms / total_ms
};

struct MotifResult {
  std::string motif;
  size_t instances = 0;
  size_t interned_edges = 0;
  size_t tasks = 0;
  double reference_ms = 0;
  std::vector<BuildPoint> points;
};

TppInstance MakeArenas(MotifKind kind) {
  Result<graph::Graph> g = graph::MakeArenasEmailLike(1);
  TPP_CHECK(g.ok());
  Rng rng(7);
  auto targets = *core::SampleTargets(*g, kNumTargets, rng);
  return *core::MakeInstance(*g, targets, kind);
}

MotifResult RunMotif(MotifKind kind, bool quick, int max_threads) {
  const TppInstance inst = MakeArenas(kind);
  MotifResult out;
  out.motif = std::string(motif::MotifName(kind));
  // Pentagon probes O(deg^3) per target; keep its repetitions low so the
  // full sweep stays seconds, not minutes.
  const size_t reps =
      quick ? (kind == MotifKind::kPentagon ? 1 : 3)
            : (kind == MotifKind::kPentagon ? 3 : 10);

  const IncidenceIndex reference = *motif::BuildIndexSerialReference(
      inst.released, inst.targets, inst.motif);
  {
    double total = 0;
    for (size_t r = 0; r < reps; ++r) {
      WallTimer timer;
      IncidenceIndex idx = *motif::BuildIndexSerialReference(
          inst.released, inst.targets, inst.motif);
      total += timer.Millis();
      TPP_CHECK_EQ(idx.TotalAlive(), reference.TotalAlive());
    }
    out.reference_ms = total / static_cast<double>(reps);
  }

  for (int threads : kThreadPoints) {
    if (threads > max_threads && threads != 1) continue;
    IncidenceIndex::BuildOptions options;
    options.threads = threads;
    BuildPoint point;
    point.threads = threads;
    double total = 0, enumerate = 0, intern = 0, csr = 0;
    for (size_t r = 0; r < reps; ++r) {
      IncidenceIndex::BuildStats stats;
      WallTimer timer;
      IncidenceIndex idx = *IncidenceIndex::Build(
          inst.released, inst.targets, inst.motif, options, &stats);
      total += timer.Millis();
      enumerate += stats.enumerate_seconds * 1e3;
      intern += stats.intern_seconds * 1e3;
      csr += stats.csr_seconds * 1e3;
      if (r == 0) {
        TPP_CHECK(idx.BitIdentical(reference));
        out.instances = stats.instances;
        out.interned_edges = stats.interned_edges;
        out.tasks = stats.tasks;
      }
    }
    point.total_ms = total / static_cast<double>(reps);
    point.enumerate_ms = enumerate / static_cast<double>(reps);
    point.intern_ms = intern / static_cast<double>(reps);
    point.csr_ms = csr / static_cast<double>(reps);
    point.speedup =
        point.total_ms > 0 ? out.reference_ms / point.total_ms : 0;
    out.points.push_back(point);
  }
  return out;
}

double SpeedupAt(const MotifResult& result, int threads) {
  for (const BuildPoint& point : result.points) {
    if (point.threads == threads) return point.speedup;
  }
  return 0;
}

void WriteJson(const std::string& path, bool quick,
               const std::vector<MotifResult>& results,
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
  std::fprintf(f, "  \"motifs\": [\n");
  for (size_t m = 0; m < results.size(); ++m) {
    const MotifResult& result = results[m];
    std::fprintf(f,
                 "    {\"motif\": \"%s\", \"instances\": %zu, "
                 "\"interned_edges\": %zu, \"tasks\": %zu, "
                 "\"reference_ms\": %.3f, \"builds\": [\n",
                 result.motif.c_str(), result.instances,
                 result.interned_edges, result.tasks, result.reference_ms);
    for (size_t p = 0; p < result.points.size(); ++p) {
      const BuildPoint& point = result.points[p];
      std::fprintf(f,
                   "      {\"threads\": %d, \"total_ms\": %.3f, "
                   "\"enumerate_ms\": %.3f, \"intern_ms\": %.3f, "
                   "\"csr_ms\": %.3f, \"speedup_vs_reference\": %.2f}%s\n",
                   point.threads, point.total_ms, point.enumerate_ms,
                   point.intern_ms, point.csr_ms, point.speedup,
                   p + 1 < result.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", m + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"headline_speedup_4threads\": %.2f\n}\n",
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

  std::printf("== index build: parallel allocation-lean path vs serial "
              "reference, Arenas-email-like, |T|=%zu%s ==\n\n",
              kNumTargets, quick ? ", quick" : "");
  std::vector<MotifResult> results;
  for (MotifKind kind : motif::kAllMotifs) {
    MotifResult result = RunMotif(kind, quick, max_threads);
    std::printf("%-9s %7zu inst %6zu edges %4zu tasks  reference %9.2f ms\n",
                result.motif.c_str(), result.instances,
                result.interned_edges, result.tasks, result.reference_ms);
    for (const BuildPoint& point : result.points) {
      std::printf("          threads=%d  total %9.2f ms  "
                  "(enum %7.2f + intern %6.2f + csr %6.2f)  "
                  "speedup %5.2fx\n",
                  point.threads, point.total_ms, point.enumerate_ms,
                  point.intern_ms, point.csr_ms, point.speedup);
    }
    results.push_back(std::move(result));
  }
  // Headline: the better of Rectangle/RecTri at 4 threads (the acceptance
  // bar of the cold-build work; Triangle builds are too small to matter
  // and Pentagon is not in the paper's evaluation). When --threads capped
  // the sweep below 4, the widest point that actually ran stands in.
  int headline_threads = 1;
  for (int threads : kThreadPoints) {
    if (threads <= max_threads && threads <= 4) headline_threads = threads;
  }
  double headline = 0;
  for (const MotifResult& result : results) {
    if (result.motif == "Rectangle" || result.motif == "RecTri") {
      headline = std::max(headline, SpeedupAt(result, headline_threads));
    }
  }
  std::printf("\nheadline (best of Rectangle/RecTri at %d threads): "
              "%.2fx, all builds bit-identical to serial\n",
              headline_threads, headline);
  WriteJson(out_path, quick, results, headline);
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
