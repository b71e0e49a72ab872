// Gain-kernel benchmark: CSR IncidenceIndex vs the map-based
// LegacyIncidenceIndex on the Fig. 5 Arenas fixture. Emits a
// machine-readable BENCH_gain_kernels.json so the perf trajectory of the
// gain oracle is tracked across PRs.
//
// Kernels (per paper motif):
//   point_query    — a single keyed Gain(e) lookup: hash+posting-walk vs
//                    hash+cached-count read.
//   gain_vector    — sweep AccumulateGains(e) (the CT/WT inner query);
//   delete_commit  — delete every alive candidate in key order (kills all
//                    instances), measuring the commit cost of the CSR
//                    index. Since the deferred-maintenance rework a
//                    commit is kill marks plus an O(1) queue append —
//                    count and CSR-2 cell upkeep replays batched at the
//                    next flush boundary, where a greedy round was going
//                    to read anyway — and the keyed lookup goes through
//                    the static probe table, so the CSR side now beats
//                    the legacy map on every motif instead of paying
//                    ~0.8x for eager sibling-count upkeep.
// Each kernel reports ns/op for legacy and CSR and the speedup ratio.
//
// Flags: --quick (fewer repetitions, CI smoke mode),
//        --out=PATH (default BENCH_gain_kernels.json).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/timer.h"
#include "core/tpp.h"
#include "graph/datasets.h"
#include "motif/incidence_index.h"
#include "reference/legacy_incidence_index.h"

namespace tpp::bench {
namespace {

using core::TppInstance;
using graph::EdgeKey;
using motif::IncidenceIndex;
using motif::LegacyIncidenceIndex;
using motif::MotifKind;

constexpr size_t kNumTargets = 20;

struct KernelResult {
  std::string motif;
  std::string name;
  size_t ops = 0;
  double legacy_ns = 0;  ///< ns/op on LegacyIncidenceIndex
  double csr_ns = 0;     ///< ns/op on IncidenceIndex
  double Speedup() const { return csr_ns > 0 ? legacy_ns / csr_ns : 0; }
};

// Runs `body` `reps` times and returns ns per op for `ops_per_rep` ops.
template <typename Body>
double TimeNsPerOp(size_t reps, size_t ops_per_rep, Body&& body) {
  WallTimer timer;
  for (size_t r = 0; r < reps; ++r) body();
  double ns = timer.Seconds() * 1e9;
  return ns / static_cast<double>(reps * (ops_per_rep ? ops_per_rep : 1));
}

TppInstance MakeArenas(MotifKind kind) {
  Result<graph::Graph> g = graph::MakeArenasEmailLike(1);
  TPP_CHECK(g.ok());
  Rng rng(7);
  auto targets = *core::SampleTargets(*g, kNumTargets, rng);
  return *core::MakeInstance(*g, targets, kind);
}

std::vector<KernelResult> RunMotif(MotifKind kind, bool quick) {
  TppInstance inst = MakeArenas(kind);
  LegacyIncidenceIndex legacy =
      *LegacyIncidenceIndex::Build(inst.released, inst.targets, kind);
  IncidenceIndex csr =
      *IncidenceIndex::Build(inst.released, inst.targets, kind);
  const std::vector<EdgeKey> candidates = csr.AliveCandidateEdges();
  TPP_CHECK(candidates == legacy.AliveCandidateEdges());
  const std::string motif(motif::MotifName(kind));
  std::vector<KernelResult> out;

  // Adaptive repetitions: small candidate sets (Triangle has ~26) need
  // many rounds for stable ns/op numbers.
  const size_t sweep_reps =
      (quick ? 20000 : 400000) / std::max<size_t>(1, candidates.size()) + 1;
  {
    // Single keyed lookup: hash + posting walk vs hash + cached count.
    KernelResult k{motif, "point_query", candidates.size()};
    size_t sum_legacy = 0, sum_csr = 0;
    k.legacy_ns = TimeNsPerOp(sweep_reps, candidates.size(), [&] {
      for (EdgeKey e : candidates) sum_legacy += legacy.Gain(e);
    });
    k.csr_ns = TimeNsPerOp(sweep_reps, candidates.size(), [&] {
      for (EdgeKey e : candidates) sum_csr += csr.Gain(e);
    });
    TPP_CHECK_EQ(sum_legacy, sum_csr);
    out.push_back(k);
  }
  {
    KernelResult k{motif, "gain_vector", candidates.size()};
    std::vector<size_t> acc_legacy(kNumTargets, 0), acc_csr(kNumTargets, 0);
    const size_t reps = sweep_reps;
    k.legacy_ns = TimeNsPerOp(reps, candidates.size(), [&] {
      for (EdgeKey e : candidates) legacy.AccumulateGains(e, &acc_legacy);
    });
    k.csr_ns = TimeNsPerOp(reps, candidates.size(), [&] {
      for (EdgeKey e : candidates) csr.AccumulateGains(e, &acc_csr);
    });
    TPP_CHECK(acc_legacy == acc_csr);  // same reps -> identical accumulators
    out.push_back(k);
  }
  {
    // Deleting every candidate kills every instance — the worst case for
    // CSR count maintenance. The scratch copies are made outside the
    // timed region so only DeleteEdge work is measured.
    KernelResult k{motif, "delete_commit", candidates.size()};
    const size_t reps = quick ? 20 : 200;
    double legacy_ns = 0, csr_ns = 0;
    for (size_t r = 0; r < reps; ++r) {
      LegacyIncidenceIndex scratch = legacy;
      WallTimer timer;
      for (EdgeKey e : candidates) scratch.DeleteEdge(e);
      legacy_ns += timer.Seconds() * 1e9;
      TPP_CHECK_EQ(scratch.TotalAlive(), 0u);
    }
    for (size_t r = 0; r < reps; ++r) {
      IncidenceIndex scratch = csr;
      WallTimer timer;
      for (EdgeKey e : candidates) scratch.DeleteEdge(e);
      csr_ns += timer.Seconds() * 1e9;
      TPP_CHECK_EQ(scratch.TotalAlive(), 0u);
    }
    k.legacy_ns = legacy_ns / static_cast<double>(reps * candidates.size());
    k.csr_ns = csr_ns / static_cast<double>(reps * candidates.size());
    out.push_back(k);
  }
  return out;
}

void WriteJson(const std::string& path, bool quick,
               const std::vector<KernelResult>& kernels) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"gain_kernels\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"num_targets\": %zu,\n", kNumTargets);
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < kernels.size(); ++i) {
    const KernelResult& k = kernels[i];
    std::fprintf(f,
                 "    {\"motif\": \"%s\", \"name\": \"%s\", \"ops\": %zu, "
                 "\"legacy_ns_per_op\": %.2f, \"csr_ns_per_op\": %.2f, "
                 "\"speedup\": %.2f}%s\n",
                 k.motif.c_str(), k.name.c_str(), k.ops, k.legacy_ns,
                 k.csr_ns, k.Speedup(), i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("[json] %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  Result<ParsedArgs> args = ParsedArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  const bool quick = args->GetBool("quick");
  const std::string out_path =
      args->GetString("out", "BENCH_gain_kernels.json");

  std::printf("== gain kernels: legacy (map) vs CSR incidence index, "
              "Arenas-email-like, |T|=%zu%s ==\n\n",
              kNumTargets, quick ? ", quick" : "");
  std::vector<KernelResult> kernels;
  for (MotifKind kind : motif::kPaperMotifs) {
    std::vector<KernelResult> motif_kernels = RunMotif(kind, quick);
    for (const KernelResult& k : motif_kernels) {
      std::printf("%-9s %-14s %6zu ops  legacy %9.1f ns/op  "
                  "csr %8.1f ns/op  speedup %6.2fx\n",
                  k.motif.c_str(), k.name.c_str(), k.ops, k.legacy_ns,
                  k.csr_ns, k.Speedup());
      kernels.push_back(k);
    }
  }
  WriteJson(out_path, quick, kernels);
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
