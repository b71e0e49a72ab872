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
// Each kernel row reports its op count (the candidate set: 396-1951 edges
// at 200 targets), its sample count, and per index the median and
// interquartile range of the per-sample ns/op; the speedup is the ratio
// of the medians. Legacy and CSR samples alternate, so both meet the same
// machine state. A query sample sweeps the candidate set enough times to
// run kSampleOps ops; a delete_commit sample deletes every candidate of
// a fresh copy once (the copy is untimed).
//
// Flags: --quick (fewer samples, CI smoke mode),
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
#include "harness_common.h"
#include "motif/incidence_index.h"
#include "reference/legacy_incidence_index.h"

namespace tpp::bench {
namespace {

using core::TppInstance;
using graph::EdgeKey;
using motif::IncidenceIndex;
using motif::LegacyIncidenceIndex;
using motif::MotifKind;

constexpr size_t kNumTargets = 200;
// Ops per query-kernel sample (rounded up to whole sweeps).
constexpr size_t kSampleOps = 1000000;

struct KernelResult {
  std::string motif;
  std::string name;
  size_t ops = 0;
  size_t samples = 0;
  Spread legacy_ns{};  ///< ns/op on LegacyIncidenceIndex
  Spread csr_ns{};     ///< ns/op on IncidenceIndex
  double Speedup() const {
    return csr_ns.median > 0 ? legacy_ns.median / csr_ns.median : 0;
  }
};

// Times `samples` alternating samples of `legacy_op` and `csr_op`, each
// sample `sweeps` passes over `candidates`, into the row's per-index
// spreads of ns/op.
template <typename LegacyOp, typename CsrOp>
void TimeSweeps(size_t samples, size_t sweeps,
                const std::vector<EdgeKey>& candidates, LegacyOp legacy_op,
                CsrOp csr_op, KernelResult& k) {
  auto sweep = [&](auto& op) {
    for (size_t r = 0; r < sweeps; ++r) {
      for (EdgeKey e : candidates) op(e);
    }
  };
  std::vector<double> legacy_ns, csr_ns;
  auto sample = [&](auto& op, std::vector<double>& out) {
    WallTimer timer;
    sweep(op);
    out.push_back(timer.Seconds() * 1e9 /
                  static_cast<double>(sweeps * candidates.size()));
  };
  sweep(legacy_op);  // untimed warm-up: caches, branch history, clock ramp
  sweep(csr_op);
  for (size_t r = 0; r < samples; ++r) {
    sample(legacy_op, legacy_ns);
    sample(csr_op, csr_ns);
  }
  k.samples = samples;
  k.legacy_ns = SpreadOf(std::move(legacy_ns));
  k.csr_ns = SpreadOf(std::move(csr_ns));
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
  TPP_CHECK(!candidates.empty());
  const std::string motif(motif::MotifName(kind));
  std::vector<KernelResult> out;

  const size_t samples = quick ? 5 : 31;
  const size_t sweeps = (kSampleOps + candidates.size() - 1) /
                        candidates.size();
  {
    // Single keyed lookup: hash + posting walk vs hash + cached count.
    KernelResult k{motif, "point_query", candidates.size()};
    size_t sum_legacy = 0, sum_csr = 0;
    TimeSweeps(
        samples, sweeps, candidates,
        [&](EdgeKey e) { sum_legacy += legacy.Gain(e); },
        [&](EdgeKey e) { sum_csr += csr.Gain(e); }, k);
    TPP_CHECK_EQ(sum_legacy, sum_csr);  // same sweeps -> same sums
    out.push_back(k);
  }
  {
    KernelResult k{motif, "gain_vector", candidates.size()};
    std::vector<size_t> acc_legacy(kNumTargets, 0), acc_csr(kNumTargets, 0);
    TimeSweeps(
        samples, sweeps, candidates,
        [&](EdgeKey e) { legacy.AccumulateGains(e, &acc_legacy); },
        [&](EdgeKey e) { csr.AccumulateGains(e, &acc_csr); }, k);
    TPP_CHECK(acc_legacy == acc_csr);  // same sweeps -> same accumulators
    out.push_back(k);
  }
  {
    // Deleting every candidate kills every instance — the worst case for
    // CSR count maintenance. The scratch copies are made outside the
    // timed region so only DeleteEdge work is measured.
    KernelResult k{motif, "delete_commit", candidates.size()};
    std::vector<double> legacy_ns, csr_ns;
    const size_t delete_samples = quick ? 20 : 201;
    auto time_delete_all = [&](auto index, std::vector<double>& samples_ns) {
      WallTimer timer;
      for (EdgeKey e : candidates) index.DeleteEdge(e);
      samples_ns.push_back(timer.Seconds() * 1e9 /
                           static_cast<double>(candidates.size()));
      TPP_CHECK_EQ(index.TotalAlive(), 0u);
    };
    for (size_t r = 0; r < delete_samples; ++r) {
      time_delete_all(legacy, legacy_ns);
      time_delete_all(csr, csr_ns);
    }
    k.samples = delete_samples;
    k.legacy_ns = SpreadOf(std::move(legacy_ns));
    k.csr_ns = SpreadOf(std::move(csr_ns));
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
                 "\"reps\": %zu, \"legacy_ns_per_op\": %.2f, "
                 "\"legacy_iqr_ns\": %.2f, \"csr_ns_per_op\": %.2f, "
                 "\"csr_iqr_ns\": %.2f, \"speedup\": %.2f}%s\n",
                 k.motif.c_str(), k.name.c_str(), k.ops, k.samples,
                 k.legacy_ns.median, k.legacy_ns.Iqr(), k.csr_ns.median,
                 k.csr_ns.Iqr(), k.Speedup(),
                 i + 1 < kernels.size() ? "," : "");
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
      std::printf("%-9s %-14s %5zu ops %3zu reps  legacy %7.2f ns/op "
                  "(iqr %5.2f)  csr %7.2f ns/op (iqr %5.2f)  %5.2fx\n",
                  k.motif.c_str(), k.name.c_str(), k.ops, k.samples,
                  k.legacy_ns.median, k.legacy_ns.Iqr(), k.csr_ns.median,
                  k.csr_ns.Iqr(), k.Speedup());
      kernels.push_back(k);
    }
  }
  WriteJson(out_path, quick, kernels);
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
