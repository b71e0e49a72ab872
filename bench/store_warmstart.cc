// Warm-start benchmark: disk-backed store vs cold construction on the
// Fig. 5 Arenas fixture. Emits BENCH_store_warmstart.json.
//
// Two comparisons and one info row, each recording its reps, median and
// IQR:
//   per-motif   — cold IncidenceIndex::BuildCached from the base through an
//                 empty link cache (a repository group's build on a
//                 snapshot miss) vs WarmStore::LoadIndex of
//                 the same index from its snapshot file (one mmap + header
//                 validation + flat-array adoption). Every warm load is
//                 CHECKed BitIdentical to the cold build, so the speedup
//                 never comes from loading something different.
//   end-to-end  — a batch of protection requests served by a cold process
//                 (empty store: every group builds, every plan solves)
//                 vs a restarted process (same store directory reopened,
//                 fresh in-memory cache: snapshots adopt, plans replay
//                 from the log). Responses are CHECKed byte-identical
//                 through the plan codec.
//   open        — WarmStore::Open over a plan log of closed segments: the
//                 forward scan that rebuilds the key table at every
//                 process start (info only, never gated).
//
// The JSON carries a "store_health" section — retry/degradation counters
// summed over every store the bench opened, plus the TPP_FAULTS profile
// it ran under (empty when unarmed). CI re-runs this bench under a
// transient fault profile and gates on it with `bench_guard --mode=fault`
// (docs/ROBUSTNESS.md): retries must fire, degradations must stay zero,
// and every bit-identity CHECK above must still hold.
//
// Flags: --quick (fewer repetitions and a smaller plan log, CI smoke
//        mode), --threads=N (build thread budget for the cold side;
//        default 1), --targets=N (protected edges per motif; default 1500
//        so even the cheapest cold build is well above the fixed
//        mmap/validate overhead), --out=PATH (default
//        BENCH_store_warmstart.json), --store-dir=DIR (scratch store
//        location, recreated from empty each run).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/timer.h"
#include "harness_common.h"
#include "core/problem.h"
#include "graph/datasets.h"
#include "graph/fingerprint.h"
#include "motif/incidence_index.h"
#include "motif/link_instances.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/store/plan_codec.h"
#include "service/store/warm_store.h"

namespace tpp::bench {
namespace {

using motif::IncidenceIndex;
using motif::MotifKind;
using service::store::WarmStore;

// Overridable via --targets. The motif-vs-motif shape of Fig. 5 uses 200
// targets; here the interesting quantity is the cold/warm ratio, and tiny
// target sets make the cheap motifs' cold builds so fast (tens of
// microseconds) that the comparison measures syscall overhead instead of
// construction work.
size_t g_num_targets = 1500;

struct MotifResult {
  std::string motif;
  size_t instances = 0;
  uint64_t snapshot_bytes = 0;
  size_t cold_reps = 0;
  Spread cold_build_ms;
  size_t warm_reps = 0;
  Spread warm_load_ms;
  double speedup = 0;  ///< median cold build / median warm load
};

struct BatchResult {
  size_t requests = 0;
  size_t reps = 0;
  Spread cold_ms;
  Spread warm_ms;
  double speedup = 0;  ///< median cold / median warm
};

struct OpenResult {
  size_t records = 0;
  size_t payload_bytes = 0;  ///< per record
  size_t segments = 0;
  uint64_t log_bytes = 0;
  size_t reps = 0;
  Spread open_ms;
};

// Degradation counters accumulated across every store/cache the bench
// opens. On a healthy filesystem all of these are zero; under a
// TPP_FAULTS transient profile retries climb while degradations must
// stay zero — that is the invariant `bench_guard --mode=fault` gates on.
struct StoreHealth {
  uint64_t io_retries = 0;
  uint64_t write_failures = 0;
  uint64_t read_degradations = 0;
  uint64_t index_rejects = 0;
  uint64_t backing_write_failures = 0;
  uint64_t degradations() const {
    return write_failures + read_degradations + index_rejects;
  }
};
StoreHealth g_health;

void AbsorbStoreStats(const WarmStore& store) {
  const WarmStore::Stats stats = store.stats();
  g_health.io_retries += stats.io_retries;
  g_health.write_failures += stats.write_failures;
  g_health.read_degradations += stats.read_degradations;
  g_health.index_rejects += stats.index_rejects;
}

MotifResult RunMotif(MotifKind kind, bool quick, int build_threads,
                     const std::string& store_dir) {
  Result<graph::Graph> base = graph::MakeArenasEmailLike(1);
  TPP_CHECK(base.ok());
  Rng rng(7);
  const std::vector<graph::Edge> targets =
      *core::SampleTargets(*base, g_num_targets, rng);
  MotifResult out;
  out.motif = std::string(motif::MotifName(kind));
  // Pentagon probes O(deg^3) per target; keep its repetitions low so the
  // full sweep stays seconds, not minutes.
  const size_t cold_reps =
      quick ? (kind == MotifKind::kPentagon ? 1 : 3)
            : (kind == MotifKind::kPentagon ? 3 : 10);
  // Warm loads are orders of magnitude cheaper; more repetitions cost
  // nothing and stabilize the small numbers.
  const size_t warm_reps = quick ? 10 : 50;

  // The cold build a repository group pays on a snapshot miss with an
  // empty link cache: BuildCached from the base.
  IncidenceIndex::BuildOptions options;
  options.threads = build_threads;
  const auto cold_build = [&] {
    motif::LinkInstanceCache cache;
    return *IncidenceIndex::BuildCached(*base, targets, kind, cache, options);
  };
  const IncidenceIndex reference = cold_build();
  out.instances = reference.instances().size();

  {
    std::vector<double> samples;
    for (size_t r = 0; r < cold_reps; ++r) {
      WallTimer timer;
      IncidenceIndex idx = cold_build();
      samples.push_back(timer.Millis());
      TPP_CHECK_EQ(idx.TotalAlive(), reference.TotalAlive());
    }
    out.cold_reps = cold_reps;
    out.cold_build_ms = SpreadOf(std::move(samples));
  }

  motif::IndexSnapshotMeta meta;
  meta.graph_fingerprint = graph::Fingerprint(*base);
  meta.target_hash = graph::TargetSetHash(targets);
  meta.motif = kind;
  meta.num_targets = static_cast<uint32_t>(targets.size());
  std::unique_ptr<WarmStore> store = WarmStore::Open(store_dir).value();
  TPP_CHECK(store->SaveIndex(reference, meta).ok());
  Result<std::vector<service::store::StoreEntry>> entries = store->Scan();
  TPP_CHECK(entries.ok());
  for (const service::store::StoreEntry& e : *entries) {
    if (e.kind == service::store::StoreEntry::Kind::kIndexSnapshot &&
        e.motif == out.motif) {
      out.snapshot_bytes = e.bytes;
    }
  }

  {
    std::vector<double> samples;
    for (size_t r = 0; r < warm_reps; ++r) {
      WallTimer timer;
      Result<IncidenceIndex> idx = store->LoadIndex(meta);
      TPP_CHECK(idx.ok());
      samples.push_back(timer.Millis());
      // Bit-identity every rep: the warm path must reproduce the cold
      // build exactly, not approximately.
      TPP_CHECK(idx->BitIdentical(reference));
    }
    out.warm_reps = warm_reps;
    out.warm_load_ms = SpreadOf(std::move(samples));
  }
  out.speedup = out.warm_load_ms.median > 0
                    ? out.cold_build_ms.median / out.warm_load_ms.median
                    : 0;
  AbsorbStoreStats(*store);
  return out;
}

std::vector<service::PlanRequest> MakeBatch() {
  std::vector<service::PlanRequest> requests;
  for (MotifKind kind : motif::kAllMotifs) {
    for (uint64_t seed = 1; seed <= 2; ++seed) {
      service::PlanRequest request;
      request.name = std::string(motif::MotifName(kind)) + "-s" +
                     std::to_string(seed);
      request.motif = kind;
      request.sample = 20;
      request.seed = seed;
      request.spec.algorithm = "sgb";
      request.spec.budget = 10;
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

BatchResult RunBatchComparison(const std::string& store_dir, size_t reps) {
  Result<graph::Graph> g = graph::MakeArenasEmailLike(1);
  TPP_CHECK(g.ok());
  service::PlanService plan_service(*g);
  const std::vector<service::PlanRequest> requests = MakeBatch();
  BatchResult out;
  out.requests = requests.size();
  out.reps = reps;

  const auto run = [&](std::vector<double>* ms) {
    // A fresh WarmStore + PlanCache per run models a process restart: all
    // in-memory state is gone, only the store directory carries over.
    std::unique_ptr<WarmStore> store = WarmStore::Open(store_dir).value();
    service::PlanCache cache(1024);
    cache.set_backing_store(store.get());
    service::BatchOptions options;
    options.cache = &cache;
    options.store = store.get();
    WallTimer timer;
    std::vector<service::PlanResponse> responses =
        plan_service.RunBatch(requests, options);
    ms->push_back(timer.Millis());
    AbsorbStoreStats(*store);
    g_health.backing_write_failures += cache.stats().backing_write_failures;
    return responses;
  };

  std::vector<double> cold_ms, warm_ms;
  for (size_t r = 0; r < reps; ++r) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
    std::vector<service::PlanResponse> cold = run(&cold_ms);
    std::vector<service::PlanResponse> warm = run(&warm_ms);
    TPP_CHECK_EQ(cold.size(), warm.size());
    for (size_t i = 0; i < cold.size(); ++i) {
      TPP_CHECK(cold[i].status.ok());
      TPP_CHECK(warm[i].status.ok());
      // The codec covers every persisted response field (from_cache is
      // transient by design), so equal encodings mean byte-identical
      // plans.
      TPP_CHECK(service::store::EncodePlanResponse(cold[i]) ==
                service::store::EncodePlanResponse(warm[i]));
    }
  }
  out.cold_ms = SpreadOf(std::move(cold_ms));
  out.warm_ms = SpreadOf(std::move(warm_ms));
  out.speedup =
      out.warm_ms.median > 0 ? out.cold_ms.median / out.warm_ms.median : 0;
  return out;
}

// Writes `records` plan records of `record_bytes` payload each, under
// distinct keys shaped like PlanCache keys, then times reopening the
// store. The log rolls over at the default segment size, so every segment
// but the last is closed.
OpenResult RunOpen(const std::string& store_dir, size_t records,
                   size_t record_bytes, size_t reps) {
  service::store::StoreOptions options;
  // The row appends thousands of records; under a fault-armed run, a
  // deep retry schedule keeps a streak of transient faults from dropping
  // one (which would read as a degradation of the store, not of the row).
  options.retry.max_attempts = 8;
  OpenResult out;
  out.records = records;
  out.payload_bytes = record_bytes;
  out.reps = reps;
  {
    std::unique_ptr<WarmStore> store =
        WarmStore::Open(store_dir, options).value();
    std::string payload(record_bytes, 'p');
    for (size_t i = 0; i < records; ++i) {
      const std::string key = StrFormat(
          "tpp-plan-v1|fp=%016llx|motif=Triangle|alg=sgb|scope=1|seed=%zu|"
          "budget=10|links=%zu-%zu",
          0x5eedULL, i, i, i + 1);
      TPP_CHECK(store->AppendPlan(key, payload).ok());
    }
    AbsorbStoreStats(*store);
  }
  std::vector<double> samples;
  for (size_t r = 0; r < reps; ++r) {
    WallTimer timer;
    std::unique_ptr<WarmStore> store =
        WarmStore::Open(store_dir, options).value();
    samples.push_back(timer.Millis());
    // The scan must have recovered every record the log holds.
    const std::vector<service::store::StoreEntry> entries =
        store->Scan().value();
    size_t live = 0;
    out.segments = 0;
    out.log_bytes = 0;
    for (const service::store::StoreEntry& e : entries) {
      if (e.kind != service::store::StoreEntry::Kind::kPlanSegment) continue;
      TPP_CHECK(e.closed || &e == &entries.back());
      live += e.plan_records;
      ++out.segments;
      out.log_bytes += e.bytes;
    }
    TPP_CHECK_EQ(live, records);
    AbsorbStoreStats(*store);
  }
  out.open_ms = SpreadOf(std::move(samples));
  return out;
}

void WriteJson(const std::string& path, bool quick,
               const std::vector<MotifResult>& results,
               const BatchResult& batch, const OpenResult& open,
               double min_speedup) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"store_warmstart\",\n");
  std::fprintf(f, "  \"fixture\": \"arenas_email_like\",\n");
  std::fprintf(f, "  \"num_targets\": %zu,\n", g_num_targets);
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"motifs\": [\n");
  for (size_t m = 0; m < results.size(); ++m) {
    const MotifResult& result = results[m];
    std::fprintf(f,
                 "    {\"motif\": \"%s\", \"instances\": %zu, "
                 "\"snapshot_bytes\": %llu, \"cold_reps\": %zu, "
                 "\"cold_build_ms\": %.3f, \"cold_iqr_ms\": %.3f, "
                 "\"warm_reps\": %zu, \"warm_load_ms\": %.3f, "
                 "\"warm_iqr_ms\": %.3f, \"speedup\": %.1f, "
                 "\"bit_identical_to_cold_build\": true}%s\n",
                 result.motif.c_str(), result.instances,
                 static_cast<unsigned long long>(result.snapshot_bytes),
                 result.cold_reps, result.cold_build_ms.median,
                 result.cold_build_ms.Iqr(), result.warm_reps,
                 result.warm_load_ms.median, result.warm_load_ms.Iqr(),
                 result.speedup, m + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"batch\": {\"requests\": %zu, \"reps\": %zu, "
               "\"cold_ms\": %.3f, \"cold_iqr_ms\": %.3f, "
               "\"warm_ms\": %.3f, \"warm_iqr_ms\": %.3f, "
               "\"speedup\": %.1f, \"responses_byte_identical\": true},\n",
               batch.requests, batch.reps, batch.cold_ms.median,
               batch.cold_ms.Iqr(), batch.warm_ms.median, batch.warm_ms.Iqr(),
               batch.speedup);
  std::fprintf(f,
               "  \"open\": {\"info_only\": true, \"records\": %zu, "
               "\"record_payload_bytes\": %zu, \"segments\": %zu, "
               "\"log_bytes\": %llu, \"reps\": %zu, \"median_ms\": %.3f, "
               "\"iqr_ms\": %.3f},\n",
               open.records, open.payload_bytes, open.segments,
               static_cast<unsigned long long>(open.log_bytes), open.reps,
               open.open_ms.median, open.open_ms.Iqr());
  // The degradation tally plus the profile it ran under, so a consumer
  // (bench_guard --mode=fault) can tell a clean run from a fault run
  // whose retries were expected to fire. The spec grammar has no quotes
  // or backslashes, so it embeds verbatim.
  const char* fault_spec = std::getenv("TPP_FAULTS");
  std::fprintf(f,
               "  \"store_health\": {\"fault_spec\": \"%s\", "
               "\"io_retries\": %llu, \"write_failures\": %llu, "
               "\"read_degradations\": %llu, \"index_rejects\": %llu, "
               "\"backing_write_failures\": %llu, \"degradations\": "
               "%llu},\n",
               fault_spec == nullptr ? "" : fault_spec,
               static_cast<unsigned long long>(g_health.io_retries),
               static_cast<unsigned long long>(g_health.write_failures),
               static_cast<unsigned long long>(g_health.read_degradations),
               static_cast<unsigned long long>(g_health.index_rejects),
               static_cast<unsigned long long>(
                   g_health.backing_write_failures),
               static_cast<unsigned long long>(g_health.degradations()));
  std::fprintf(f, "  \"min_motif_speedup\": %.1f\n}\n", min_speedup);
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
  Result<int64_t> threads_flag = args->GetInt("threads", 1);
  const int build_threads =
      *threads_flag <= 0 ? 1 : static_cast<int>(*threads_flag);
  Result<int64_t> targets_flag =
      args->GetInt("targets", static_cast<int64_t>(g_num_targets));
  if (*targets_flag > 0) {
    g_num_targets = static_cast<size_t>(*targets_flag);
  }
  const std::string out_path =
      args->GetString("out", "BENCH_store_warmstart.json");
  const std::string store_dir =
      args->GetString("store-dir", "bench_store_warmstart.tmp");

  std::error_code ec;
  std::filesystem::remove_all(store_dir, ec);

  std::printf("== store warm start: mmap snapshot load vs cold build, "
              "Arenas-email-like, |T|=%zu%s ==\n\n",
              g_num_targets, quick ? ", quick" : "");
  std::vector<MotifResult> results;
  double min_speedup = 0;
  for (MotifKind kind : motif::kAllMotifs) {
    MotifResult result = RunMotif(kind, quick, build_threads, store_dir);
    std::printf("%-9s %7zu inst  %9llu B snapshot  cold %9.2f ms (IQR "
                "%.2f, %zu reps)  warm %7.3f ms (IQR %.3f, %zu reps)  "
                "speedup %7.1fx\n",
                result.motif.c_str(), result.instances,
                static_cast<unsigned long long>(result.snapshot_bytes),
                result.cold_build_ms.median, result.cold_build_ms.Iqr(),
                result.cold_reps, result.warm_load_ms.median,
                result.warm_load_ms.Iqr(), result.warm_reps, result.speedup);
    min_speedup = results.empty()
                      ? result.speedup
                      : std::min(min_speedup, result.speedup);
    results.push_back(std::move(result));
  }

  BatchResult batch = RunBatchComparison(store_dir, quick ? 3 : 11);
  std::printf("\nbatch of %zu requests: cold %9.2f ms (IQR %.2f)  warm "
              "%9.3f ms (IQR %.3f)  speedup %5.1fx over %zu reps, "
              "responses byte-identical\n",
              batch.requests, batch.cold_ms.median, batch.cold_ms.Iqr(),
              batch.warm_ms.median, batch.warm_ms.Iqr(), batch.speedup,
              batch.reps);
  std::filesystem::remove_all(store_dir, ec);
  const OpenResult open =
      RunOpen(store_dir, quick ? 5000 : 20000, 2048, quick ? 5 : 11);
  std::printf("open of a %llu-byte plan log (%zu records, %zu segments): "
              "%.2f ms (IQR %.2f, %zu reps), info only\n",
              static_cast<unsigned long long>(open.log_bytes), open.records,
              open.segments, open.open_ms.median, open.open_ms.Iqr(),
              open.reps);
  std::printf("minimum per-motif warm-load speedup: %.1fx, all loads "
              "bit-identical to the cold build\n",
              min_speedup);
  std::printf("store health: %llu retries, %llu write failures, %llu "
              "degradations\n",
              static_cast<unsigned long long>(g_health.io_retries),
              static_cast<unsigned long long>(g_health.write_failures),
              static_cast<unsigned long long>(g_health.degradations()));
  WriteJson(out_path, quick, results, batch, open, min_speedup);
  std::filesystem::remove_all(store_dir, ec);
  return 0;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
