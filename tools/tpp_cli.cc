// tpp — command-line interface to the TPP library.
//
// Subcommands:
//   tpp protect --graph=G.edges [--targets=k|--links=u-v;u-v] [options]
//       Samples or reads targets, runs a solver from the registry
//       (core/solver.h), writes the deletion plan and (optionally) the
//       released graph. Flags: --algorithm=NAME (see `tpp solvers`),
//       --motif=Triangle|Rectangle|RecTri|Pentagon, --budget=K (<= 0 =
//       protect fully), --seed=N, --scope=all|subgraph,
//       --deadline-ms=N (wall-clock budget; past it the solver stops at
//       its next round boundary and the run reports DeadlineExceeded),
//       --plan-out=FILE, --release-out=FILE, --relabel.
//   tpp batch --requests=FILE [--plan-dir=DIR] [--threads=N]
//             [--stream] [--cache-size=N] [--batch-deadline-ms=N]
//       Runs a whole file of protection requests (parsed and validated
//       line by line) concurrently against one base graph through the
//       staged plan pipeline (service/plan_service.h; file format in
//       docs/SERVICE.md). The file may interleave `edit` directive lines
//       (`edit insert=u-v;u-v remove=u-v`) that commit a live base-graph
//       edit between sub-batches: the service repairs its built instance
//       groups in place around the delta neighborhood and rekeys cache
//       entries whose plans provably survive the edit, so churn-then-
//       solve never pays a cold build for untouched instances. --stream
//       prints one result line per request, in input order, as each
//       finishes (plan files are written incrementally too), so long
//       batches can be tailed.
//       --cache-size=N attaches a content-addressed plan cache
//       (service/plan_cache.h) and prints its counters; within a single
//       invocation duplicate requests are already deduped before the
//       probe, so the flag is mostly a way to observe the memo that
//       long-lived embedders share across batches. Output plans are
//       bit-identical to running each request through `tpp protect` on
//       its own, at any worker count, cache state, or sharing group.
//       Per-request `deadline_ms=` keys and --batch-deadline-ms bound
//       wall clock; expired requests report DeadlineExceeded without
//       stalling the rest of the batch. When any request fails, the
//       batch exits non-zero and prints a per-status-code failure
//       breakdown footer (docs/ROBUSTNESS.md).
//       Both protect and batch take --store=DIR [--store-cap=BYTES]
//       [--cache-failures]: a disk-backed warm-start store
//       (service/store/warm_store.h, docs/STORAGE.md) that persists built
//       IncidenceIndex snapshots and solved plans across process runs.
//       A warm run mmaps the snapshot instead of re-enumerating motifs
//       and serves repeated requests from the on-disk plan log; output is
//       bit-identical either way. Failed responses are never persisted;
//       --cache-failures re-enables their in-memory memoization only.
//   tpp store <ls|verify|evict> --store=DIR
//       Store maintenance: `ls` lists entries (fingerprint, motif, bytes,
//       age), `verify` checksums every entry (exit 0 = clean, 1 =
//       corrupt entries found, 2 = store unopenable), `evict --name=ENTRY` or
//       `evict --older-than=SECONDS` deletes entries; `evict --stale
//       --graph=FILE` garbage-collects snapshots and sealed plan
//       segments whose fingerprint no caller serving FILE can ever match
//       (superseded by edits, or written under an old format version).
//   tpp edit --graph=G.edges [--insert=u-v;u-v] [--remove=u-v;u-v]
//            [--out=FILE]
//       Offline batched graph edit: applies the inserts/removes through
//       one Graph::EditSession commit, prints the old and new structural
//       fingerprints (the new one advanced in O(delta) and cross-checked
//       against a full recompute), and optionally writes the edited edge
//       list.
//   tpp serve --graph=G.edges (--socket=PATH | --stdio) [batch flags]
//             [--queue-depth=N] [--queued-bytes=B] [--per-client=N]
//             [--est-request-ms=MS] [--max-batch=N]
//       Long-lived plan server (service/server/server.h, docs/SERVICE.md):
//       accepts newline-framed batch-script lines over a Unix-domain
//       socket (--socket) and/or a stdio pipe pair (--stdio), feeds a
//       bounded admission queue (overload sheds immediately with a
//       retryable Unavailable + retry-after hint; deadline-tagged
//       requests that cannot be admitted in time shed at the door), and
//       answers each admitted request with a timing-free response line
//       bit-identical to what `tpp batch` produces for the same script.
//       `edit` directives apply at an epoch barrier: after everything
//       admitted before them, before anything admitted after. SIGTERM or
//       SIGINT (or a `shutdown` line, or --stdio EOF) drains gracefully —
//       admission stops, in-flight work finishes, the footer prints, exit
//       0; a second signal escalates to cancellation. With --store the
//       server persists index snapshots and plans, so kill -9 + restart
//       re-serves the same scripts byte-identically.
//   tpp solvers
//       Lists the registered solvers (key, display name, budgeting).
//   tpp attack  --graph=G.edges --plan=P.plan
//       Mounts all similarity-index attacks against the hidden targets of
//       a plan applied to a graph.
//   tpp stats   --graph=G.edges
//       Prints the graph summary profile.
//
// Examples:
//   tpp protect --graph=social.edges --targets=20 --motif=Rectangle
//       --algorithm=sgb --budget=50 --plan-out=social.plan
//       --release-out=social.released.edges    (one line)
//   tpp batch --requests=night_batch.txt --plan-dir=plans --threads=8
//   tpp attack --graph=social.edges --plan=social.plan
//   tpp stats --graph=social.released.edges

#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/signals.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/tpp.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "graph/relabel.h"
#include "linkpred/attack.h"
#include "metrics/summary.h"
#include "metrics/utility.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/server/server.h"
#include "service/store/warm_store.h"

namespace tpp {
namespace {

using core::ProtectionResult;
using core::SolverSpec;
using graph::Edge;
using graph::Graph;
using service::PlanRequest;
using service::PlanResponse;
using service::PlanService;

int Usage() {
  std::fprintf(
      stderr,
      "usage: tpp <protect|batch|serve|store|edit|solvers|attack|stats>"
      " [--flags]\n"
      "see the header of tools/tpp_cli.cc for examples\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

// Integer flag that must be at least `min`. Out-of-range values fail
// before any work starts instead of wrapping when cast to size_t.
Result<int64_t> GetIntAtLeast(const ParsedArgs& args, const std::string& key,
                              int64_t fallback, int64_t min) {
  TPP_ASSIGN_OR_RETURN(int64_t value, args.GetInt(key, fallback));
  if (value < min) {
    return Status::InvalidArgument(
        StrFormat("--%s=%lld is out of range (must be >= %lld)", key.c_str(),
                  static_cast<long long>(value),
                  static_cast<long long>(min)));
  }
  return value;
}

Result<Graph> LoadGraphFlag(const ParsedArgs& args) {
  std::string path = args.GetString("graph", "");
  if (path.empty()) return Status::InvalidArgument("--graph is required");
  return graph::LoadEdgeList(path);
}

// Opens the warm-start store named by --store/--store-cap; OK-with-nullptr
// when --store is absent. An unopenable store (directory uncreatable,
// catastrophic recovery failure) is the BOTTOM rung of the degradation
// ladder: the run warns and continues in-memory only — the warm start is
// an optimization, never a prerequisite. Flag errors still fail.
Result<std::unique_ptr<service::store::WarmStore>> OpenStoreFromFlags(
    const ParsedArgs& args) {
  std::string dir = args.GetString("store", "");
  Result<int64_t> cap = GetIntAtLeast(args, "store-cap", 0, 0);
  if (!cap.ok()) return cap.status();
  if (dir.empty()) {
    if (*cap > 0) {
      return Status::InvalidArgument("--store-cap requires --store=DIR");
    }
    return std::unique_ptr<service::store::WarmStore>();
  }
  service::store::StoreOptions store_options;
  store_options.capacity_bytes = static_cast<uint64_t>(*cap);
  Result<std::unique_ptr<service::store::WarmStore>> store =
      service::store::WarmStore::Open(dir, store_options);
  if (!store.ok()) {
    std::fprintf(stderr,
                 "warning: warm store %s unavailable (%s); continuing "
                 "without persistence\n",
                 dir.c_str(), store.status().ToString().c_str());
    return std::unique_ptr<service::store::WarmStore>();
  }
  return store;
}

void PrintStoreStats(const service::store::WarmStore& store,
                     const service::BatchStats& stats,
                     const service::PlanCache* cache) {
  service::store::WarmStore::Stats ss = store.stats();
  std::printf(
      "warm store %s: %zu snapshot hits, %zu snapshot writes, "
      "%llu plan hits, %llu rejects, %llu evicted files\n",
      store.dir().c_str(), stats.snapshot_hits, stats.snapshot_stores,
      static_cast<unsigned long long>(ss.plan_hits),
      static_cast<unsigned long long>(ss.index_rejects +
                                      ss.admission_rejects),
      static_cast<unsigned long long>(ss.evicted_files));
  // Health line: transient faults absorbed vs. service the store fell
  // short of. A healthy run prints all zeros; CI greps this line under
  // fault injection.
  std::printf(
      "store health: %llu retries, %llu write failures, "
      "%llu degradations\n",
      static_cast<unsigned long long>(ss.io_retries),
      static_cast<unsigned long long>(ss.write_failures),
      static_cast<unsigned long long>(ss.degradations()));
  if (cache != nullptr) {
    service::PlanCache::Stats cs = cache->stats();
    std::printf("plan cache tiers: %llu memory hits, %llu disk hits\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.backing_hits));
  }
}

// Reads the solver-selection flags shared by `protect` into a SolverSpec.
Result<SolverSpec> SpecFromFlags(const ParsedArgs& args) {
  SolverSpec spec;
  spec.algorithm = args.GetString("algorithm", "sgb");
  TPP_ASSIGN_OR_RETURN(int64_t budget, args.GetInt("budget", 0));
  spec.budget = core::BudgetFromFlag(budget);
  TPP_ASSIGN_OR_RETURN(
      spec.scope,
      core::ParseCandidateScope(args.GetString("scope", "subgraph")));
  TPP_RETURN_IF_ERROR(core::ValidateSolverSpec(spec));
  return spec;
}

int RunProtect(const ParsedArgs& args) {
  Result<Graph> g = LoadGraphFlag(args);
  if (!g.ok()) return Fail(g.status());

  // One request through the same service path as `tpp batch`, so a
  // standalone run and a batch line with equal parameters produce
  // byte-identical plans.
  PlanRequest request;
  Result<motif::MotifKind> motif_kind =
      motif::ParseMotifKind(args.GetString("motif", "Triangle"));
  if (!motif_kind.ok()) return Fail(motif_kind.status());
  request.motif = *motif_kind;

  Result<int64_t> num_targets = GetIntAtLeast(args, "targets", 10, 0);
  Result<int64_t> seed = args.GetInt("seed", 1);
  if (!num_targets.ok()) return Fail(num_targets.status());
  if (!seed.ok()) return Fail(seed.status());
  request.sample = static_cast<size_t>(*num_targets);
  request.seed = static_cast<uint64_t>(*seed);
  std::string links = args.GetString("links", "");
  if (!links.empty()) {
    Result<std::vector<Edge>> parsed = service::ParseLinkList(links);
    if (!parsed.ok()) return Fail(parsed.status());
    request.targets = std::move(*parsed);
  }

  Result<SolverSpec> spec = SpecFromFlags(args);
  if (!spec.ok()) return Fail(spec.status());
  request.spec = *spec;
  // Wall-clock budget: past it the solver stops at its next round
  // boundary and the run fails with DeadlineExceeded.
  Result<int64_t> deadline_ms = args.GetInt("deadline-ms", 0);
  if (!deadline_ms.ok()) return Fail(deadline_ms.status());
  request.deadline_ms = *deadline_ms;
  // A standalone protect run inspects (and may save) the released graph;
  // batches leave this off per request to keep memory flat.
  request.want_released = true;

  Result<std::unique_ptr<service::store::WarmStore>> store =
      OpenStoreFromFlags(args);
  if (!store.ok()) return Fail(store.status());

  // The single request always routes through the batch pipeline (whose
  // responses are bit-identical to RunOne); with --store its warm-start
  // hooks engage.
  PlanService plan_service(*g);
  std::unique_ptr<service::PlanCache> cache;
  service::BatchStats stats;
  service::BatchOptions options;
  options.stats = &stats;
  if (*store != nullptr) {
    cache = std::make_unique<service::PlanCache>(/*capacity=*/16);
    cache->set_backing_store(store->get());
    cache->set_cache_failures(args.GetBool("cache-failures"));
    options.cache = cache.get();
    options.store = store->get();
  }
  PlanResponse response = std::move(plan_service.RunBatch(
      std::span<const PlanRequest>(&request, 1), options)[0]);
  if (!response.status.ok()) return Fail(response.status);
  if (*store != nullptr) PrintStoreStats(**store, stats, cache.get());

  core::TppInstance instance = {
      plan_service.base(), response.targets, request.motif};
  // Re-derive the phase-1 graph for the report (the response carries the
  // final released graph, after protector deletions).
  instance.released.RemoveEdges(response.targets);
  std::printf("%s",
              core::FormatProtectionReport(instance,
                                           response.result).c_str());

  std::string plan_out = args.GetString("plan-out", "");
  if (!plan_out.empty()) {
    Status s = core::SaveDeletionPlan(instance, response.result, plan_out);
    if (!s.ok()) return Fail(s);
    std::printf("plan written to %s\n", plan_out.c_str());
  }
  std::string release_out = args.GetString("release-out", "");
  if (!release_out.empty()) {
    Graph release = response.released;
    if (args.GetBool("relabel")) {
      // The relabeling permutation draws from its own stream so it cannot
      // perturb (or be perturbed by) the protection run.
      Rng relabel_rng = service::RequestRng(request.seed + 1);
      release = graph::RandomRelabel(release, relabel_rng).graph;
    }
    Status s = graph::SaveEdgeList(release, release_out);
    if (!s.ok()) return Fail(s);
    std::printf("released graph written to %s%s\n", release_out.c_str(),
                args.GetBool("relabel") ? " (node ids permuted)" : "");
  }
  return 0;
}

int RunBatch(const ParsedArgs& args) {
  Result<Graph> g = LoadGraphFlag(args);
  if (!g.ok()) return Fail(g.status());
  std::string requests_path = args.GetString("requests", "");
  if (requests_path.empty()) {
    return Fail(Status::InvalidArgument("--requests is required"));
  }
  const bool stream = args.GetBool("stream");
  Result<int64_t> cache_size = GetIntAtLeast(args, "cache-size", 0, 0);
  if (!cache_size.ok()) return Fail(cache_size.status());
  // Whole-batch wall-clock budget (per script step): work past the
  // deadline returns DeadlineExceeded, finished requests keep their
  // responses. Per-request budgets come from the deadline_ms= request key.
  Result<int64_t> batch_deadline_ms = args.GetInt("batch-deadline-ms", 0);
  if (!batch_deadline_ms.ok()) return Fail(batch_deadline_ms.status());

  // LoadPlanScript reads and validates the file line by line; a
  // malformed line fails before any work starts, naming the line. Files
  // without `edit` directives parse as a single step, so plain request
  // files behave exactly as before.
  Result<std::vector<service::PlanScriptStep>> loaded =
      service::LoadPlanScript(requests_path);
  if (!loaded.ok()) return Fail(loaded.status());
  std::vector<service::PlanScriptStep> steps = std::move(*loaded);
  size_t total_requests = 0;
  for (const service::PlanScriptStep& step : steps) {
    total_requests += step.requests.size();
  }

  Result<std::unique_ptr<service::store::WarmStore>> store =
      OpenStoreFromFlags(args);
  if (!store.ok()) return Fail(store.status());

  PlanService plan_service(std::move(*g));
  // One repository for the whole script: prototype engines survive the
  // edit boundaries (repaired in place by ApplyEdit), so a step re-naming
  // an untouched instance re-clones instead of re-enumerating.
  service::InstanceRepository repository(&plan_service.base());
  std::unique_ptr<service::PlanCache> cache;
  if (*cache_size > 0 || *store != nullptr) {
    // Plan persistence flows through the cache's write-through tier, so
    // --store implies a cache even when --cache-size was not given.
    cache = std::make_unique<service::PlanCache>(
        static_cast<size_t>(*cache_size > 0 ? *cache_size : 1024));
  }
  if (*store != nullptr) {
    cache->set_backing_store(store->get());
    cache->set_cache_failures(args.GetBool("cache-failures"));
  }
  service::BatchStats stats;  // accumulated across every script step

  std::string plan_dir = args.GetString("plan-dir", "");
  Status plan_io = Status::Ok();
  auto write_plan = [&](const PlanRequest& request,
                        const PlanResponse& response) {
    if (plan_dir.empty()) return;
    // Every plan is attempted even after an earlier write failed (a full
    // disk mid-batch should not drop the remaining plans); the first
    // error is remembered and fails the exit code.
    std::string path = plan_dir + "/" + request.name + ".plan";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      if (plan_io.ok()) plan_io = Status::IoError("cannot write " + path);
      return;
    }
    std::fputs(response.plan_text.c_str(), f);
    std::fclose(f);
  };

  int failures = 0;
  // Per-StatusCode failure breakdown for the batch footer: a robustness
  // run needs to tell deadline misses from I/O loss from bad requests at
  // a glance (and CI needs a stable line to gate on).
  std::map<std::string_view, size_t> failure_codes;
  auto count_failure = [&](const Status& status) {
    ++failures;
    ++failure_codes[StatusCodeName(status.code())];
  };
  TextTable table;
  table.SetHeader({"request", "solver", "motif", "|T|", "s({},T)",
                   "deleted", "s(P,T)", "seconds", "status"});
  if (stream) {
    std::printf("%zu requests against %s (streaming)\n", total_requests,
                plan_service.base().DebugString().c_str());
  }
  for (const service::PlanScriptStep& step : steps) {
    const std::vector<PlanRequest>& requests = step.requests;
    service::BatchStats step_stats;
    service::BatchOptions options;
    options.cache = cache.get();
    options.store = store->get();
    options.repository = &repository;
    options.stats = &step_stats;
    options.batch_deadline_ms = *batch_deadline_ms;
    if (stream) {
      // One line per request, in input order, flushed as the completed
      // prefix grows — `tail -f` friendly. Plan files are written at the
      // same moment, so a crashed batch keeps every finished plan.
      plan_service.RunBatch(
          requests, options,
          [&](size_t i, const PlanResponse& response) {
            const PlanRequest& request = requests[i];
            if (!response.status.ok()) {
              count_failure(response.status);
              std::printf("%s error %s\n", request.name.c_str(),
                          response.status.ToString().c_str());
            } else {
              std::printf(
                  "%s ok solver=%s motif=%s targets=%zu deleted=%zu "
                  "similarity=%zu->%zu seconds=%.3f%s\n",
                  request.name.c_str(), request.spec.algorithm.c_str(),
                  std::string(motif::MotifName(request.motif)).c_str(),
                  response.targets.size(),
                  response.result.protectors.size(),
                  response.result.initial_similarity,
                  response.result.final_similarity, response.seconds,
                  response.from_cache ? " (cached)" : "");
              write_plan(request, response);
            }
            std::fflush(stdout);
          });
    } else {
      std::vector<PlanResponse> responses =
          plan_service.RunBatch(requests, options);
      for (size_t i = 0; i < responses.size(); ++i) {
        const PlanRequest& request = requests[i];
        const PlanResponse& response = responses[i];
        if (!response.status.ok()) {
          count_failure(response.status);
          table.AddRow({request.name, request.spec.algorithm,
                        std::string(motif::MotifName(request.motif)), "-",
                        "-", "-", "-", "-", response.status.ToString()});
          continue;
        }
        table.AddRow(
            {request.name, request.spec.algorithm,
             std::string(motif::MotifName(request.motif)),
             std::to_string(response.targets.size()),
             std::to_string(response.result.initial_similarity),
             std::to_string(response.result.protectors.size()),
             std::to_string(response.result.final_similarity),
             StrFormat("%.3f", response.seconds),
             response.from_cache ? "ok (cached)" : "ok"});
        write_plan(request, response);
      }
    }
    stats.requests += step_stats.requests;
    stats.cache_hits += step_stats.cache_hits;
    stats.dedup_shared += step_stats.dedup_shared;
    stats.solved += step_stats.solved;
    stats.instance_groups = step_stats.instance_groups;  // cumulative total
    stats.instance_builds += step_stats.instance_builds;
    stats.snapshot_hits += step_stats.snapshot_hits;
    stats.snapshot_stores += step_stats.snapshot_stores;
    stats.deadline_exceeded += step_stats.deadline_exceeded;
    stats.store_retries += step_stats.store_retries;
    stats.store_write_failures += step_stats.store_write_failures;
    stats.store_degradations += step_stats.store_degradations;
    if (step.edit.has_value()) {
      Result<service::EditSummary> summary =
          plan_service.ApplyEdit(*step.edit, cache.get(), &repository);
      if (!summary.ok()) return Fail(summary.status());
      std::printf(
          "edit: +%zu/-%zu edges, fingerprint %016llx -> %016llx "
          "(%zu cache entries kept, %zu invalidated; %zu groups repaired "
          "in place, %zu reset)\n",
          summary->inserted, summary->removed,
          static_cast<unsigned long long>(summary->old_fingerprint),
          static_cast<unsigned long long>(summary->new_fingerprint),
          summary->cache_rekeyed, summary->cache_invalidated,
          summary->groups_repaired, summary->groups_reset);
      std::fflush(stdout);
    }
  }
  if (!stream) {
    std::printf("%zu requests against %s:\n%s", total_requests,
                plan_service.base().DebugString().c_str(),
                table.ToString().c_str());
  }
  if (!plan_io.ok()) return Fail(plan_io);
  if (!plan_dir.empty()) {
    std::printf("plans written to %s/<request>.plan\n", plan_dir.c_str());
  }
  if (cache) {
    service::PlanCache::Stats cs = cache->stats();
    std::printf("plan cache: %llu hits, %llu misses, %llu evictions, "
                "%llu invalidated-by-edit "
                "(%zu dedup-shared, %zu instance builds for %zu groups)\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.evictions),
                static_cast<unsigned long long>(cs.invalidated_by_edit),
                stats.dedup_shared, stats.instance_builds,
                stats.instance_groups);
  }
  if (*store != nullptr) PrintStoreStats(**store, stats, cache.get());
  if (failures > 0) {
    // One stable line, codes in name order: "failures: 2/10
    // (DeadlineExceeded=1 InvalidArgument=1)".
    std::string breakdown;
    for (const auto& [code, count] : failure_codes) {
      if (!breakdown.empty()) breakdown += " ";
      breakdown += StrFormat("%s=%zu", std::string(code).c_str(), count);
    }
    std::printf("failures: %d/%zu (%s)\n", failures, total_requests,
                breakdown.c_str());
  }
  return failures == 0 ? 0 : 1;
}

int RunServe(const ParsedArgs& args) {
  Result<Graph> g = LoadGraphFlag(args);
  if (!g.ok()) return Fail(g.status());
  const std::string socket_path = args.GetString("socket", "");
  const bool stdio = args.GetBool("stdio");
  if (socket_path.empty() && !stdio) {
    return Fail(Status::InvalidArgument(
        "tpp serve needs a listener: --socket=PATH and/or --stdio"));
  }

  service::server::ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.stdio = stdio;
  // A zero queue depth or byte cap would shed every request and a zero
  // batch would wedge the solve loop, so those floors are 1; a zero
  // per-client cap means "no cap" and a zero estimate disables the
  // deadline-hopeless rule.
  Result<int64_t> queue_depth = GetIntAtLeast(args, "queue-depth", 256, 1);
  Result<int64_t> queued_bytes =
      GetIntAtLeast(args, "queued-bytes", 4 << 20, 1);
  Result<int64_t> per_client = GetIntAtLeast(args, "per-client", 64, 0);
  Result<int64_t> est_request_ms =
      GetIntAtLeast(args, "est-request-ms", 50, 0);
  Result<int64_t> max_batch = GetIntAtLeast(args, "max-batch", 8, 1);
  for (const auto* flag : {&queue_depth, &queued_bytes, &per_client,
                           &est_request_ms, &max_batch}) {
    if (!flag->ok()) return Fail(flag->status());
  }
  server_options.admission.max_queue_depth =
      static_cast<size_t>(*queue_depth);
  server_options.admission.max_queued_bytes =
      static_cast<size_t>(*queued_bytes);
  server_options.admission.max_per_client = static_cast<size_t>(*per_client);
  server_options.admission.est_request_ms =
      static_cast<uint64_t>(*est_request_ms);
  server_options.max_batch = static_cast<size_t>(*max_batch);

  Result<std::unique_ptr<service::store::WarmStore>> store =
      OpenStoreFromFlags(args);
  if (!store.ok()) return Fail(store.status());
  Result<int64_t> cache_size = GetIntAtLeast(args, "cache-size", 0, 0);
  if (!cache_size.ok()) return Fail(cache_size.status());

  PlanService plan_service(std::move(*g));
  // The same serving state `tpp batch` wires up, held for the server's
  // whole life: prototype engines survive edit barriers, and with
  // --store a restart re-serves scripts byte-identically from snapshots
  // and the plan log.
  service::InstanceRepository repository(&plan_service.base());
  std::unique_ptr<service::PlanCache> cache;
  if (*cache_size > 0 || *store != nullptr) {
    cache = std::make_unique<service::PlanCache>(
        static_cast<size_t>(*cache_size > 0 ? *cache_size : 1024));
  }
  if (*store != nullptr) {
    cache->set_backing_store(store->get());
    cache->set_cache_failures(args.GetBool("cache-failures"));
  }
  server_options.cache = cache.get();
  server_options.store = store->get();
  server_options.repository = &repository;

  Result<int> signal_fd = signals::InstallShutdownPipe();
  if (signal_fd.ok()) {
    server_options.signal_fd = *signal_fd;
  } else {
    std::fprintf(stderr,
                 "warning: no signal handling (%s); use the `shutdown` "
                 "directive to drain\n",
                 signal_fd.status().ToString().c_str());
  }

  std::fprintf(stderr, "tpp serve: %s%s%s, queue depth %lld\n",
               socket_path.empty() ? "" : socket_path.c_str(),
               (!socket_path.empty() && stdio) ? " + " : "",
               stdio ? "stdio" : "",
               static_cast<long long>(*queue_depth));
  service::server::PlanServer plan_server(&plan_service, server_options);
  Status served = plan_server.Serve();
  if (!served.ok()) return Fail(served);

  // Drain footer: one stable block CI and the soak bench grep. Shed and
  // drain counters first, then the same store-health lines as `tpp
  // batch` so store gating works identically for the server.
  service::server::ServerStats stats = plan_server.snapshot_stats();
  std::printf(
      "server: %llu connections, %llu admitted, %llu responses, "
      "%llu shed (queue_full=%llu queued_bytes=%llu client_cap=%llu "
      "deadline_hopeless=%llu draining=%llu)\n",
      static_cast<unsigned long long>(stats.connections),
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.responses),
      static_cast<unsigned long long>(stats.shed_total()),
      static_cast<unsigned long long>(stats.shed_queue_full),
      static_cast<unsigned long long>(stats.shed_queued_bytes),
      static_cast<unsigned long long>(stats.shed_client_cap),
      static_cast<unsigned long long>(stats.shed_deadline_hopeless),
      static_cast<unsigned long long>(stats.shed_draining));
  std::printf(
      "server drain: %llu drained in flight, %llu aborted, %llu dropped "
      "responses, %llu parse errors, %llu torn frames, %llu edits "
      "(%llu failed), max client load %zu, max queue depth %zu\n",
      static_cast<unsigned long long>(stats.drained_in_flight),
      static_cast<unsigned long long>(stats.aborted_in_flight),
      static_cast<unsigned long long>(stats.dropped_responses),
      static_cast<unsigned long long>(stats.parse_errors),
      static_cast<unsigned long long>(stats.torn_frames),
      static_cast<unsigned long long>(stats.edits_applied),
      static_cast<unsigned long long>(stats.edits_failed),
      stats.max_client_load, stats.max_queue_depth);
  if (*store != nullptr) {
    PrintStoreStats(**store, service::BatchStats{}, cache.get());
  }
  return 0;
}

int RunStore(const ParsedArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "usage: tpp store <ls|verify|evict> --store=DIR\n");
    return 2;
  }
  const std::string& action = args.positional()[1];
  std::string dir = args.GetString("store", "");
  if (dir.empty()) {
    return Fail(Status::InvalidArgument("--store=DIR is required"));
  }
  Result<int64_t> cap = GetIntAtLeast(args, "store-cap", 0, 0);
  if (!cap.ok()) return Fail(cap.status());
  service::store::StoreOptions store_options;
  store_options.capacity_bytes = static_cast<uint64_t>(*cap);
  Result<std::unique_ptr<service::store::WarmStore>> store =
      service::store::WarmStore::Open(dir, store_options);
  if (!store.ok()) {
    // Maintenance needs the store; verify distinguishes "cannot even
    // open" (exit 2) from "opened but holds corrupt entries" (exit 1)
    // so health checks can tell the rungs apart.
    std::fprintf(stderr, "error: %s\n", store.status().ToString().c_str());
    return action == "verify" ? 2 : 1;
  }

  if (action == "ls") {
    Result<std::vector<service::store::StoreEntry>> entries =
        (*store)->Scan();
    if (!entries.ok()) return Fail(entries.status());
    TextTable table;
    table.SetHeader({"entry", "kind", "bytes", "age", "detail"});
    for (const service::store::StoreEntry& e : *entries) {
      std::string detail;
      const char* kind;
      if (e.kind == service::store::StoreEntry::Kind::kIndexSnapshot) {
        kind = "index";
        detail = StrFormat("fp=%016llx motif=%s targets=%016llx",
                           static_cast<unsigned long long>(
                               e.graph_fingerprint),
                           e.motif.c_str(),
                           static_cast<unsigned long long>(e.target_hash));
      } else {
        kind = "plans";
        detail = StrFormat("%zu plans%s", e.plan_records,
                           e.sealed ? " (sealed)" : " (active)");
      }
      table.AddRow({e.name, kind, std::to_string(e.bytes),
                    StrFormat("%.0fs", e.age_seconds), detail});
    }
    std::printf("%zu entries in %s:\n%s", entries->size(), dir.c_str(),
                table.ToString().c_str());
    return 0;
  }
  if (action == "verify") {
    std::vector<std::string> problems;
    Status status = (*store)->VerifyAll(&problems);
    if (!status.ok()) return Fail(status);
    for (const std::string& problem : problems) {
      std::printf("CORRUPT %s\n", problem.c_str());
    }
    if (problems.empty()) {
      std::printf("store %s verified clean\n", dir.c_str());
      return 0;
    }
    return 1;
  }
  if (action == "evict") {
    std::string name = args.GetString("name", "");
    const bool has_age = args.Has("older-than");
    const bool stale = args.GetBool("stale");
    Result<double> older_than = args.GetDouble("older-than", 0);
    if (!older_than.ok()) return Fail(older_than.status());
    if (static_cast<int>(!name.empty()) + static_cast<int>(has_age) +
            static_cast<int>(stale) !=
        1) {
      return Fail(Status::InvalidArgument(
          "evict takes exactly one of --name=ENTRY, --older-than=SECONDS, "
          "or --stale --graph=FILE"));
    }
    if (!name.empty()) {
      Status status = (*store)->EvictByName(name);
      if (!status.ok()) return Fail(status);
      std::printf("evicted %s\n", name.c_str());
      return 0;
    }
    if (stale) {
      // The live graph defines which fingerprint is still reachable;
      // everything the store holds under another one is garbage.
      Result<Graph> live = LoadGraphFlag(args);
      if (!live.ok()) return Fail(live.status());
      const uint64_t fingerprint = graph::Fingerprint(*live);
      Result<size_t> removed = (*store)->EvictStale(fingerprint);
      if (!removed.ok()) return Fail(removed.status());
      std::printf("evicted %zu stale entries (live fingerprint %016llx)\n",
                  *removed, static_cast<unsigned long long>(fingerprint));
      return 0;
    }
    Result<size_t> removed = (*store)->EvictOlderThan(*older_than);
    if (!removed.ok()) return Fail(removed.status());
    std::printf("evicted %zu entries older than %.0fs\n", *removed,
                *older_than);
    return 0;
  }
  std::fprintf(stderr, "usage: tpp store <ls|verify|evict> --store=DIR\n");
  return 2;
}

int RunEdit(const ParsedArgs& args) {
  Result<Graph> g = LoadGraphFlag(args);
  if (!g.ok()) return Fail(g.status());
  std::string insert = args.GetString("insert", "");
  std::string remove = args.GetString("remove", "");
  if (insert.empty() && remove.empty()) {
    return Fail(Status::InvalidArgument(
        "edit needs at least one of --insert=u-v;u-v or --remove=u-v;u-v"));
  }
  const uint64_t old_fingerprint = graph::Fingerprint(*g);
  std::printf("loaded %s, fingerprint %016llx\n",
              g->DebugString().c_str(),
              static_cast<unsigned long long>(old_fingerprint));

  // One edit session, every op validated against the pending view; the
  // commit applies the net changes through one batched insert/remove.
  Graph::EditSession session = g->BeginEdit();
  if (!insert.empty()) {
    Result<std::vector<Edge>> edges = service::ParseLinkList(insert);
    if (!edges.ok()) return Fail(edges.status());
    for (const Edge& e : *edges) {
      Status queued = session.Insert(e.u, e.v);
      if (!queued.ok()) return Fail(queued);
    }
  }
  if (!remove.empty()) {
    Result<std::vector<Edge>> edges = service::ParseLinkList(remove);
    if (!edges.ok()) return Fail(edges.status());
    for (const Edge& e : *edges) {
      Status queued = session.Remove(e.u, e.v);
      if (!queued.ok()) return Fail(queued);
    }
  }
  Result<graph::GraphDelta> delta = session.Commit();
  if (!delta.ok()) return Fail(delta.status());

  const uint64_t updated = graph::UpdateFingerprint(
      old_fingerprint, delta->inserted, delta->removed);
  const uint64_t recomputed = graph::Fingerprint(*g);
  if (updated != recomputed) {
    // Cannot happen while UpdateFingerprint honors its contract; fail
    // loudly rather than print a fingerprint nothing else will match.
    return Fail(Status::Internal(
        StrFormat("O(delta) fingerprint %016llx != full recompute %016llx",
                  static_cast<unsigned long long>(updated),
                  static_cast<unsigned long long>(recomputed))));
  }
  std::printf(
      "committed +%zu/-%zu edges -> %s\n"
      "fingerprint %016llx -> %016llx (O(delta) update, verified against "
      "full recompute)\n",
      delta->inserted.size(), delta->removed.size(),
      g->DebugString().c_str(),
      static_cast<unsigned long long>(old_fingerprint),
      static_cast<unsigned long long>(updated));

  std::string out = args.GetString("out", "");
  if (!out.empty()) {
    Status saved = graph::SaveEdgeList(*g, out);
    if (!saved.ok()) return Fail(saved);
    std::printf("edited graph written to %s\n", out.c_str());
  }
  return 0;
}

int RunSolvers() {
  TextTable table;
  table.SetHeader({"solver", "display name", "budgeting", "randomized"});
  for (std::string_view name : core::SolverNames()) {
    const core::Solver* solver = core::FindSolver(name);
    const char* budgeting = "global k";
    if (solver->Budgeting() == core::BudgetModel::kPerTarget) {
      budgeting = "per-target K";
    } else if (solver->Budgeting() == core::BudgetModel::kUnbudgeted) {
      budgeting = "unbudgeted";
    }
    table.AddRow({std::string(name), std::string(solver->DisplayName()),
                  budgeting, solver->Randomized() ? "yes" : "no"});
  }
  std::printf("%s", table.ToString().c_str());
  return 0;
}

int RunAttack(const ParsedArgs& args) {
  Result<Graph> g = LoadGraphFlag(args);
  if (!g.ok()) return Fail(g.status());
  std::string plan_path = args.GetString("plan", "");
  if (plan_path.empty()) {
    return Fail(Status::InvalidArgument("--plan is required"));
  }
  Result<core::DeletionPlan> plan = core::LoadDeletionPlan(plan_path);
  if (!plan.ok()) return Fail(plan.status());
  Result<Graph> released = core::ApplyDeletionPlan(*g, *plan);
  if (!released.ok()) return Fail(released.status());

  Result<int64_t> seed = args.GetInt("seed", 1);
  if (!seed.ok()) return Fail(seed.status());
  Rng rng(static_cast<uint64_t>(*seed));
  Result<std::vector<linkpred::AttackReport>> reports =
      linkpred::EvaluateAllAttacks(*released, plan->targets, rng);
  if (!reports.ok()) return Fail(reports.status());

  TextTable table;
  table.SetHeader({"index", "AUC", "precision@|T|", "zeroed targets"});
  for (const auto& report : *reports) {
    table.AddRow({std::string(linkpred::IndexName(report.index)),
                  StrFormat("%.3f", report.auc),
                  StrFormat("%.3f", report.precision_at_t),
                  StrFormat("%zu/%zu", report.zero_score_targets,
                            plan->targets.size())});
  }
  std::printf("attack evaluation of %zu hidden targets on %s:\n%s",
              plan->targets.size(), released->DebugString().c_str(),
              table.ToString().c_str());
  return 0;
}

int RunStats(const ParsedArgs& args) {
  Result<Graph> g = LoadGraphFlag(args);
  if (!g.ok()) return Fail(g.status());
  std::printf("%s",
              metrics::SummaryToString(metrics::SummarizeGraph(*g)).c_str());
  return 0;
}

int Main(int argc, char** argv) {
  Result<ParsedArgs> args = ParsedArgs::Parse(argc, argv);
  if (!args.ok()) return Fail(args.status());
  if (args->positional().empty()) return Usage();
  // --threads caps the shared worker pool (batch requests and parallel
  // batch gain evaluation both draw from it).
  Status threads_status = ApplyThreadsFlag(*args);
  if (!threads_status.ok()) return Fail(threads_status);
  const std::string& command = args->positional()[0];
  int rc;
  if (command == "protect") {
    rc = RunProtect(*args);
  } else if (command == "batch") {
    rc = RunBatch(*args);
  } else if (command == "serve") {
    rc = RunServe(*args);
  } else if (command == "store") {
    rc = RunStore(*args);
  } else if (command == "edit") {
    rc = RunEdit(*args);
  } else if (command == "solvers") {
    rc = RunSolvers();
  } else if (command == "attack") {
    rc = RunAttack(*args);
  } else if (command == "stats") {
    rc = RunStats(*args);
  } else {
    return Usage();
  }
  for (const std::string& key : args->UnreadFlags()) {
    std::fprintf(stderr, "warning: unused flag --%s\n", key.c_str());
  }
  return rc;
}

}  // namespace
}  // namespace tpp

int main(int argc, char** argv) { return tpp::Main(argc, argv); }
