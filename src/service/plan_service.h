// PlanService: one loaded base graph serving batches of TPP protection
// requests through a staged pipeline.
//
// The deployment story of target privacy preserving is a stream of
// designated users ("protect these links before the next release") hitting
// one released network, and nightly batches repeat much of the same work.
// The service loads the base graph once; each PlanRequest names its
// targets (explicitly or by sample count), a motif, and a SolverSpec, and
// RunBatch executes the requests through an explicit pipeline:
//
//   canonicalize  — derive each request's content key (base-graph
//                   fingerprint + request payload; plan_cache.h)
//   cache-probe   — serve repeats of earlier batches from the optional
//                   PlanCache
//   dedup         — requests with identical keys inside the batch solve
//                   once and share the response
//   group-by-instance — requests with the same (targets, motif) share one
//                   IncidenceIndex build (instance_repository.h)
//   build-once / solve / serialize — build each group once (a failed
//                   build fails its own acquirer and the next one tries
//                   again), hand every request a private IndexedEngine
//                   over copies of its index and of the base minus its
//                   targets, run the spec'd solver, serialize the plan
//   cache-fill    — insert fresh responses into the cache
//
// Every stage is a pure optimization: responses are bit-identical to a
// sequential loop of cold one-request solves (RunOneCold, the test-only
// oracle in tests/reference/run_one_cold.h) at any worker count, cache
// state, or sharing group (regression-tested in
// tests/plan_pipeline_test.cc).
//
// Determinism: every request derives its own RNG stream purely from its
// seed (Rng(SplitMix64(seed)), see common/rng.h), so responses are
// bit-identical whether the batch runs on 1 thread or 8, in any order,
// and a batch of one request equals a standalone `tpp protect` run with
// the same parameters. Two requests with equal seeds produce identical
// plans; distinct seeds produce independent streams even when adjacent.
//
// Request-file format (docs/SERVICE.md): one request per line of
// whitespace-separated key=value tokens, e.g.
//
//   # tpp batch request file v1
//   name=r0 algorithm=sgb motif=Triangle sample=20 seed=1 budget=10
//   name=r1 algorithm=ct-tbd links=3-14;15-92 budget=6 scope=all

#ifndef TPP_SERVICE_PLAN_SERVICE_H_
#define TPP_SERVICE_PLAN_SERVICE_H_

#include <atomic>
#include <functional>
#include <istream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "core/problem.h"
#include "core/report.h"
#include "core/solver.h"
#include "graph/graph.h"
#include "motif/motif.h"

namespace tpp::service {

class PlanCache;            // plan_cache.h
class InstanceRepository;   // instance_repository.h

namespace store {
class WarmStore;  // store/warm_store.h
}  // namespace store

/// One unit of work: protect one target set of the base graph.
struct PlanRequest {
  /// Request id, used in reports and plan file names. Parsed files default
  /// it to "r<line-index>". Excluded from the cache key: two requests that
  /// differ only in name produce the same response payload.
  std::string name;
  /// Explicit target links. When empty, `sample` links are drawn
  /// uniformly from the base graph's edges instead.
  std::vector<graph::Edge> targets;
  size_t sample = 10;  ///< number of targets to sample (targets empty)
  motif::MotifKind motif = motif::MotifKind::kTriangle;
  core::SolverSpec spec;  ///< algorithm, scope, budget
  uint64_t seed = 1;      ///< per-request RNG stream seed
  /// Wall-clock budget for this request in milliseconds; <= 0 means
  /// unlimited. The clock starts when the pipeline picks the request up;
  /// past the deadline the solver stops at its next round boundary and
  /// the response carries kDeadlineExceeded — the rest of the batch is
  /// unaffected. Request-file key `deadline_ms=`, CLI flag
  /// --deadline-ms. Excluded from the cache key: a deadline changes
  /// whether a run finishes, never what a finished run produces.
  int64_t deadline_ms = 0;
  /// Optional external cancel signal (not owned; must outlive the run).
  /// Chained under the per-request deadline token, so either source
  /// stops the solve. Excluded from the cache key.
  const CancellationToken* cancel = nullptr;
};

/// Outcome of one request. Failures are isolated: a bad request yields a
/// non-OK status in its slot and the rest of the batch proceeds.
struct PlanResponse {
  Status status = Status::Ok();
  std::vector<graph::Edge> targets;  ///< realized targets (sampled or given)
  core::ProtectionResult result;
  /// SerializeDeletionPlan output. The released graph is derived from it
  /// (core::ApplyDeletionPlan), never carried.
  std::string plan_text;
  double seconds = 0;         ///< wall time of this request
  bool from_cache = false;    ///< served by a PlanCache hit
};

/// Counters one pipeline run fills when BatchOptions::stats is set: what
/// the pipeline decided, plus the groups it interned and the builds it
/// ran (a batch-local repository reports them nowhere else). Store events are
/// the store's own count (WarmStore::stats()). Every request is accounted
/// exactly once among cache_hits, dedup_shared, and solved.
struct BatchStats {
  size_t requests = 0;        ///< batch size
  size_t cache_hits = 0;      ///< served straight from the PlanCache
  size_t dedup_shared = 0;    ///< shared an in-batch representative's work
  size_t solved = 0;          ///< executed by the solve stage (incl. failures)
  size_t instance_groups = 0; ///< distinct (targets, motif) groups interned
  size_t instance_builds = 0; ///< group index builds performed
  /// Requests whose response is kDeadlineExceeded (their own deadline_ms
  /// or the batch deadline fired). Dedup followers of an expired
  /// representative count too — they carry the same response.
  size_t deadline_exceeded = 0;
};

/// Knobs of one RunBatch pipeline execution.
struct BatchOptions {
  /// Concurrent requests at a time; <= 0 uses GlobalThreadCount().
  int max_workers = 0;
  /// Optional response memo shared across batches (and across services:
  /// keys embed the base-graph fingerprint). nullptr disables the
  /// cache-probe and cache-fill stages.
  PlanCache* cache = nullptr;
  /// Optional disk-backed warm-start store (store/warm_store.h). The
  /// build-once stage probes it for IncidenceIndex snapshots before
  /// building (writing cold builds back), making the expensive index
  /// construction survive process restarts. Plan-level persistence is the
  /// cache's concern: attach the same store to the PlanCache with
  /// set_backing_store. Responses stay bit-identical with or without a
  /// store (regression-tested in tests/store_warmstart_test.cc).
  store::WarmStore* store = nullptr;
  /// Optional externally-owned instance repository reused ACROSS batches
  /// (nullptr: the pipeline builds a fresh per-batch repository, the
  /// historical behavior). It must have been constructed over this
  /// service's base graph and, between batches, kept in step with every
  /// PlanService::ApplyEdit (which repairs its built groups in place).
  /// With an external repository a follow-up batch naming the same
  /// (targets, motif) groups copies the surviving instances and indexes
  /// instead of re-enumerating — the stats report builds performed BY
  /// THIS RUN, so a fully warm batch shows instance_builds == 0. The
  /// pipeline (re)applies its build-thread budget and store attachment on
  /// every run, and ends it with InstanceRepository::Trim, which erases
  /// the unbuilt groups and the least recently acquired ones past the
  /// repository's byte cap.
  InstanceRepository* repository = nullptr;
  /// Optional out-param for pipeline counters.
  BatchStats* stats = nullptr;
  /// Wall-clock budget for the WHOLE batch in milliseconds; <= 0 means
  /// unlimited. The clock starts at pipeline entry; every request's
  /// effective deadline is the earlier of its own deadline_ms and this.
  /// Requests already solved keep their responses — only work past the
  /// deadline returns kDeadlineExceeded.
  int64_t batch_deadline_ms = 0;
};

/// Outcome summary of one committed base-graph edit applied through
/// PlanService::ApplyEdit.
struct EditSummary {
  uint64_t old_fingerprint = 0;
  uint64_t new_fingerprint = 0;
  size_t inserted = 0;           ///< net edges inserted
  size_t removed = 0;            ///< net edges removed
  size_t cache_rekeyed = 0;      ///< cache entries surviving under the new fp
  size_t cache_invalidated = 0;  ///< cache entries dropped by the edit
  size_t groups_repaired = 0;    ///< repository groups repaired in place
  size_t groups_reset = 0;       ///< built groups erased for a cold rebuild
};

/// Streaming delivery callback: invoked once per request, in input order,
/// never concurrently, as the completed prefix of the batch grows —
/// response i is delivered as soon as requests 0..i have all finished, so
/// long batches can be tailed without waiting for the slowest request.
/// The call comes from the calling thread or from a pool worker.
using ResponseSink =
    std::function<void(size_t index, const PlanResponse& response)>;

/// Derives the request's RNG stream from its seed; the single derivation
/// rule shared by the service and the CLI so batch and standalone runs
/// agree bit-for-bit.
Rng RequestRng(uint64_t seed);

/// Serves protection requests against one base graph. Thread-compatible:
/// RunBatch may be called repeatedly (sequentially); each call fans its
/// requests out over the shared pool.
class PlanService {
 public:
  explicit PlanService(graph::Graph base);

  const graph::Graph& base() const { return base_; }

  /// graph::Fingerprint of the base, computed once at construction; the
  /// content-address prefix of every cache key this service produces.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Executes all requests through the pipeline (default BatchOptions
  /// with `max_workers`) and returns responses in input order.
  std::vector<PlanResponse> RunBatch(std::span<const PlanRequest> requests,
                                     int max_workers = 0) const;

  /// Pipeline execution with explicit options; responses in input order.
  std::vector<PlanResponse> RunBatch(std::span<const PlanRequest> requests,
                                     const BatchOptions& options) const;

  /// Streaming pipeline execution: delivers each response to `sink` (see
  /// ResponseSink for the ordering contract) instead of collecting them.
  /// Delivery granularity is one request; with max_workers == 1 everything
  /// runs on the calling thread, solve one then deliver one.
  void RunBatch(std::span<const PlanRequest> requests,
                const BatchOptions& options, const ResponseSink& sink) const;

  /// Commits a normalized base-graph edit (the GraphDelta contract —
  /// typically a ParseEditLine or graph::MakeGraphDelta result) to the
  /// LIVE service: applies the delta to the base graph, advances
  /// the fingerprint in O(|delta|) (graph::UpdateFingerprint — no
  /// re-walk), and keeps the serving state consistent:
  ///   * `cache` (if given): entries under the old fingerprint whose
  ///     response provably cannot change — deterministic algorithm,
  ///     explicit targets, restricted scope, every target endpoint
  ///     outside the edit's distance-1 neighborhood on the pre-edit graph
  ///     — are rekeyed to the new fingerprint and survive; the rest are
  ///     dropped (PlanCache::InvalidateForEdit).
  ///   * `repository` (if given): built instance groups are repaired in
  ///     place around the delta neighborhood instead of re-enumerated
  ///     (InstanceRepository::ApplyEdit); only groups whose target links
  ///     the edit touches are erased, to cold-build when next named.
  /// On a delta that fails validation (an absent removal, a present
  /// insertion) nothing changes and the error is returned. Must not run
  /// concurrently with RunBatch — edits sit between batches. The
  /// restriction is ENFORCED, not conventional: an ApplyEdit that
  /// overlaps an in-flight RunBatch returns kFailedPrecondition
  /// and changes nothing, instead of mutating the base graph under a
  /// running solve. Callers that interleave edits with serving (the plan
  /// server's epoch barrier, the batch script's edit steps) retry or
  /// sequence at their own drain point.
  Result<EditSummary> ApplyEdit(const graph::GraphDelta& delta,
                                PlanCache* cache = nullptr,
                                InstanceRepository* repository = nullptr);

 private:
  std::vector<PlanResponse> RunPipeline(std::span<const PlanRequest> requests,
                                        const BatchOptions& options,
                                        const ResponseSink* sink) const;

  graph::Graph base_;
  uint64_t fingerprint_ = 0;
  // Live RunBatch executions; ApplyEdit refuses while nonzero.
  mutable std::atomic<int> active_runs_{0};
};

/// Parses an explicit link list "u-v;u-v;..." (the `links=` value of the
/// request-file format and the CLI's --links flag). Rejects malformed
/// pairs, negative or > 32-bit node ids, self-loops, and duplicate links
/// (including reversed duplicates like "1-2;2-1").
Result<std::vector<graph::Edge>> ParseLinkList(std::string_view value);

/// Parses one request line (the format above, already stripped of
/// comments and surrounding whitespace). `line` is the 1-based line
/// number used in error messages; `index` names the request "r<index>"
/// when the line has no name= token. The building block of
/// ParsePlanScript, exposed for feeds that arrive a line at a time.
Result<PlanRequest> ParsePlanRequestLine(std::string_view text, size_t line,
                                         size_t index);

/// True iff the (stripped) script line is an `edit` directive rather
/// than a request: the word `edit`, alone or followed by whitespace.
bool IsEditDirective(std::string_view line);

/// Parses one `edit` directive line of a batch script:
///
///   edit insert=u-v;u-v remove=u-v
///
/// At least one of insert=/remove= must be present; both take the
/// ParseLinkList syntax. The result is normalized by graph::MakeGraphDelta
/// (canonical u<v endpoints, each list sorted by key and duplicate-free,
/// lists disjoint); violations are parse errors, so a parsed delta is
/// always directly applicable.
Result<graph::GraphDelta> ParseEditLine(std::string_view text, size_t line);

/// One step of a batch script: the requests to run, then (optionally) the
/// edit to commit before the next step.
struct PlanScriptStep {
  std::vector<PlanRequest> requests;
  std::optional<graph::GraphDelta> edit;
};

/// Parses a batch SCRIPT: the plain request-file format plus `edit`
/// directive lines (see ParseEditLine) that split the file into
/// sequential steps. Each step's requests run as one pipeline batch
/// against the then-current base graph; its edit (if any) commits through
/// PlanService::ApplyEdit before the next step runs. A file with no edit
/// lines parses as a single step — the format is a strict superset of the
/// request-file format. Request indices ("r<N>" default names) number
/// across the whole script.
Result<std::vector<PlanScriptStep>> ParsePlanScript(std::istream& stream);

/// Parses an in-memory batch script.
Result<std::vector<PlanScriptStep>> ParsePlanScript(const std::string& text);

/// Loads and parses a batch script from disk (line by line).
Result<std::vector<PlanScriptStep>> LoadPlanScript(const std::string& path);

}  // namespace tpp::service

#endif  // TPP_SERVICE_PLAN_SERVICE_H_
