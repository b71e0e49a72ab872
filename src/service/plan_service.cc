#include "service/plan_service.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/indexed_engine.h"
#include "graph/fingerprint.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/store/warm_store.h"

namespace tpp::service {

using core::IndexedEngine;
using core::SolverSpec;
using core::TppInstance;
using graph::Edge;

namespace {

// The solve tail shared by RunOne and the batch pipeline: everything
// after the targets are resolved and an engine over the instance exists.
// Keeping it one function makes "pipeline output == sequential RunOne
// loop" an identity by construction, not by coincidence.
void SolveWithEngine(const PlanRequest& request, const TppInstance& instance,
                     IndexedEngine& engine, Rng& rng,
                     const CancellationToken* cancel,
                     PlanResponse* response) {
  SolverSpec spec = request.spec;
  if (cancel != nullptr) spec.cancel = cancel;
  Result<core::ProtectionResult> result =
      core::RunSolver(spec, engine, instance, rng);
  if (!result.ok()) {
    response->status = result.status();
    return;
  }
  response->result = std::move(*result);
  response->plan_text =
      core::SerializeDeletionPlan(instance, response->result);
  if (request.want_released) response->released = engine.CurrentGraph();
}

// The effective cancel source of one request: its own deadline_ms (clock
// starting now) tightened by an optional batch deadline, chained over the
// request's external cancel token. Arms `token` and returns it when any
// source is active, else returns the bare external token (possibly null)
// so unarmed requests keep the null fast path.
const CancellationToken* ArmRequestToken(
    const PlanRequest& request, bool batch_deadline,
    CancellationToken::Clock::time_point batch_by, CancellationToken& token) {
  if (request.deadline_ms <= 0 && !batch_deadline) return request.cancel;
  if (request.deadline_ms > 0) {
    token.TightenDeadline(CancellationToken::Clock::now() +
                          std::chrono::milliseconds(request.deadline_ms));
  }
  if (batch_deadline) token.TightenDeadline(batch_by);
  token.set_parent(request.cancel);
  return &token;
}

}  // namespace

Rng RequestRng(uint64_t seed) { return Rng(SplitMix64(seed)); }

PlanService::PlanService(graph::Graph base)
    : base_(std::move(base)), fingerprint_(graph::Fingerprint(base_)) {}

namespace {

// Marks a RunBatch/RunOne execution live for the ApplyEdit guard.
struct ActiveRunGuard {
  explicit ActiveRunGuard(std::atomic<int>& counter) : counter(counter) {
    counter.fetch_add(1, std::memory_order_acq_rel);
  }
  ~ActiveRunGuard() { counter.fetch_sub(1, std::memory_order_acq_rel); }
  std::atomic<int>& counter;
};

}  // namespace

PlanResponse PlanService::RunOne(const PlanRequest& request) const {
  ActiveRunGuard active(active_runs_);
  WallTimer timer;
  PlanResponse response;
  CancellationToken deadline_token;
  const CancellationToken* cancel = ArmRequestToken(
      request, /*batch_deadline=*/false, {}, deadline_token);
  // Everything below depends only on the base graph and the request, so
  // concurrent execution order cannot change any response.
  Rng rng = RequestRng(request.seed);
  if (request.targets.empty()) {
    Result<std::vector<Edge>> sampled =
        core::SampleTargets(base_, request.sample, rng);
    if (!sampled.ok()) {
      response.status = sampled.status();
      return response;
    }
    response.targets = std::move(*sampled);
  } else {
    response.targets = request.targets;
  }
  // Stage-boundary poll before the expensive build; the solver polls at
  // its own round boundaries from here on.
  response.status = PollCancellation(cancel, "plan:build");
  if (!response.status.ok()) return response;
  Result<TppInstance> instance =
      core::MakeInstance(base_, response.targets, request.motif);
  if (!instance.ok()) {
    response.status = instance.status();
    return response;
  }
  motif::IncidenceIndex::BuildOptions build_options;
  build_options.cancel = cancel;
  Result<IndexedEngine> engine =
      IndexedEngine::Create(*instance, build_options);
  if (!engine.ok()) {
    response.status = engine.status();
    return response;
  }
  SolveWithEngine(request, *instance, *engine, rng, cancel, &response);
  if (!response.status.ok()) return response;
  response.seconds = timer.Seconds();
  return response;
}

std::vector<PlanResponse> PlanService::RunPipeline(
    std::span<const PlanRequest> requests, const BatchOptions& options,
    const ResponseSink* sink) const {
  ActiveRunGuard active(active_runs_);
  const size_t n = requests.size();
  std::vector<PlanResponse> responses(n);
  BatchStats stats;
  stats.requests = n;
  if (n == 0) {
    if (options.stats) *options.stats = stats;
    return responses;
  }

  // -- Stage 1: canonicalize. One content key per request, a pure
  // function of the base-graph fingerprint and the request payload.
  std::vector<std::string> keys(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = CanonicalRequestKey(fingerprint_, requests[i]);
  }

  // -- Stage 2: dedup. The first occurrence of a key is the
  // representative; later occurrences share its response. Identical keys
  // imply identical payloads, so sharing is bit-identical to re-solving.
  std::vector<size_t> rep(n);
  std::unordered_map<std::string_view, size_t> first;
  first.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    auto [it, inserted] = first.try_emplace(keys[i], i);
    rep[i] = it->second;
    if (!inserted) ++stats.dedup_shared;
  }

  // -- Stage 3: cache probe (representatives only). Hits are final
  // immediately; misses become solve units.
  struct Unit {
    size_t index = 0;        // the representative's input position
    std::optional<Rng> rng;  // stream already advanced past sampling
    size_t group = 0;        // repository group (valid unless failed)
    bool failed = false;     // resolution failed; status already recorded
    const CancellationToken* cancel = nullptr;  // effective deadline/cancel
  };
  std::vector<char> done(n, 0);  // representative slots that are final
  std::vector<Unit> units;
  for (size_t i = 0; i < n; ++i) {
    if (rep[i] != i) continue;
    if (options.cache && options.cache->Lookup(keys[i], &responses[i])) {
      responses[i].from_cache = true;
      done[i] = 1;
      ++stats.cache_hits;
      continue;
    }
    Unit unit;
    unit.index = i;
    units.push_back(std::move(unit));
  }
  stats.solved = units.size();

  // Deadline arming: one token per deadline-carrying unit, owned here for
  // the pipeline's lifetime (deque: emplace_back never moves tokens, whose
  // address is their identity). The batch clock starts now, so cache hits
  // above never consumed any of the budget.
  const bool batch_deadline = options.batch_deadline_ms > 0;
  CancellationToken::Clock::time_point batch_by{};
  if (batch_deadline) {
    batch_by = CancellationToken::Clock::now() +
               std::chrono::milliseconds(options.batch_deadline_ms);
  }
  std::deque<CancellationToken> deadline_tokens;
  for (Unit& unit : units) {
    const PlanRequest& request = requests[unit.index];
    if (request.deadline_ms <= 0 && !batch_deadline &&
        request.cancel == nullptr) {
      continue;  // unarmed: keep the null fast path
    }
    unit.cancel = ArmRequestToken(request, batch_deadline, batch_by,
                                  deadline_tokens.emplace_back());
  }

  // -- Stage 4: resolve targets and group by instance. Sampling draws
  // come from the request's own stream exactly as RunOne draws them, and
  // the advanced stream is kept for the solve stage. Units with the same
  // resolved (targets, motif) land in one repository group and will share
  // a single TppInstance + IncidenceIndex build.
  int max_workers =
      options.max_workers > 0 ? options.max_workers : GlobalThreadCount();
  InstanceRepository local_repository(&base_);
  // An external repository (options.repository) carries prototype engines
  // across batches; its counters are cumulative, so stats report the
  // deltas this run produced.
  InstanceRepository& repository = options.repository != nullptr
                                       ? *options.repository
                                       : local_repository;
  const size_t builds_before = repository.NumBuilds();
  const size_t snapshot_hits_before = repository.NumSnapshotHits();
  const size_t snapshot_stores_before = repository.NumSnapshotStores();
  // Store health counters are cumulative on the store; report this run's
  // deltas (retries absorbed, writes lost, degradations) alongside.
  store::WarmStore::Stats store_before;
  if (options.store != nullptr) store_before = options.store->stats();
  // A cold group's one-time index build parallelizes over the same pool
  // budget the solve stage gets; nesting inside a pool worker is safe
  // (the building worker drains its own ParallelFor chunks).
  repository.set_build_threads(max_workers);
  if (options.store != nullptr) {
    repository.set_store(options.store, fingerprint_);
  }
  for (Unit& unit : units) {
    const PlanRequest& request = requests[unit.index];
    PlanResponse& response = responses[unit.index];
    unit.rng.emplace(RequestRng(request.seed));
    if (request.targets.empty()) {
      Result<std::vector<Edge>> sampled =
          core::SampleTargets(base_, request.sample, *unit.rng);
      if (!sampled.ok()) {
        response.status = sampled.status();
        unit.failed = true;
        continue;
      }
      response.targets = std::move(*sampled);
    } else {
      response.targets = request.targets;
    }
    unit.group = repository.Intern(response.targets, request.motif);
  }
  // The batch-local repository dies with this run, so a group only one
  // unit uses hands that unit its prototype rather than a clone of it.
  std::vector<size_t> local_uses;
  if (options.repository == nullptr) {
    local_uses.assign(repository.NumGroups(), 0);
    for (const Unit& unit : units) {
      if (!unit.failed) ++local_uses[unit.group];
    }
  }

  // -- Stages 5-7: build-once, solve, serialize, cache-fill. Units are
  // claimed dynamically by up to max_workers workers. Mirroring
  // ThreadPool::ParallelFor, the calling thread always participates, so
  // progress never depends on a free pool thread; between its own units
  // (and while waiting at the end) it also delivers the completed
  // in-order prefix to the sink.
  std::mutex mu;
  std::condition_variable cv;
  int helpers_left = 0;  // guarded by mu
  std::atomic<size_t> next{0};

  auto run_unit = [&](Unit& unit) {
    WallTimer timer;
    const PlanRequest& request = requests[unit.index];
    PlanResponse& response = responses[unit.index];
    if (!unit.failed) {
      // Stage-boundary poll before the build/solve stage; the solver
      // polls at its own round boundaries from here on. An expired unit
      // fails in place — the rest of the batch proceeds.
      response.status = PollCancellation(unit.cancel, "pipeline:solve");
    }
    if (!unit.failed && response.status.ok()) {
      Result<IndexedEngine> engine =
          !local_uses.empty() && local_uses[unit.group] == 1
              ? repository.TakeEngine(unit.group, unit.cancel)
              : repository.AcquireEngine(unit.group, unit.cancel);
      if (!engine.ok()) {
        response.status = engine.status();
      } else {
        SolveWithEngine(request, repository.instance(unit.group), *engine,
                        *unit.rng, unit.cancel, &response);
      }
      if (response.status.ok()) response.seconds = timer.Seconds();
    }
    // Failed responses are memoized too: deterministic inputs fail
    // deterministically, so a cached failure equals a recomputed one.
    if (options.cache) options.cache->Insert(keys[unit.index], response);
  };
  // -- Stage 8 (interleaved): deliver in input order. `delivered` is only
  // touched by the calling thread; a done flag observed under the mutex
  // happens-after the worker's writes to that response slot, and final
  // slots are never written again, so the copy/sink below runs unlocked.
  size_t delivered = 0;
  auto deliver_ready = [&] {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (delivered >= n || !done[rep[delivered]]) return;
      }
      size_t i = delivered++;
      if (rep[i] != i) responses[i] = responses[rep[i]];
      if (sink) (*sink)(i, responses[i]);
    }
  };
  // `deliver` is true only on the calling thread: it flushes the ready
  // prefix between its own units, so a 1-worker run streams
  // solve-one-deliver-one and a parallel run streams at request
  // granularity.
  auto claim_units = [&](bool deliver) {
    for (;;) {
      if (deliver) deliver_ready();
      size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= units.size()) break;
      run_unit(units[k]);
      {
        // Notify under the lock: the caller destroys cv right after its
        // exit predicate holds, so a notify outside the critical section
        // could touch a dead condition variable.
        std::lock_guard<std::mutex> lock(mu);
        done[units[k].index] = 1;
        cv.notify_all();
      }
    }
  };

  int helpers = 0;
  if (units.size() > 1 && max_workers > 1) {
    helpers = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(max_workers - 1), units.size() - 1));
  }
  if (helpers > 0) {
    helpers_left = helpers;
    ThreadPool& pool = GlobalThreadPool();
    pool.EnsureThreads(helpers);
    for (int h = 0; h < helpers; ++h) {
      // Helpers capture the local pipeline state by reference; the final
      // wait below does not return until every helper task has finished,
      // so nothing of this frame escapes the call.
      pool.Run([&] {
        claim_units(/*deliver=*/false);
        // Notify under the lock (see claim_units): after the caller sees
        // helpers_left == 0 this frame — cv included — may be gone.
        std::lock_guard<std::mutex> lock(mu);
        --helpers_left;
        cv.notify_all();
      });
    }
  }

  claim_units(/*deliver=*/true);  // the caller is always worker 0
  for (;;) {
    deliver_ready();
    std::unique_lock<std::mutex> lock(mu);
    if (delivered == n && helpers_left == 0) break;
    cv.wait(lock, [&] {
      return helpers_left == 0 ||
             (delivered < n && done[rep[delivered]]);
    });
  }

  stats.instance_groups = repository.NumGroups();
  stats.instance_builds = repository.NumBuilds() - builds_before;
  stats.snapshot_hits = repository.NumSnapshotHits() - snapshot_hits_before;
  stats.snapshot_stores =
      repository.NumSnapshotStores() - snapshot_stores_before;
  if (options.store != nullptr) {
    store::WarmStore::Stats store_now = options.store->stats();
    stats.store_retries = store_now.io_retries - store_before.io_retries;
    stats.store_write_failures =
        store_now.write_failures - store_before.write_failures;
    stats.store_degradations =
        store_now.degradations() - store_before.degradations();
  }
  for (const PlanResponse& response : responses) {
    if (response.status.code() == StatusCode::kDeadlineExceeded) {
      ++stats.deadline_exceeded;
    }
  }
  if (options.stats) *options.stats = stats;
  return responses;
}

std::vector<PlanResponse> PlanService::RunBatch(
    std::span<const PlanRequest> requests, int max_workers) const {
  BatchOptions options;
  options.max_workers = max_workers;
  return RunPipeline(requests, options, nullptr);
}

std::vector<PlanResponse> PlanService::RunBatch(
    std::span<const PlanRequest> requests,
    const BatchOptions& options) const {
  return RunPipeline(requests, options, nullptr);
}

void PlanService::RunBatch(std::span<const PlanRequest> requests,
                           const BatchOptions& options,
                           const ResponseSink& sink) const {
  RunPipeline(requests, options, &sink);
}

Result<EditSummary> PlanService::ApplyEdit(const graph::GraphDelta& delta,
                                           PlanCache* cache,
                                           InstanceRepository* repository) {
  // Serving-state guard: an edit that lands while a batch is solving
  // would mutate the base graph under live readers. Refuse up front —
  // nothing has changed when this returns — and let the caller sequence
  // at its own drain point (the plan server's epoch barrier does exactly
  // that). The check is advisory-atomic, not a lock: RunBatch entered
  // after the check races as before, but the documented contract already
  // forbids that interleaving; the guard catches the accidental case.
  if (active_runs_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        "ApplyEdit while a RunBatch/RunOne is in flight; drain the batch "
        "before editing");
  }
  EditSummary summary;
  summary.old_fingerprint = fingerprint_;
  summary.inserted = delta.inserted.size();
  summary.removed = delta.removed.size();
  // Affected node set on the PRE-edit graph: every endpoint of an edited
  // edge plus its neighbors. Every motif instance the edit creates or
  // destroys anchors a target endpoint in this set (the delta-
  // neighborhood rule; see motif/index_repair.cc), so cached plans whose
  // targets avoid it survive the edit byte-identically. Computed before
  // the delta lands because removal-killed instances anchor in PRE-edit
  // neighborhoods; inserted edges only ADD the opposite endpoint to a
  // neighborhood, and both endpoints are in the set anyway.
  std::vector<graph::NodeId> affected;
  auto absorb = [&](const Edge& e) {
    affected.push_back(e.u);
    affected.push_back(e.v);
    if (e.u < base_.NumNodes()) {
      for (graph::NodeId w : base_.Neighbors(e.u)) affected.push_back(w);
    }
    if (e.v < base_.NumNodes()) {
      for (graph::NodeId w : base_.Neighbors(e.v)) affected.push_back(w);
    }
  };
  for (const Edge& e : delta.inserted) absorb(e);
  for (const Edge& e : delta.removed) absorb(e);
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  TPP_RETURN_IF_ERROR(base_.ApplyDelta(delta));
  fingerprint_ =
      graph::UpdateFingerprint(fingerprint_, delta.inserted, delta.removed);
  summary.new_fingerprint = fingerprint_;
  if (cache != nullptr) {
    PlanCache::EditOutcome outcome = cache->InvalidateForEdit(
        summary.old_fingerprint, summary.new_fingerprint, affected);
    summary.cache_rekeyed = outcome.rekeyed;
    summary.cache_invalidated = outcome.invalidated;
  }
  if (repository != nullptr) {
    const size_t repairs_before = repository->NumEditRepairs();
    const size_t resets_before = repository->NumEditResets();
    repository->ApplyEdit(delta, fingerprint_);
    summary.groups_repaired = repository->NumEditRepairs() - repairs_before;
    summary.groups_reset = repository->NumEditResets() - resets_before;
  }
  return summary;
}

Result<std::vector<Edge>> ParseLinkList(std::string_view value) {
  std::vector<Edge> links;
  std::unordered_set<graph::EdgeKey> seen;
  for (std::string_view pair : SplitNonEmpty(value, ";")) {
    // Exactly one '-' with a non-empty id on each side; a lenient split
    // would silently accept "-1-2" or "1--2" as "1-2".
    size_t dash = pair.find('-');
    if (dash == 0 || dash == std::string_view::npos ||
        dash + 1 == pair.size() ||
        pair.find('-', dash + 1) != std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("link '%s' is not of the form u-v",
                    std::string(pair).c_str()));
    }
    // The strict split above means neither operand can carry a sign, so
    // the parsed values are non-negative by construction.
    TPP_ASSIGN_OR_RETURN(int64_t u, ParseInt64(pair.substr(0, dash)));
    TPP_ASSIGN_OR_RETURN(int64_t v, ParseInt64(pair.substr(dash + 1)));
    constexpr int64_t kMaxNodeId = std::numeric_limits<graph::NodeId>::max();
    if (u > kMaxNodeId || v > kMaxNodeId) {
      return Status::InvalidArgument(
          StrFormat("node id out of range in '%s'",
                    std::string(pair).c_str()));
    }
    if (u == v) {
      return Status::InvalidArgument(
          StrFormat("link '%s' is a self-loop", std::string(pair).c_str()));
    }
    Edge link(static_cast<graph::NodeId>(u), static_cast<graph::NodeId>(v));
    if (!seen.insert(link.Key()).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate link '%s'", std::string(pair).c_str()));
    }
    links.push_back(link);
  }
  return links;
}

namespace {

// Applies one key=value token of a request line to `request`. Errors name
// the key but not the line; ParsePlanRequestLine adds the line prefix, so
// every key reports failures the same way.
Status ApplyRequestKey(std::string_view key, std::string_view value,
                       PlanRequest& request) {
  if (key == "name") {
    // Names become `<plan-dir>/<name>.plan` paths; restrict them so a
    // request file cannot write outside the plan directory.
    for (char c : value) {
      bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
      if (!ok) {
        return Status::InvalidArgument(
            StrFormat("name '%s' has characters outside [A-Za-z0-9._-]",
                      std::string(value).c_str()));
      }
    }
    if (value == "." || value == "..") {
      return Status::InvalidArgument(
          StrFormat("name '%s' is reserved", std::string(value).c_str()));
    }
    request.name = std::string(value);
  } else if (key == "algorithm") {
    request.spec.algorithm = std::string(value);
  } else if (key == "motif") {
    TPP_ASSIGN_OR_RETURN(request.motif, motif::ParseMotifKind(value));
  } else if (key == "sample") {
    TPP_ASSIGN_OR_RETURN(int64_t n, ParseInt64(value));
    if (n < 0) {
      return Status::InvalidArgument(
          StrFormat("sample=%lld is negative", static_cast<long long>(n)));
    }
    request.sample = static_cast<size_t>(n);
  } else if (key == "links") {
    TPP_ASSIGN_OR_RETURN(request.targets, ParseLinkList(value));
  } else if (key == "seed") {
    TPP_ASSIGN_OR_RETURN(int64_t seed, ParseInt64(value));
    request.seed = static_cast<uint64_t>(seed);
  } else if (key == "budget") {
    if (value == "full") {
      request.spec.budget = SolverSpec::kFullProtection;
    } else {
      TPP_ASSIGN_OR_RETURN(int64_t budget, ParseInt64(value));
      request.spec.budget = core::BudgetFromFlag(budget);
    }
  } else if (key == "scope") {
    TPP_ASSIGN_OR_RETURN(request.spec.scope, core::ParseCandidateScope(value));
  } else if (key == "deadline_ms") {
    // Wall-clock knob: excluded from the cache key (a deadline changes
    // whether a run finishes, not what it produces).
    TPP_ASSIGN_OR_RETURN(request.deadline_ms, ParseInt64(value));
  } else if (key == "released") {
    // Carrying the released graph costs O(graph) memory per response;
    // batches opt in per request.
    if (value == "1" || value == "true") {
      request.want_released = true;
    } else if (value == "0" || value == "false") {
      request.want_released = false;
    } else {
      return Status::InvalidArgument(
          StrFormat("released '%s' (want 0|1|true|false)",
                    std::string(value).c_str()));
    }
  } else {
    return Status::InvalidArgument(
        StrFormat("unknown key '%s'", std::string(key).c_str()));
  }
  return Status::Ok();
}

}  // namespace

Result<PlanRequest> ParsePlanRequestLine(std::string_view text, size_t line,
                                         size_t index) {
  PlanRequest request;
  request.name = StrFormat("r%zu", index);
  for (std::string_view token : SplitNonEmpty(text, " \t")) {
    size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: token '%s' is not key=value", line,
                    std::string(token).c_str()));
    }
    Status applied =
        ApplyRequestKey(token.substr(0, eq), token.substr(eq + 1), request);
    if (!applied.ok()) {
      return Status::InvalidArgument(
          StrFormat("line %zu: %s", line, applied.message().c_str()));
    }
  }
  // Validate the whole spec early: a typo'd solver name should fail at
  // parse time, not mid-batch.
  Status valid = core::ValidateSolverSpec(request.spec);
  if (!valid.ok()) {
    return Status::InvalidArgument(
        StrFormat("line %zu: %s", line, valid.message().c_str()));
  }
  return request;
}

Result<std::vector<PlanRequest>> ParsePlanRequests(std::istream& stream) {
  std::vector<PlanRequest> requests;
  size_t line_number = 0;
  std::string line;
  while (std::getline(stream, line)) {
    ++line_number;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    TPP_ASSIGN_OR_RETURN(
        PlanRequest request,
        ParsePlanRequestLine(stripped, line_number, requests.size()));
    requests.push_back(std::move(request));
  }
  return requests;
}

Result<std::vector<PlanRequest>> ParsePlanRequests(const std::string& text) {
  std::istringstream stream(text);
  return ParsePlanRequests(stream);
}

Result<std::vector<PlanRequest>> LoadPlanRequests(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IoError("cannot open " + path);
  return ParsePlanRequests(f);
}

Result<graph::GraphDelta> ParseEditLine(std::string_view text, size_t line) {
  graph::GraphDelta delta;
  bool first = true;
  for (std::string_view token : SplitNonEmpty(text, " \t")) {
    if (first) {
      first = false;
      if (token != "edit") {
        return Status::InvalidArgument(
            StrFormat("line %zu: not an edit directive", line));
      }
      continue;
    }
    size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StrFormat("line %zu: token '%s' is not key=value", line,
                    std::string(token).c_str()));
    }
    std::string_view key = token.substr(0, eq);
    std::string_view value = token.substr(eq + 1);
    std::vector<Edge>* out = nullptr;
    if (key == "insert") {
      out = &delta.inserted;
    } else if (key == "remove") {
      out = &delta.removed;
    } else {
      return Status::InvalidArgument(
          StrFormat("line %zu: unknown edit key '%s'", line,
                    std::string(key).c_str()));
    }
    if (!out->empty()) {
      return Status::InvalidArgument(
          StrFormat("line %zu: duplicate '%s=' token", line,
                    std::string(key).c_str()));
    }
    Result<std::vector<Edge>> edges = ParseLinkList(value);
    if (!edges.ok()) {
      return Status::InvalidArgument(StrFormat(
          "line %zu: %s", line, edges.status().ToString().c_str()));
    }
    *out = std::move(*edges);
  }
  if (delta.empty()) {
    return Status::InvalidArgument(StrFormat(
        "line %zu: edit needs at least one of insert=/remove=", line));
  }
  // Normalize to the GraphDelta contract: canonical endpoints, each list
  // key-sorted (ParseLinkList already rejected within-list duplicates),
  // lists disjoint.
  auto canonicalize = [](std::vector<Edge>* edges) {
    for (Edge& e : *edges) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    std::sort(edges->begin(), edges->end(),
              [](const Edge& a, const Edge& b) { return a.Key() < b.Key(); });
  };
  canonicalize(&delta.inserted);
  canonicalize(&delta.removed);
  for (const Edge& e : delta.inserted) {
    if (std::binary_search(delta.removed.begin(), delta.removed.end(), e,
                           [](const Edge& a, const Edge& b) {
                             return a.Key() < b.Key();
                           })) {
      return Status::InvalidArgument(
          StrFormat("line %zu: edge %u-%u both inserted and removed", line,
                    e.u, e.v));
    }
  }
  return delta;
}

Result<std::vector<PlanScriptStep>> ParsePlanScript(std::istream& stream) {
  std::vector<PlanScriptStep> steps;
  PlanScriptStep current;
  size_t line_number = 0;
  size_t request_index = 0;
  std::string line;
  while (std::getline(stream, line)) {
    ++line_number;
    std::string_view stripped = StripWhitespace(line);
    if (stripped.empty() || stripped.front() == '#') continue;
    if (stripped == "edit" || stripped.rfind("edit ", 0) == 0 ||
        stripped.rfind("edit\t", 0) == 0) {
      TPP_ASSIGN_OR_RETURN(current.edit, ParseEditLine(stripped, line_number));
      steps.push_back(std::move(current));
      current = PlanScriptStep{};
      continue;
    }
    TPP_ASSIGN_OR_RETURN(
        PlanRequest request,
        ParsePlanRequestLine(stripped, line_number, request_index));
    ++request_index;
    current.requests.push_back(std::move(request));
  }
  // A trailing edit line already pushed its step; only keep the tail step
  // when it holds requests (or the script is empty — one empty step).
  if (!current.requests.empty() || steps.empty()) {
    steps.push_back(std::move(current));
  }
  return steps;
}

Result<std::vector<PlanScriptStep>> ParsePlanScript(const std::string& text) {
  std::istringstream stream(text);
  return ParsePlanScript(stream);
}

Result<std::vector<PlanScriptStep>> LoadPlanScript(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IoError("cannot open " + path);
  return ParsePlanScript(f);
}

}  // namespace tpp::service
