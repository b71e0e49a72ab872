#include "trace.h"

#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>
#include <utility>

#include "client.h"
#include "common/strings.h"
#include "core/indexed_engine.h"
#include "core/report.h"
#include "core/solver.h"
#include "graph/fingerprint.h"
#include "graph/io.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/server/server.h"
#include "spans.h"

namespace servebench {

using tpp::Result;
using tpp::Status;
using tpp::StrFormat;
namespace service = tpp::service;

namespace {

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, int64_t parent,
             uint64_t request)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, parent, request) : kNoParent) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_;
};

template <typename Fn>
double TimeMs(Fn&& fn) {
  const double start = NowSeconds();
  fn();
  return 1e3 * (NowSeconds() - start);
}

std::string LabelOf(const std::string& line) {
  const size_t at = line.find("name=");
  if (at == std::string::npos) return "";
  const size_t begin = at + 5;
  return line.substr(begin, line.find(' ', begin) - begin);
}

struct Replay {
  double wall_s = 0;
  double probe_s = 0;  // direct build calls outside the request path
  size_t mismatched = 0;
  std::vector<std::string> first_mismatches;
  // acquire span -> probe root span, for acquisitions that built.
  std::unordered_map<int64_t, int64_t> built_by;
  std::vector<double> instances, interned_edges, gain_evals, protectors;
  size_t rekeyed = 0, invalidated = 0, repaired = 0, reset = 0;
  service::PlanCache::Stats cache;
  size_t builds = 0, acquisitions = 0, groups = 0;
};

// Runs every line through the rebuilt request path on fresh state. With a
// recorder, records spans and probes each first build.
Replay RunReplay(const tpp::graph::Graph& fixture,
                 const std::vector<ScriptLine>& lines, int threads,
                 size_t cache_size, SpanRecorder* rec) {
  Replay out;
  service::PlanService plan_service{tpp::graph::Graph(fixture)};
  service::PlanCache cache(cache_size);
  service::InstanceRepository repository(&plan_service.base());
  repository.set_build_threads(threads);
  const double start = NowSeconds();
  for (size_t i = 0; i < lines.size(); ++i) {
    const ScriptLine& line = lines[i];
    std::string reply;
    if (line.edit) {
      ScopedSpan root(rec, "edit", kNoParent, i);
      Result<tpp::graph::GraphDelta> delta = service::ParseEditLine(line.text, i + 1);
      Result<service::EditSummary> summary = Status::Internal("not applied");
      if (!delta.ok()) {
        summary = delta.status();
      } else {
        ScopedSpan apply(rec, "service.apply_edit", root.id(), i);
        summary = plan_service.ApplyEdit(*delta, &cache, nullptr);
        if (summary.ok()) {
          const size_t repaired = repository.NumEditRepairs();
          const size_t reset = repository.NumEditResets();
          {
            ScopedSpan repair(rec, "motif.repair", apply.id(), i);
            repository.ApplyEdit(*delta, summary->new_fingerprint);
          }
          out.repaired += repository.NumEditRepairs() - repaired;
          out.reset += repository.NumEditResets() - reset;
          out.rekeyed += summary->cache_rekeyed;
          out.invalidated += summary->cache_invalidated;
        }
      }
      reply = summary.ok()
                  ? StrFormat("edit ok inserted=%zu removed=%zu fingerprint=%016llx",
                              summary->inserted, summary->removed,
                              static_cast<unsigned long long>(summary->new_fingerprint))
                  : StrFormat("edit error %s", summary.status().ToString().c_str());
    } else {
      int64_t acquire_span = kNoParent;
      bool built = false;
      service::PlanResponse response;
      service::PlanRequest request;
      {
        ScopedSpan root(rec, "request", kNoParent, i);
        Result<service::PlanRequest> parsed = [&] {
          ScopedSpan s(rec, "service.parse", root.id(), i);
          return service::ParsePlanRequestLine(line.text, i + 1, i);
        }();
        if (!parsed.ok()) {
          reply = StrFormat("r%zu error %s", i, parsed.status().ToString().c_str());
        } else {
          request = std::move(*parsed);
          std::string key;
          bool hit = false;
          {
            ScopedSpan s(rec, "service.cache_probe", root.id(), i);
            key = service::CanonicalRequestKey(plan_service.fingerprint(), request);
            hit = cache.Lookup(key, &response);
          }
          if (!hit) {
            response.targets = request.targets;
            Result<tpp::core::IndexedEngine> engine = Status::Internal("not acquired");
            size_t group = 0;
            {
              ScopedSpan s(rec, "service.acquire", root.id(), i);
              acquire_span = s.id();
              const size_t builds = repository.NumBuilds();
              group = repository.Intern(response.targets, request.motif);
              engine = repository.AcquireEngine(group);
              built = repository.NumBuilds() > builds;
            }
            if (!engine.ok()) {
              response.status = engine.status();
            } else {
              tpp::Rng rng = service::RequestRng(request.seed);
              Result<tpp::core::ProtectionResult> result = [&] {
                ScopedSpan s(rec, "core.solve", root.id(), i);
                return tpp::core::RunSolver(request.spec, *engine,
                                            repository.instance(group), rng);
              }();
              if (!result.ok()) {
                response.status = result.status();
              } else {
                response.result = std::move(*result);
                ScopedSpan s(rec, "core.serialize", root.id(), i);
                response.plan_text = tpp::core::SerializeDeletionPlan(
                    repository.instance(group), response.result);
              }
              if (rec != nullptr && response.status.ok()) {
                out.gain_evals.push_back(
                    static_cast<double>(response.result.gain_evaluations));
                out.protectors.push_back(
                    static_cast<double>(response.result.protectors.size()));
              }
              // Destroying the clone frees its graph copy.
              ScopedSpan s(rec, "core.release", root.id(), i);
              engine = Status::Internal("released");
            }
            ScopedSpan s(rec, "service.cache_fill", root.id(), i);
            cache.Insert(key, response);
          }
          ScopedSpan s(rec, "server.format", root.id(), i);
          reply = service::server::FormatResponseLine(request, response);
        }
      }
      if (rec != nullptr && built) {
        // Direct calls outside the request: split the build that
        // AcquireEngine performed out of sight.
        const double probe_start = NowSeconds();
        ScopedSpan probe(rec, "probe", kNoParent, i);
        out.built_by[acquire_span] = probe.id();
        Result<tpp::core::TppInstance> instance = [&] {
          ScopedSpan s(rec, "core.make_instance", probe.id(), i);
          return tpp::core::MakeInstance(plan_service.base(), response.targets,
                                         request.motif);
        }();
        if (instance.ok()) {
          tpp::motif::IncidenceIndex::BuildOptions options;
          options.threads = threads;
          tpp::motif::IncidenceIndex::BuildStats stats;
          const double create_start = rec->NowMs();
          Result<tpp::core::IndexedEngine> engine =
              tpp::core::IndexedEngine::Create(*instance, options, &stats);
          const int64_t create =
              rec->Add("core.create", create_start, rec->NowMs(), probe.id(), i);
          // Create reports its three build stages as durations; they are
          // laid end to end from its start, so its self time is the rest.
          double at = create_start;
          for (auto [name, seconds] :
               {std::pair{"motif.enumerate", stats.enumerate_seconds},
                std::pair{"motif.intern", stats.intern_seconds},
                std::pair{"motif.csr", stats.csr_seconds}}) {
            rec->Add(name, at, at + 1e3 * seconds, create, i);
            at += 1e3 * seconds;
          }
          out.instances.push_back(static_cast<double>(stats.instances));
          out.interned_edges.push_back(static_cast<double>(stats.interned_edges));
          if (engine.ok()) {
            ScopedSpan s(rec, "core.clone", probe.id(), i);
            tpp::core::IndexedEngine copy = engine->Clone();
          }
        }
        out.probe_s += NowSeconds() - probe_start;
      }
    }
    if (reply != line.expected) {
      ++out.mismatched;
      if (out.first_mismatches.size() < 3) {
        out.first_mismatches.push_back("got: " + reply + " | want: " + line.expected);
      }
    }
  }
  out.wall_s = NowSeconds() - start;
  out.cache = cache.stats();
  out.builds = repository.NumBuilds();
  out.acquisitions = repository.NumAcquisitions();
  out.groups = repository.NumGroups();
  return out;
}

struct ServerPhase {
  std::vector<double> queue_wait_ms;
  std::vector<double> batch_sizes;
  ClientReport report;
};

// Drives the warm, open and closed phases through an in-process PlanServer,
// observing pickups through its public hooks.
Result<ServerPhase> RunServerPhase(const WorkloadSpec& spec,
                                   const tpp::graph::Graph& fixture,
                                   const std::vector<ScriptLine>& served_lines,
                                   int threads, const ServerFlags& flags,
                                   const std::string& socket_path) {
  service::PlanService plan_service{tpp::graph::Graph(fixture)};
  service::PlanCache cache(flags.cache_size);
  service::InstanceRepository repository(&plan_service.base());
  std::vector<std::pair<std::string, double>> pickups;
  ServerPhase out;
  size_t batch = 0;  // solve-loop thread only until Serve returns
  service::server::ServerOptions options;
  options.socket_path = socket_path;
  options.max_workers = threads;
  options.admission.max_queue_depth = flags.queue_depth;
  options.admission.max_per_client = flags.per_client;
  options.cache = &cache;
  options.repository = &repository;
  options.before_pickup = [&] {
    if (batch > 0) out.batch_sizes.push_back(static_cast<double>(batch));
    batch = 0;
  };
  options.on_pickup = [&](const service::server::QueuedItem& item) {
    pickups.emplace_back(LabelOf(item.line), NowSeconds());
    ++batch;
  };
  service::server::PlanServer server(&plan_service, options);
  Status served = Status::Ok();
  std::thread solve_loop([&] { served = server.Serve(); });
  ClientRun run;
  Status client = RunClient(socket_path, spec.connections, spec.window,
                            served_lines, 120, &run);
  server.RequestDrain();
  solve_loop.join();
  if (batch > 0) out.batch_sizes.push_back(static_cast<double>(batch));
  TPP_RETURN_IF_ERROR(served);
  TPP_RETURN_IF_ERROR(client);
  if (run.timed_out) return Status::DeadlineExceeded("traced server phase timed out");
  out.report = Analyze(served_lines, run, spec.connections);
  std::unordered_map<std::string, size_t> index;
  for (size_t i = 0; i < served_lines.size(); ++i) {
    if (served_lines[i].phase == Phase::kOpen && !served_lines[i].edit) {
      index[served_lines[i].label] = i;
    }
  }
  for (const auto& [label, at] : pickups) {
    auto it = index.find(label);
    if (it != index.end() && run.send_s[it->second] > 0) {
      out.queue_wait_ms.push_back(1e3 * (at - run.send_s[it->second]));
    }
  }
  return out;
}

}  // namespace

Result<TraceResult> RunTrace(const WorkloadSpec& spec, const std::string& edge_path,
                             const std::vector<ScriptLine>& lines, int threads,
                             const ServerFlags& flags,
                             const std::string& socket_path,
                             const std::string& spans_path) {
  TraceResult result;
  result.lines = lines.size();
  std::vector<Metric>& m = result.metrics;

  // Graph layer: what `tpp serve` does before it listens.
  std::vector<double> load_ms, fingerprint_ms;
  tpp::graph::Graph fixture;
  for (int rep = 0; rep < 3; ++rep) {
    Result<tpp::graph::Graph> loaded = Status::Internal("not loaded");
    load_ms.push_back(TimeMs([&] { loaded = tpp::graph::LoadEdgeList(edge_path); }));
    TPP_RETURN_IF_ERROR(loaded.status());
    uint64_t fp = 0;
    fingerprint_ms.push_back(TimeMs([&] { fp = tpp::graph::Fingerprint(*loaded); }));
    if (fp == 0) return Status::Internal("zero fingerprint");
    fixture = std::move(*loaded);
  }

  std::vector<ScriptLine> served_lines;
  for (const ScriptLine& line : lines) {
    // Open and closed segments alternate, and closed ones carry edits too.
    if (line.phase != Phase::kProbe) {
      served_lines.push_back(line);
    }
  }
  TPP_ASSIGN_OR_RETURN(ServerPhase server,
                       RunServerPhase(spec, fixture, served_lines, threads, flags,
                                      socket_path));
  result.mismatched += server.report.not_ok;
  for (const std::string& s : server.report.first_mismatches) {
    result.first_mismatches.push_back("server phase: " + s);
  }

  // Untraced passes on either side of the traced one, so drift in the
  // box's speed does not read as tracing overhead.
  Replay before = RunReplay(fixture, lines, threads, flags.cache_size, nullptr);
  SpanRecorder rec;
  Replay traced = RunReplay(fixture, lines, threads, flags.cache_size, &rec);
  Replay after = RunReplay(fixture, lines, threads, flags.cache_size, nullptr);
  result.mismatched += before.mismatched + traced.mismatched + after.mismatched;
  for (const auto* replay : {&before, &traced, &after}) {
    for (const std::string& s : replay->first_mismatches) {
      result.first_mismatches.push_back("replay: " + s);
    }
  }

  // Per-call durations and self times by span name.
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> self = SelfTimesMs(spans);
  std::map<std::string, std::vector<double>> dur, self_by;
  for (size_t i = 0; i < spans.size(); ++i) {
    dur[spans[i].name].push_back(spans[i].duration_ms());
    self_by[spans[i].name].push_back(self[i]);
  }

  // Self time of the requests by layer, with each acquisition split as the
  // file comment describes.
  std::vector<int64_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent == kNoParent ? static_cast<int64_t>(i) : root[spans[i].parent];
  }
  std::map<std::string, double> layer_ms;
  std::unordered_map<int64_t, std::vector<size_t>> probe_children;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent && spans[spans[i].parent].name == "probe") {
      probe_children[spans[i].parent].push_back(i);
    }
  }
  double total_ms = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[root[i]].name != "request") continue;
    total_ms += self[i];
    if (spans[i].name != "service.acquire") {
      layer_ms[spans[i].name] += self[i];
      continue;
    }
    auto probe = traced.built_by.find(static_cast<int64_t>(i));
    if (probe == traced.built_by.end()) {
      layer_ms["core.clone"] += self[i];
      continue;
    }
    // Components of the probe: its direct children, plus the create
    // span's own stage children, with core.create standing for its self
    // time (the engine's graph copy).
    std::vector<std::pair<std::string, double>> parts;
    for (size_t c : probe_children[probe->second]) {
      parts.emplace_back(spans[c].name == "core.create" ? "core.engine_copy" : spans[c].name,
                         spans[c].name == "core.create" ? self[c] : spans[c].duration_ms());
      if (spans[c].name == "core.create") {
        for (size_t g = c + 1; g < spans.size() && spans[g].parent == static_cast<int64_t>(c); ++g) {
          parts.emplace_back(spans[g].name, spans[g].duration_ms());
        }
      }
    }
    double parts_ms = 0;
    for (const auto& [name, ms] : parts) parts_ms += ms;
    const double scale = parts_ms > self[i] ? self[i] / parts_ms : 1.0;
    for (const auto& [name, ms] : parts) layer_ms[name] += ms * scale;
    layer_ms["service.acquire"] += self[i] - parts_ms * scale;
  }
  for (const auto& [name, ms] : layer_ms) {
    result.self_shares.push_back({name, total_ms > 0 ? ms / total_ms : 0, "frac"});
  }
  auto share = [&](std::initializer_list<const char*> names) {
    double ms = 0;
    for (const char* n : names) ms += layer_ms[n];
    return total_ms > 0 ? ms / total_ms : 0;
  };

  auto median = [&](const char* name) { return Median(dur[name]); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  const double hits = static_cast<double>(traced.cache.hits);
  m.push_back({"graph.load_ms", Median(load_ms), "ms"});
  m.push_back({"graph.fingerprint_ms", Median(fingerprint_ms), "ms"});
  m.push_back({"server.queue_wait_p50_ms", Median(server.queue_wait_ms), "ms"});
  m.push_back({"server.queue_wait_p90_ms",
               Percentile(server.queue_wait_ms, 90).value_or(-1), "ms"});
  m.push_back({"server.pickup_batch_mean", Mean(server.batch_sizes), "count"});
  m.push_back({"service.cache_hit_ratio",
               ratio(hits, hits + static_cast<double>(traced.cache.misses)), "frac"});
  m.push_back({"service.acquire_ms", median("service.acquire"), "ms"});
  m.push_back({"service.build_ratio",
               ratio(static_cast<double>(traced.builds),
                     static_cast<double>(traced.acquisitions)),
               "frac"});
  m.push_back({"service.groups", static_cast<double>(traced.groups), "count"});
  m.push_back({"service.apply_edit_ms", median("service.apply_edit"), "ms"});
  m.push_back({"service.edit_rekeyed_ratio",
               ratio(static_cast<double>(traced.rekeyed),
                     static_cast<double>(traced.rekeyed + traced.invalidated)),
               "frac"});
  m.push_back({"service.edit_groups_repaired", static_cast<double>(traced.repaired), "count"});
  m.push_back({"service.edit_groups_reset", static_cast<double>(traced.reset), "count"});
  m.push_back({"motif.repair_ms", median("motif.repair"), "ms"});
  m.push_back({"core.make_instance_ms", median("core.make_instance"), "ms"});
  m.push_back({"core.engine_copy_ms", Median(self_by["core.create"]), "ms"});
  m.push_back({"core.clone_ms", median("core.clone"), "ms"});
  m.push_back({"core.release_ms", median("core.release"), "ms"});
  m.push_back({"motif.enumerate_ms", median("motif.enumerate"), "ms"});
  m.push_back({"motif.intern_ms", median("motif.intern"), "ms"});
  m.push_back({"motif.csr_ms", median("motif.csr"), "ms"});
  m.push_back({"motif.instances", Median(traced.instances), "count"});
  m.push_back({"motif.interned_edges", Median(traced.interned_edges), "count"});
  m.push_back({"core.solve_ms", median("core.solve"), "ms"});
  m.push_back({"core.gain_evals", Median(traced.gain_evals), "count"});
  m.push_back({"core.protectors", Median(traced.protectors), "count"});
  m.push_back({"core.serialize_ms", median("core.serialize"), "ms"});
  m.push_back({"loadgen.lag_p99_ms", Percentile(server.report.lag_ms, 99, 0).value_or(-1),
               "ms"});
  m.push_back({"trace.overhead_frac",
               (traced.wall_s - traced.probe_s) / (0.5 * (before.wall_s + after.wall_s)) - 1,
               "frac"});
  m.push_back({"trace.copy_self_frac",
               share({"core.make_instance", "core.engine_copy", "core.clone",
                      "core.release"}),
               "frac"});
  m.push_back({"trace.build_solve_self_frac",
               share({"motif.enumerate", "motif.intern", "motif.csr", "core.solve"}), "frac"});

  std::ofstream spans_out(spans_path);
  spans_out << rec.ToJsonLines();
  if (!spans_out) return Status::IoError("cannot write " + spans_path);
  return result;
}

}  // namespace servebench
