#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/rng.h"
#include "common/strings.h"
#include "graph/datasets.h"
#include "graph/fingerprint.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/server/server.h"
#include "stats.h"

namespace servebench {

using tpp::Result;
using tpp::Status;
using tpp::StrFormat;
using tpp::graph::Edge;
using tpp::graph::EdgeKey;
using tpp::graph::Graph;

namespace {

// The fixture graphs do not depend on the run seed: run-to-run differences
// come from the request streams alone.
constexpr uint64_t kFixtureSeed = 1;

// Fresh requests at the end of the warm-up phase.
constexpr size_t kWarmFresh = 64;

// Rates were measured at the parent commit against a one-thread server on
// a 4-vCPU x86-64 VM; the offered rate is about a quarter of the
// closed-loop throughput there, and the closed phase about three seconds
// of it at the default run length.
constexpr WorkloadSpec kWorkloads[] = {
    {.name = "point_hk1e5",
     .connections = 4,
     .window = 8,
     .offered_rps = 35,
     .hot_share = 0.25,
     .closed_per_s = 22,
     .probe_edits = 100},
    {.name = "heavy_arenas",
     .connections = 4,
     .window = 8,
     .offered_rps = 17,
     .closed_per_s = 12,
     .probe_edits = 3},
    {.name = "churn_dblp",
     .connections = 1,
     .window = 16,
     .offered_rps = 90,
     .hot_share = 0.5,
     .closed_per_s = 65,
     .edit_interval_s = 0.25,
     .edit_every = 40},
};

bool Is(const WorkloadSpec& spec, std::string_view name) {
  return std::string_view(spec.name) == name;
}

Result<Graph> MakeFixture(const WorkloadSpec& spec) {
  if (Is(spec, "point_hk1e5")) {
    tpp::Rng rng(kFixtureSeed);
    return tpp::graph::HolmeKim(100000, 4, 0.5, rng);
  }
  if (Is(spec, "heavy_arenas")) {
    return tpp::graph::MakeArenasEmailLike(kFixtureSeed);
  }
  return tpp::graph::MakeDblpLike(kFixtureSeed, 0.1);
}

std::string LinkList(const std::vector<Edge>& links) {
  std::string out;
  for (const Edge& e : links) {
    if (!out.empty()) out += ';';
    out += StrFormat("%u-%u", e.u, e.v);
  }
  return out;
}

// `k` distinct links drawn uniformly from `edges`.
std::vector<Edge> SampleLinks(const std::vector<Edge>& edges, size_t k,
                              SeededStream& stream) {
  std::vector<Edge> out;
  std::unordered_set<size_t> seen;
  while (out.size() < k) {
    const size_t i = stream.Index(edges.size());
    if (seen.insert(i).second) out.push_back(edges[i]);
  }
  return out;
}

// Draws valid edits against an evolving copy of the fixture: inserts are
// current non-edges, removes are current edges, and no edit ever touches
// a link some request names as a target, so no request or edit fails.
class EditGenerator {
 public:
  EditGenerator(Graph graph, std::unordered_set<EdgeKey> target_keys)
      : g_(std::move(graph)), target_keys_(std::move(target_keys)) {}

  std::string Next(SeededStream& stream, size_t inserts, size_t removes) {
    const size_t n = g_.NumNodes();
    std::vector<Edge> ins;
    std::vector<Edge> rem;
    std::unordered_set<EdgeKey> chosen;
    while (ins.size() < inserts) {
      const auto u = static_cast<tpp::graph::NodeId>(stream.Index(n));
      const auto v = static_cast<tpp::graph::NodeId>(stream.Index(n));
      if (u == v || g_.HasEdge(u, v)) continue;
      Edge e(std::min(u, v), std::max(u, v));
      if (chosen.insert(e.Key()).second) ins.push_back(e);
    }
    while (rem.size() < removes) {
      const auto u = static_cast<tpp::graph::NodeId>(stream.Index(n));
      if (g_.Degree(u) == 0) continue;
      const auto v = g_.Neighbors(u)[stream.Index(g_.Degree(u))];
      Edge e(std::min(u, v), std::max(u, v));
      if (target_keys_.count(e.Key()) != 0) continue;
      if (chosen.insert(e.Key()).second) rem.push_back(e);
    }
    std::string line = "edit insert=" + LinkList(ins) + " remove=" + LinkList(rem);
    Result<tpp::graph::GraphDelta> delta = tpp::service::ParseEditLine(line, 0);
    TPP_CHECK(delta.ok());
    TPP_CHECK(g_.ApplyDelta(*delta).ok());
    return line;
  }

 private:
  Graph g_;
  std::unordered_set<EdgeKey> target_keys_;
};

struct RequestDraw {
  std::vector<Edge> links;
  std::string params;  // the request's tokens other than name= and links=
};

std::string RequestLine(const std::string& label, const RequestDraw& draw) {
  return "name=" + label + " " + draw.params + " links=" + LinkList(draw.links);
}

// Draws one request of the workload. `pool` holds the popular target sets
// of the point and churn workloads; like the fixture it does not depend on
// the run seed, which only picks among the pooled sets. heavy_arenas draws
// fresh targets for every request.
//
// A pooled request is "hot" with the workload's hot share, else "fresh". A
// hot request
// repeats one of the warm-up's requests (a plan-cache hit unless an edit
// invalidated it); a fresh one carries a seed never used before (a cache
// miss served by cloning the built group). The hit share is therefore the
// same from the first timed request to the last.
class RequestGenerator {
 public:
  RequestGenerator(const WorkloadSpec& spec, const Graph& g)
      : point_(Is(spec, "point_hk1e5")),
        heavy_(Is(spec, "heavy_arenas")),
        hot_share_(spec.hot_share),
        edges_(g.Edges()) {
    SeededStream stream(tpp::SplitMix64(kFixtureSeed));
    if (point_) {
      // 1-3-link point requests; each pooled target set keeps one motif
      // and algorithm.
      static const char* kClasses[] = {"algorithm=sgb motif=Triangle",
                                       "algorithm=sgb motif=RecTri",
                                       "algorithm=ct-tbd motif=Rectangle"};
      for (size_t i = 0; i < 64; ++i) {
        pool_.push_back({SampleLinks(edges_, stream.Int(1, 3), stream),
                         kClasses[stream.Index(3)]});
      }
      algorithms_ = {""};
      zipf_.emplace(pool_.size(), 1.0);
    } else if (!heavy_) {
      // churn_dblp: 5-20-link target sets under every deterministic
      // algorithm, so edits can keep cached plans alive by rekeying them.
      static const char* kMotifs[] = {"motif=Triangle", "motif=Rectangle"};
      for (size_t i = 0; i < 16; ++i) {
        pool_.push_back({SampleLinks(edges_, stream.Int(5, 20), stream),
                         kMotifs[stream.Index(2)]});
      }
      algorithms_ = {" algorithm=sgb", " algorithm=ct-tbd", " algorithm=ct-dbd",
                     " algorithm=wt-tbd", " algorithm=wt-dbd"};
      zipf_.emplace(pool_.size(), 1.1);
    }
  }

  RequestDraw Next(SeededStream& stream) {
    if (heavy_) return Monster(stream);
    const RequestDraw& base = pool_[zipf_->Sample(stream)];
    const std::string& algorithm = algorithms_[stream.Index(algorithms_.size())];
    if (stream.Uniform01() < hot_share_) return {base.links, base.params + algorithm + kHot};
    const long long budget = point_ ? stream.Int(1, 4) : stream.Int(2, 8);
    return {base.links, base.params + algorithm +
                            StrFormat(" budget=%lld seed=%zu", budget, 2 + fresh_seeds_++)};
  }

  // Every hot request once: builds every group and fills the cache before
  // timing.
  std::vector<RequestDraw> WarmUp() const {
    std::vector<RequestDraw> draws;
    for (const RequestDraw& d : pool_) {
      for (const std::string& algorithm : algorithms_) {
        draws.push_back({d.links, d.params + algorithm + kHot});
      }
    }
    return draws;
  }

  // Every link a pooled target set names.
  std::unordered_set<EdgeKey> PoolKeys() const {
    std::unordered_set<EdgeKey> keys;
    for (const RequestDraw& d : pool_) {
      for (const Edge& e : d.links) keys.insert(e.Key());
    }
    return keys;
  }

 private:
  static constexpr const char* kHot = " budget=2 seed=1";

  // heavy_arenas: a distinct 100-200-target monster request. The classes
  // take turns, so every run has the same class mix. The Pentagon classes
  // cost several times what the other three do and come twice as often:
  // with two thirds of the requests, they hold the latency median inside
  // their own range instead of in the gap below it.
  RequestDraw Monster(SeededStream& stream) {
    static const char* kClasses[] = {
        "algorithm=sgb motif=Pentagon",   "algorithm=full motif=Pentagon",
        "algorithm=ct-tbd motif=Rectangle", "algorithm=sgb motif=Pentagon",
        "algorithm=full motif=Pentagon",  "algorithm=wt-tbd motif=Rectangle",
        "algorithm=sgb motif=Pentagon",   "algorithm=full motif=Pentagon",
        "algorithm=ct-dbd motif=RecTri"};
    const size_t k = static_cast<size_t>(stream.Int(100, 200));
    std::vector<Edge> links = SampleLinks(edges_, k, stream);
    std::string params = kClasses[monsters_++ % std::size(kClasses)];
    if (params != "algorithm=full motif=Pentagon") {  // `full` takes no budget
      params += StrFormat(" budget=%lld", static_cast<long long>(stream.Int(20, 60)));
    }
    return {std::move(links), params};
  }

  bool point_;
  bool heavy_;
  double hot_share_;
  std::vector<Edge> edges_;
  std::vector<RequestDraw> pool_;
  std::vector<std::string> algorithms_;
  std::optional<ZipfSampler> zipf_;
  size_t fresh_seeds_ = 0;
  size_t monsters_ = 0;
};

}  // namespace

Result<WorkloadSpec> FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (Is(spec, name)) return spec;
  }
  return Status::InvalidArgument("unknown workload: " + std::string(name));
}

Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                              double seconds, const std::string& edge_path) {
  Workload w;
  TPP_ASSIGN_OR_RETURN(w.spec, FindWorkload(name));
  {
    TPP_ASSIGN_OR_RETURN(Graph generated, MakeFixture(w.spec));
    TPP_RETURN_IF_ERROR(tpp::graph::SaveEdgeList(generated, edge_path));
  }
  TPP_ASSIGN_OR_RETURN(w.graph, tpp::graph::LoadEdgeList(edge_path));
  w.fingerprint = tpp::graph::Fingerprint(w.graph);

  const WorkloadSpec& spec = w.spec;
  SeededStream stream(tpp::SplitMix64(seed ^ 0x5e7eb5e7c4ULL));
  RequestGenerator requests(spec, w.graph);

  // Open phase: Poisson requests, plus edits on a fixed clock.
  const size_t n_open = std::max<size_t>(
      1, static_cast<size_t>(spec.offered_rps * kOpenShare * seconds));
  const std::vector<double> due = PoissonSchedule(n_open, spec.offered_rps, stream);
  std::vector<RequestDraw> open_draws;
  for (size_t i = 0; i < n_open; ++i) open_draws.push_back(requests.Next(stream));
  const size_t n_closed = std::max<size_t>(
      200, static_cast<size_t>(spec.closed_per_s * seconds));
  std::vector<RequestDraw> closed_draws;
  for (size_t i = 0; i < n_closed; ++i) closed_draws.push_back(requests.Next(stream));
  // Pooled targets are never edited, so requests after an edit still name
  // existing links. heavy_arenas has no pool: its only edits are the probe
  // edits after the last request.
  EditGenerator edits(w.graph, requests.PoolKeys());
  auto edit_line = [&](Phase phase, double at) {
    ScriptLine line;
    line.phase = phase;
    line.due_s = at;
    line.edit = true;
    line.text = edits.Next(stream, 2, 2);
    return line;
  };

  // Warm-up: every hot request, then fresh ones until the server's memory
  // allocator has settled (the first cloned graphs otherwise pay for fresh
  // pages and showed up as a burst of slow requests at the start of the
  // open phase).
  std::vector<RequestDraw> warm = requests.WarmUp();
  for (size_t i = 0; i < kWarmFresh; ++i) warm.push_back(requests.Next(stream));
  for (size_t i = 0; i < warm.size(); ++i) {
    ScriptLine line;
    line.phase = Phase::kWarm;
    line.connection = i % spec.connections;
    line.label = StrFormat("w%zu", i);
    line.text = RequestLine(line.label, warm[i]);
    w.lines.push_back(std::move(line));
  }
  // Round r holds the r-th equal share of the open and of the closed
  // requests. Open send times are rebased to the start of their segment,
  // keeping the gap from the previous request; edits keep their places
  // in the sequence.
  double next_edit = spec.edit_interval_s;
  for (size_t r = 0; r < kRounds; ++r) {
    const size_t open_begin = r * n_open / kRounds;
    const size_t open_end = (r + 1) * n_open / kRounds;
    const double base = open_begin == 0 ? 0 : due[open_begin - 1];
    for (size_t i = open_begin; i < open_end; ++i) {
      while (spec.edit_interval_s > 0 && next_edit <= due[i]) {
        w.lines.push_back(edit_line(Phase::kOpen, next_edit - base));
        w.lines.back().round = r;
        next_edit += spec.edit_interval_s;
      }
      ScriptLine line;
      line.phase = Phase::kOpen;
      line.round = r;
      line.connection = i % spec.connections;
      line.due_s = due[i] - base;
      line.label = StrFormat("o%zu", i);
      line.text = RequestLine(line.label, open_draws[i]);
      w.lines.push_back(std::move(line));
    }
    for (size_t i = r * n_closed / kRounds; i < (r + 1) * n_closed / kRounds; ++i) {
      if (spec.edit_every > 0 && i > 0 && i % spec.edit_every == 0) {
        w.lines.push_back(edit_line(Phase::kClosed, 0));
        w.lines.back().round = r;
      }
      ScriptLine line;
      line.phase = Phase::kClosed;
      line.round = r;
      line.connection = i % spec.connections;
      line.label = StrFormat("c%zu", i);
      line.text = RequestLine(line.label, closed_draws[i]);
      w.lines.push_back(std::move(line));
    }
  }
  for (size_t i = 0; i < spec.probe_edits; ++i) {
    w.lines.push_back(edit_line(Phase::kProbe, 0));
  }
  return w;
}

Status FillReference(Workload* workload, int threads) {
  tpp::service::PlanService service{tpp::graph::Graph(workload->graph)};
  std::vector<ScriptLine>& lines = workload->lines;
  // With edits between requests, built groups are carried across steps and
  // repaired in place, as `tpp batch` does; otherwise each batch builds its
  // own groups, which bounds how many are held at a time. The cache is
  // never told about edits: after one, every plan is solved again.
  std::optional<tpp::service::InstanceRepository> repository;
  if (workload->spec.edit_interval_s > 0 || workload->spec.edit_every > 0) {
    repository.emplace(&service.base());
  }
  tpp::service::PlanCache cache(0);
  constexpr size_t kChunk = 64;
  auto run_step = [&](const std::vector<size_t>& step) -> Status {
    std::vector<tpp::service::PlanRequest> requests;
    for (size_t i : step) {
      TPP_ASSIGN_OR_RETURN(tpp::service::PlanRequest request,
                           tpp::service::ParsePlanRequestLine(lines[i].text, i + 1, i));
      requests.push_back(std::move(request));
    }
    // Requests of one step are independent; batching them by target set
    // lets each chunk's instance repository build every group once while
    // bounding how many groups are held at a time.
    std::vector<size_t> order(requests.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const auto& ra = requests[a];
      const auto& rb = requests[b];
      if (ra.motif != rb.motif) return ra.motif < rb.motif;
      return std::lexicographical_compare(
          ra.targets.begin(), ra.targets.end(), rb.targets.begin(),
          rb.targets.end(),
          [](const Edge& x, const Edge& y) { return x.Key() < y.Key(); });
    });
    for (size_t begin = 0; begin < order.size(); begin += kChunk) {
      const size_t end = std::min(order.size(), begin + kChunk);
      std::vector<tpp::service::PlanRequest> chunk;
      for (size_t k = begin; k < end; ++k) chunk.push_back(requests[order[k]]);
      tpp::service::BatchOptions options;
      options.max_workers = threads;
      options.cache = &cache;
      options.repository = repository ? &*repository : nullptr;
      std::vector<tpp::service::PlanResponse> responses =
          service.RunBatch(chunk, options);
      for (size_t k = begin; k < end; ++k) {
        lines[step[order[k]]].expected = tpp::service::server::FormatResponseLine(
            chunk[k - begin], responses[k - begin]);
      }
    }
    return Status::Ok();
  };

  std::vector<size_t> step;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (!lines[i].edit) {
      step.push_back(i);
      continue;
    }
    TPP_RETURN_IF_ERROR(run_step(step));
    step.clear();
    TPP_ASSIGN_OR_RETURN(tpp::graph::GraphDelta delta,
                         tpp::service::ParseEditLine(lines[i].text, i + 1));
    Result<tpp::service::EditSummary> summary = service.ApplyEdit(
        delta, nullptr, repository ? &*repository : nullptr);
    lines[i].expected =
        summary.ok()
            ? StrFormat("edit ok inserted=%zu removed=%zu fingerprint=%016llx",
                        summary->inserted, summary->removed,
                        static_cast<unsigned long long>(summary->new_fingerprint))
            : StrFormat("edit error %s", summary.status().ToString().c_str());
  }
  return run_step(step);
}

Status SaveScript(const Workload& workload, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  char due[64];
  for (const ScriptLine& line : workload.lines) {
    std::snprintf(due, sizeof(due), "%.9f", line.due_s);
    out << static_cast<char>(line.phase) << '\t' << line.round << '\t'
        << line.connection << '\t' << due << '\t' << (line.edit ? 'e' : 'r') << '\t'
        << line.label << '\t' << line.text << '\t' << line.expected << '\n';
  }
  out.flush();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::Ok();
}

Result<std::vector<ScriptLine>> LoadScript(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::vector<ScriptLine> lines;
  std::string row;
  while (std::getline(in, row)) {
    std::vector<std::string> f;
    std::stringstream fields(row);
    std::string field;
    while (std::getline(fields, field, '\t')) f.push_back(field);
    if (f.size() != 8 || f[0].size() != 1 || f[4].size() != 1) {
      return Status::InvalidArgument("malformed script row in " + path);
    }
    ScriptLine line;
    line.phase = static_cast<Phase>(f[0][0]);
    line.round = std::stoul(f[1]);
    line.connection = std::stoul(f[2]);
    line.due_s = std::stod(f[3]);
    line.edit = f[4] == "e";
    line.label = f[5];
    line.text = f[6];
    line.expected = f[7];
    lines.push_back(std::move(line));
  }
  return lines;
}

}  // namespace servebench
