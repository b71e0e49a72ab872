// servebench: the compiled half of the serving benchmark (run.py drives it).
//
//   servebench prepare --workload=W --seed=S --seconds=T --threads=N --dir=D
//       Writes the fixture (D/graph.edges) and the script with every
//       expected reply (D/script.tsv); prints the fixture record as JSON.
//   servebench drive --workload=W --dir=D --socket=PATH --server-pid=P
//       Runs the script against a live `tpp serve`, checks every reply and
//       prints the end-to-end metrics as JSON.
//   servebench trace --workload=W --dir=D --threads=N --cache-size=C
//                    --queue-depth=Q --per-client=P
//       The traced in-process replay (trace.h) under the given `tpp serve`
//       settings; prints the per-layer metrics as JSON and writes
//       D/spans.jsonl.

#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "client.h"
#include "common/flags.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace servebench {
namespace {

using tpp::Result;
using tpp::Status;

// A run whose sender fell this far behind its schedule at p99 measured the
// load generator, not the server: its record flags it invalid.
constexpr double kMaxLagP99Ms = 20.0;

int Fail(const Status& status) {
  std::fprintf(stderr, "servebench: %s\n", status.ToString().c_str());
  return 1;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\t' || c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

// Peak resident set of process `pid` (VmHWM), in MiB; 0 if unreadable.
double PeakRssMb(int64_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string CountsJson(const PhaseCounts& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"sent\": %zu, \"ok\": %zu, \"failed\": %zu, \"shed\": %zu, "
                "\"mismatched\": %zu}",
                c.sent, c.ok, c.failed, c.shed, c.mismatched);
  return buf;
}

int Prepare(const tpp::ParsedArgs& args) {
  const std::string dir = args.GetString("dir", ".");
  Result<int64_t> seed = args.GetInt("seed", 1);
  Result<double> seconds = args.GetDouble("seconds", 10);
  Result<int64_t> threads = args.GetInt("threads", 4);
  if (!seed.ok() || !seconds.ok() || !threads.ok()) {
    return Fail(Status::InvalidArgument("bad --seed/--seconds/--threads"));
  }
  tpp::SetGlobalThreadCount(static_cast<int>(*threads));
  const double t0 = NowSeconds();
  Result<Workload> w = MakeWorkload(args.GetString("workload", ""),
                                    static_cast<uint64_t>(*seed), *seconds,
                                    dir + "/graph.edges");
  if (!w.ok()) return Fail(w.status());
  const double t1 = NowSeconds();
  Status ref = FillReference(&*w, static_cast<int>(*threads));
  if (!ref.ok()) return Fail(ref);
  const double t2 = NowSeconds();
  Status saved = SaveScript(*w, dir + "/script.tsv");
  if (!saved.ok()) return Fail(saved);
  std::map<Phase, size_t> requests;
  size_t edits = 0;
  for (const ScriptLine& line : w->lines) {
    ++(line.edit ? edits : requests[line.phase]);
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %lld, \"vertices\": %zu, \"edges\": %zu, "
      "\"fingerprint\": \"%016llx\", \"warm_requests\": %zu, "
      "\"open_requests\": %zu, \"closed_requests\": %zu, \"edits\": %zu, "
      "\"generate_s\": %.3f, "
      "\"reference_s\": %.3f}\n",
      w->spec.name, static_cast<long long>(*seed), w->graph.NumNodes(),
      w->graph.NumEdges(), static_cast<unsigned long long>(w->fingerprint),
      requests[Phase::kWarm], requests[Phase::kOpen], requests[Phase::kClosed],
      edits, t1 - t0, t2 - t1);
  return 0;
}

int Drive(const tpp::ParsedArgs& args) {
  Result<WorkloadSpec> spec = FindWorkload(args.GetString("workload", ""));
  if (!spec.ok()) return Fail(spec.status());
  const std::string dir = args.GetString("dir", ".");
  Result<int64_t> pid = args.GetInt("server-pid", 0);
  Result<double> timeout = args.GetDouble("timeout", 150);
  if (!pid.ok() || !timeout.ok()) {
    return Fail(Status::InvalidArgument("bad --server-pid/--timeout"));
  }
  Result<std::vector<ScriptLine>> lines = LoadScript(dir + "/script.tsv");
  if (!lines.ok()) return Fail(lines.status());
  ClientRun run;
  Status client = RunClient(args.GetString("socket", "serve.sock"),
                            spec->connections, spec->window, *lines, *timeout,
                            &run);
  if (!client.ok()) return Fail(client);
  const double rss_mb = PeakRssMb(*pid);
  ClientReport report = Analyze(*lines, run, spec->connections);
  {
    // Per-line timeline, for looking into a run after the fact.
    std::ofstream timeline(dir + "/timeline.tsv");
    timeline << "line\tphase\tdue_s\tsend_s\trecv_s\n";
    char row[160];
    for (size_t i = 0; i < lines->size(); ++i) {
      std::snprintf(row, sizeof(row), "%zu\t%c\t%.6f\t%.6f\t%.6f\n", i,
                    static_cast<char>((*lines)[i].phase), run.due_s[i],
                    run.send_s[i], run.recv_s[i]);
      timeline << row;
    }
  }

  // `correct` is about what the server answered: every reply matched, in
  // order where that is checked, and nothing was left unanswered. Whether
  // the run measured the server rather than the box is a separate verdict,
  // `valid` in the run record.
  std::vector<std::string> incorrect;
  if (run.timed_out) incorrect.push_back("timed out");
  if (rss_mb <= 0) incorrect.push_back("no VmHWM for the server");
  if (report.edit_latency_ms.empty()) incorrect.push_back("no edit answered");
  if (!report.transcript_ok) incorrect.push_back("transcript out of order");
  const bool correct = report.not_ok == 0 && incorrect.empty();
  std::vector<std::string> invalid;
  const std::optional<double> p99 = Percentile(report.latency_ms, 99);
  // A validity check, not a reported figure: no tail is needed behind it.
  const std::optional<double> lag_p99 = Percentile(report.lag_ms, 99, 0);
  if (!lag_p99 || *lag_p99 > kMaxLagP99Ms) {
    invalid.push_back("load generator lagged its schedule");
  }

  std::vector<Metric> metrics = {
      {"latency_p50_ms", Median(report.latency_ms), "ms"},
      {"throughput_rps", report.throughput_rps, "1/s"},
      {"ok_frac",
       static_cast<double>(report.warm.ok + report.open.ok + report.closed.ok +
                           report.probe.ok) /
           static_cast<double>(report.attempted),
       "frac"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  // Measured and checked like the metrics above, but too noisy from run to
  // run on a shared box to gate a change on (see README.md).
  // The p99 is left out of a run too short to have 10 samples beyond it.
  std::vector<Metric> recorded = {
      {"edit_latency_p50_ms", Median(report.edit_latency_ms), "ms"},
  };
  if (p99) recorded.push_back({"latency_p99_ms", *p99, "ms"});
  std::string notes;
  for (const auto* list : {&incorrect, &invalid}) {
    for (const std::string& s : *list) notes += (notes.empty() ? "" : ", ") + Quote(s);
  }
  for (const std::string& s : report.first_mismatches) {
    notes += (notes.empty() ? "" : ", ") + Quote(s);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s, "
      "\"record\": {\"valid\": %s, \"recorded\": %s, \"error_frac\": %.17g, "
      "\"phases\": {\"warm\": %s, "
      "\"open\": %s, \"closed\": %s, \"probe\": %s}, \"samples\": {\"latency\": %zu, "
      "\"edit_latency\": %zu, \"lag\": %zu}, \"lag_p99_ms\": %.6f, "
      "\"stray_replies\": %zu, \"notes\": [%s]}}\n",
      correct ? "true" : "false", report.attempted, report.not_ok,
      MetricsJson(metrics).c_str(), invalid.empty() ? "true" : "false",
      MetricsJson(recorded).c_str(),
      static_cast<double>(report.not_ok) / static_cast<double>(report.attempted),
      CountsJson(report.warm).c_str(), CountsJson(report.open).c_str(),
      CountsJson(report.closed).c_str(),
      CountsJson(report.probe).c_str(), report.latency_ms.size(),
      report.edit_latency_ms.size(), report.lag_ms.size(), lag_p99.value_or(-1),
      run.stray_replies, notes.c_str());
  return 0;
}

int Trace(const tpp::ParsedArgs& args) {
  Result<WorkloadSpec> spec = FindWorkload(args.GetString("workload", ""));
  if (!spec.ok()) return Fail(spec.status());
  const std::string dir = args.GetString("dir", ".");
  Result<int64_t> threads = args.GetInt("threads", 0);
  Result<int64_t> cache_size = args.GetInt("cache-size", 0);
  Result<int64_t> queue_depth = args.GetInt("queue-depth", 0);
  Result<int64_t> per_client = args.GetInt("per-client", 0);
  for (const auto* flag : {&threads, &cache_size, &queue_depth, &per_client}) {
    if (!flag->ok() || **flag <= 0) {
      return Fail(Status::InvalidArgument(
          "trace needs positive --threads, --cache-size, --queue-depth and "
          "--per-client"));
    }
  }
  const ServerFlags flags{.cache_size = static_cast<size_t>(*cache_size),
                          .queue_depth = static_cast<size_t>(*queue_depth),
                          .per_client = static_cast<size_t>(*per_client)};
  tpp::SetGlobalThreadCount(static_cast<int>(*threads));
  Result<std::vector<ScriptLine>> lines = LoadScript(dir + "/script.tsv");
  if (!lines.ok()) return Fail(lines.status());
  Result<TraceResult> trace = RunTrace(
      *spec, dir + "/graph.edges", *lines, static_cast<int>(*threads), flags,
      args.GetString("socket", "trace.sock"), dir + "/spans.jsonl");
  if (!trace.ok()) return Fail(trace.status());
  std::string notes;
  for (const std::string& s : trace->first_mismatches) {
    notes += (notes.empty() ? "" : ", ") + Quote(s);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s, "
      "\"record\": {\"self_shares\": %s, \"notes\": [%s]}}\n",
      trace->mismatched == 0 ? "true" : "false", trace->lines,
      trace->mismatched, MetricsJson(trace->metrics).c_str(),
      MetricsJson(trace->self_shares).c_str(), notes.c_str());
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  tpp::Result<tpp::ParsedArgs> args = tpp::ParsedArgs::Parse(argc, argv);
  if (!args.ok() || args->positional().empty()) {
    std::fprintf(stderr, "usage: servebench <prepare|drive|trace> [--flags]\n");
    return 2;
  }
  const std::string& command = args->positional()[0];
  if (command == "prepare") return servebench::Prepare(*args);
  if (command == "drive") return servebench::Drive(*args);
  if (command == "trace") return servebench::Trace(*args);
  std::fprintf(stderr, "servebench: unknown command %s\n", command.c_str());
  return 2;
}
