// The serving benchmark's workloads: seeded fixtures, request scripts, and
// the in-process reference every server reply is checked against.
//
// A workload is generated from (name, seed, seconds) alone. Its fixture
// graph comes from the repository's own generators with a fixed fixture
// seed; the run seed drives everything the requests are made of (targets,
// popularity draws, arrival times, edits). Every request names its targets
// with explicit links=, so the benchmark knows each target set.
//
// A script has four phases, sent over the same connections:
//   warm   — every hot request once, then a few fresh ones, untimed, so
//            the timed phases see built groups, cached plans and a settled
//            server (cold builds are heavy_arenas' job);
//   open   — Poisson arrivals at the workload's offered rate (latency);
//   closed — each connection keeps a fixed window outstanding (throughput);
//   probe  — edits sent one at a time after the load (edit latency).
// Warm comes first and probe last. In between, open and closed take turns
// in kRounds rounds, so both timed phases span the whole run: the shared
// box changes speed every few seconds, and a phase that ran in one stretch
// of the run would measure that stretch's speed.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/graph.h"

namespace servebench {

struct WorkloadSpec {
  const char* name = "";
  /// Client connections; the closed phase keeps `window` lines
  /// outstanding on each.
  size_t connections = 4;
  size_t window = 8;
  /// Open-loop offered rate: about a quarter of the closed-loop throughput
  /// the parent commit reached. At half, queueing amplified the shared
  /// box's timing noise into run-to-run p99 swings beyond the bounds.
  double offered_rps = 0;
  /// Pooled workloads: share of requests that repeat a warm-up request (a
  /// plan-cache hit unless an edit invalidated it); the rest are fresh.
  /// Hits answer in well under a millisecond and misses take several, so
  /// this share also places the latency median: at one half it fell in
  /// the sparse gap between the two and jumped between them from run to
  /// run.
  double hot_share = 0;
  /// Closed-phase requests per run second. heavy_arenas keeps its closed
  /// phase short: every one of its requests is a group the server keeps.
  double closed_per_s = 0;
  /// Edits interleaved with the requests (0: none): one edit every
  /// `edit_interval_s` of the open schedule and one after every
  /// `edit_every` closed-phase requests.
  double edit_interval_s = 0;
  size_t edit_every = 0;
  /// Edits sent one at a time after the load phases.
  size_t probe_edits = 0;
};

/// Share of the run seconds the open phase lasts at the offered rate.
inline constexpr double kOpenShare = 0.65;
/// Open and closed segments each run this many times, alternating.
inline constexpr size_t kRounds = 8;

tpp::Result<WorkloadSpec> FindWorkload(std::string_view name);

enum class Phase : char { kWarm = 'w', kOpen = 'o', kClosed = 'c', kProbe = 'p' };

struct ScriptLine {
  Phase phase = Phase::kOpen;
  size_t round = 0;  ///< open and closed lines: which of the kRounds rounds
  size_t connection = 0;
  double due_s = 0;  ///< open phase: scheduled send offset from segment start
  bool edit = false;
  std::string label;     ///< request name (empty for edits)
  std::string text;      ///< the wire line
  std::string expected;  ///< the reference reply
};

struct Workload {
  WorkloadSpec spec;
  tpp::graph::Graph graph;  ///< the fixture as `tpp serve` loads it
  uint64_t fingerprint = 0;
  std::vector<ScriptLine> lines;  ///< every phase, in send order
};

/// Generates the fixture and the script (expected replies left empty).
/// The fixture is round-tripped through `edge_path` so node ids are
/// exactly the ones the server sees.
tpp::Result<Workload> MakeWorkload(std::string_view name, uint64_t seed,
                                   double seconds,
                                   const std::string& edge_path);

/// Fills every line's expected reply from an in-process PlanService:
/// RunBatch per script step, ApplyEdit between steps, and
/// server::FormatResponseLine. Requests between two edits do not depend
/// on one another, so a step may run in several batches.
tpp::Status FillReference(Workload* workload, int threads);

/// Script file: one tab-separated line per ScriptLine.
tpp::Status SaveScript(const Workload& workload, const std::string& path);
tpp::Result<std::vector<ScriptLine>> LoadScript(const std::string& path);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
