// The traced run: replays a workload's exact script in process and times
// each call into a layer's public functions, without touching src/.
//
//   1. graph layer  — LoadEdgeList and Fingerprint of the fixture file.
//   2. server layer — every phase but the probe edits is driven through an
//      in-process PlanServer with the settings of the server under test;
//      its public before_pickup/on_pickup hooks give the queue wait of the
//      open-phase requests (send -> pickup) and the items per pickup.
//   3. request path — every line is replayed sequentially, rebuilt from
//      public entry points: ParsePlanRequestLine -> PlanCache probe ->
//      InstanceRepository::AcquireEngine -> RunSolver ->
//      SerializeDeletionPlan -> FormatResponseLine; edits go through
//      PlanService::ApplyEdit and InstanceRepository::ApplyEdit. The replay
//      runs three times on fresh state, untraced, traced, untraced; the
//      difference is the tracing overhead.
//
// AcquireEngine builds inside the repository, out of reach of a span. On
// a group's first build the traced pass therefore also runs MakeInstance,
// IndexedEngine::Create and Clone directly, outside the request, and splits
// that acquisition's self time across those layers in the proportions the
// direct calls measured. On a built group AcquireEngine is a lock plus
// Clone, so its self time counts as core.clone.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "stats.h"
#include "workload.h"

namespace servebench {

struct TraceResult {
  std::vector<Metric> metrics;  ///< every per-layer metric
  /// Self time of the traced replay's requests by layer, as shares of
  /// their total (the breakdown behind the copy and build/solve shares).
  std::vector<Metric> self_shares;
  size_t lines = 0;
  size_t mismatched = 0;  ///< replies differing from the reference
  std::vector<std::string> first_mismatches;
};

/// Settings of the `tpp serve` under test. The traced run's in-process
/// server and request path take the same values, passed in by run.py.
struct ServerFlags {
  size_t cache_size = 0;   ///< --cache-size
  size_t queue_depth = 0;  ///< --queue-depth
  size_t per_client = 0;   ///< --per-client
};

/// `socket_path` is where the in-process server listens; `spans_path`
/// receives the traced pass's spans as JSON lines when the run ends.
tpp::Result<TraceResult> RunTrace(const WorkloadSpec& spec,
                                  const std::string& edge_path,
                                  const std::vector<ScriptLine>& lines,
                                  int threads, const ServerFlags& flags,
                                  const std::string& socket_path,
                                  const std::string& spans_path);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
