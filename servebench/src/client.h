// The benchmark's load generator: one thread drives every connection to a
// `tpp serve` Unix socket through a poll loop, so its send times follow the
// precomputed schedule and no thread per connection competes with the
// server for cores.
//
//   warm phase   — like the closed phase, untimed;
//   open phase   — each line is sent at its scheduled offset from the start
//                  of its segment (open loop); a request's latency runs from
//                  that scheduled time to its reply, so a stall also
//                  charges the requests it delays.
//   closed phase — each connection keeps `window` lines outstanding.
//   probe phase  — lines are sent one at a time on the first connection.
//
// The script is sent segment by segment (consecutive lines of one phase and
// round), each answered in full before the next starts.
//
// Replies are matched to lines by their leading request label (edit
// replies, which carry none, by order among the connection's edits).

#ifndef SERVEBENCH_CLIENT_H_
#define SERVEBENCH_CLIENT_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "workload.h"

namespace servebench {

/// Seconds on the steady clock.
double NowSeconds();

struct ClientRun {
  // Per script line; 0 when the line was never sent or never answered.
  std::vector<double> send_s;
  std::vector<double> due_s;  ///< open phase: scheduled send time
  std::vector<double> recv_s;
  std::vector<std::string> replies;
  /// Closed segments, summed: from each one's start to its last reply.
  double closed_s = 0;
  /// Per connection: line indices in the order their replies arrived.
  std::vector<std::vector<size_t>> arrival_order;
  size_t stray_replies = 0;  ///< replies that matched no outstanding line
  bool timed_out = false;
};

/// Connects `connections` sockets to `socket_path` (retrying for up to
/// 10 s while the server starts) and runs every phase of `lines`; gives up
/// with `run->timed_out` set once `timeout_s` has passed.
tpp::Status RunClient(const std::string& socket_path, size_t connections,
                      size_t window, const std::vector<ScriptLine>& lines,
                      double timeout_s, ClientRun* run);

struct PhaseCounts {
  size_t sent = 0;
  size_t ok = 0;
  size_t failed = 0;  ///< error replies, and lines never answered
  size_t shed = 0;
  size_t mismatched = 0;
};

struct ClientReport {
  PhaseCounts warm, open, closed, probe;
  std::vector<double> latency_ms;       ///< open-phase requests answered ok
  std::vector<double> lag_ms;           ///< open phase: send - scheduled
  std::vector<double> edit_latency_ms;  ///< every edit: send -> reply
  size_t closed_ok_requests = 0;
  /// Closed phase: ok request replies over the time its segments took.
  double throughput_rps = 0;
  bool transcript_ok = true;  ///< one connection: replies in send order
  size_t attempted = 0;
  size_t not_ok = 0;  ///< failed + shed + mismatched, every phase
  std::vector<std::string> first_mismatches;
};

/// Classifies every reply against the line's expected reply.
ClientReport Analyze(const std::vector<ScriptLine>& lines,
                     const ClientRun& run, size_t connections);

}  // namespace servebench

#endif  // SERVEBENCH_CLIENT_H_
