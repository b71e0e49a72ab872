// tpp serve — a long-lived plan server over the batch-script grammar.
//
// The server is an INGESTION AND ADMISSION SHELL around
// PlanService::RunBatch, not a new solve path: every admitted request
// line is parsed by the same ParsePlanRequestLine, solved by the same
// pipeline, and answered bit-identically to what the offline `tpp batch`
// pipeline would produce for the same script (the response line is
// timing-free for exactly this reason — see FormatResponseLine).
//
// Two threads:
//   * the IO thread owns every file descriptor: it accepts connections
//     on the Unix-domain listener (and/or serves one session over a
//     stdio pipe pair), assembles newline frames, applies admission
//     control synchronously (a shed reply is written by the IO thread
//     the moment the decision is made — overload feedback never waits
//     behind solving), queues `edit` directives behind an epoch barrier,
//     and watches the shutdown signal pipe;
//   * the solve loop (the thread that called Serve) picks admitted work
//     round-robin across clients, runs it through PlanService::RunBatch,
//     writes response lines, and applies pending edits exactly at the
//     epoch drain point — after every request admitted before the edit
//     finished, before any admitted after it starts.
//
// Overload ladder (docs/ROBUSTNESS.md): admit -> queue -> shed
// (kUnavailable + retry-after hint, immediately at the door) -> drain.
// Drain (first SIGTERM/SIGINT byte, `shutdown` directive, or stdio EOF)
// stops admission, finishes queued and in-flight work, flushes, and
// Serve returns OK; a second signal escalates to abort — the server's
// CancellationToken (chained into every in-flight request) cancels, and
// unfinished requests answer kAborted.

#ifndef TPP_SERVICE_SERVER_SERVER_H_
#define TPP_SERVICE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "service/plan_service.h"
#include "service/server/admission.h"
#include "service/server/framing.h"

namespace tpp::service::server {

/// Monotonic counters of one Serve run; read them after Serve returns
/// (or via snapshot_stats() while serving). They feed the CLI footer and
/// BENCH_server_soak.json.
struct ServerStats {
  uint64_t connections = 0;
  uint64_t admitted = 0;
  uint64_t responses = 0;           ///< response lines written OK
  uint64_t shed_queue_full = 0;
  uint64_t shed_queued_bytes = 0;
  uint64_t shed_client_cap = 0;
  uint64_t shed_deadline_hopeless = 0;
  uint64_t shed_draining = 0;
  /// Requests that were in queue or in flight when drain began and still
  /// ran to completion with their response delivered — the graceful-drain
  /// guarantee, gated to be > 0 under drain-under-load tests and to equal
  /// queue depth at drain time.
  uint64_t drained_in_flight = 0;
  /// Responses lost because the client was gone or its pipe failed
  /// permanently when the write happened. Zero on a clean drain.
  uint64_t dropped_responses = 0;
  uint64_t parse_errors = 0;
  /// Sessions that ended with a partial line buffered (client died
  /// mid-line, or a torn read was injected and EOF followed). The tail is
  /// discarded, never parsed.
  uint64_t torn_frames = 0;
  uint64_t edits_applied = 0;
  uint64_t edits_failed = 0;
  /// Transient net.write faults absorbed by retry.
  uint64_t net_write_retries = 0;
  uint64_t aborted_in_flight = 0;   ///< requests canceled by abort escalation
  size_t max_client_load = 0;       ///< per-client queued+in-flight high water
  size_t max_queue_depth = 0;       ///< global queue-depth high water
  uint64_t shed_total() const {
    return shed_queue_full + shed_queued_bytes + shed_client_cap +
           shed_deadline_hopeless + shed_draining;
  }
};

struct ServerOptions {
  /// Unix-domain listener path; empty disables the socket listener. An
  /// existing socket file at the path is replaced (the expected state
  /// after kill -9). The path appears only once the server accepts
  /// connections; it is bound as `<path>~` first, so that name must fit
  /// sun_path too.
  std::string socket_path;
  /// Serve one session over a pipe/terminal pair instead of (or in
  /// addition to) the socket: reads requests from `stdio_in`, writes
  /// replies to `stdio_out`. EOF on the input is an implicit drain
  /// request, so `tpp serve --stdio < script.txt` degenerates to a
  /// drained batch run.
  bool stdio = false;
  int stdio_in = 0;
  int stdio_out = 1;
  /// Shutdown pipe read end (signals::InstallShutdownPipe). -1 disables
  /// signal handling (tests drive RequestDrain/RequestAbort directly).
  int signal_fd = -1;
  AdmissionOptions admission;
  /// Requests per solve-loop pickup (one RunBatch call); bounds how long
  /// a pending edit waits behind the barrier. Serve rejects 0.
  size_t max_batch = 8;
  /// Worker budget passed through to BatchOptions::max_workers.
  int max_workers = 0;
  /// Shared serving state, all optional, all not owned: exactly what
  /// `tpp batch` wires up, so a server ride of --store re-serves scripts
  /// byte-identically after a crash.
  PlanCache* cache = nullptr;
  store::WarmStore* store = nullptr;
  InstanceRepository* repository = nullptr;
  /// Test hooks. `before_pickup` runs on the solve loop before every
  /// pickup attempt — a test that blocks in it freezes pickup while the
  /// IO thread keeps admitting/shedding, making overload deterministic.
  /// `on_pickup` observes each picked item in pickup order.
  std::function<void()> before_pickup;
  std::function<void(const QueuedItem&)> on_pickup;
};

/// The timing-free response line: everything `tpp batch`'s stream line
/// carries except seconds= and the (cached) marker, plus a 64-bit hash of
/// the serialized plan so byte-identity of the PLAN (not just the
/// scoreboard) is asserted end to end. Identical requests against
/// identical graph state produce identical lines across runs, restarts,
/// worker counts, and cache states.
std::string FormatResponseLine(const PlanRequest& request,
                               const PlanResponse& response);

class PlanServer {
 public:
  /// `service` (and every pointer in `options`) must outlive the server.
  PlanServer(PlanService* service, ServerOptions options);
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Runs the server on the calling thread until drain completes.
  /// Returns non-OK only for setup failures (bad socket path, pipe
  /// creation); per-session and per-request failures are handled inline
  /// and counted.
  Status Serve();

  /// Thread-safe drain request: admission stops (new offers shed with
  /// reason `draining`), queued and in-flight work finishes, Serve
  /// returns. Idempotent.
  void RequestDrain();

  /// Thread-safe abort escalation: drain + cancel in-flight work via the
  /// server's CancellationToken. Unfinished requests answer kAborted.
  void RequestAbort();

  /// Counters; stable after Serve returns, racy-but-monotonic snapshot
  /// while serving.
  ServerStats snapshot_stats() const;

  bool draining() const { return draining_.load(std::memory_order_acquire); }

 private:
  struct Session;
  struct PendingEdit {
    uint64_t after_epoch = 0;  ///< apply once this epoch fully drains
    graph::GraphDelta delta;
    std::shared_ptr<Session> session;  ///< where the edit reply goes
    size_t line_number = 0;
  };

  // IO-thread body and helpers (server.cc).
  void IoLoop(int listener_fd, int wake_fd);
  void HandleSessionReadable(const std::shared_ptr<Session>& session);
  void HandleLine(const std::shared_ptr<Session>& session, std::string line);
  /// Frames `bytes` read from the session and handles every line they
  /// complete, through the session's backlog.
  void ConsumeInput(const std::shared_ptr<Session>& session,
                    std::string_view bytes);
  /// Handles the session's backlog in order. With `hold`, a stdio session
  /// stops at a request line while its client is at the per-client cap:
  /// a pipe cannot retry a shed, so the line waits for a free slot
  /// instead. A stdio session whose input ended drains once it is empty.
  void AdmitBacklog(const std::shared_ptr<Session>& session, bool hold);
  /// Ends a session; every close goes through here. First reads and
  /// handles what the peer already sent (without blocking), then counts a
  /// buffered partial line as a torn frame, drops the session's queued
  /// work and closes its fds. Must not be called under mu_.
  void CloseSession(const std::shared_ptr<Session>& session);
  /// Retires finished sessions: dead ones (write failure, read error)
  /// and half-closed ones whose every admitted request has answered and
  /// that no pending edit still owes a reply. Closes their fds and
  /// erases them from sessions_, so a long-lived server's fd count and
  /// session table track LIVE connections, not historical ones.
  void PruneSessions();

  // Solve-loop body and helpers.
  void SolveLoop();
  void ApplyPendingEditsLocked();
  /// Writes one framed line to the session; retries transient net.write
  /// faults, marks the session dead (and drops its queued work) on a
  /// permanent or torn failure. Returns whether the line was delivered.
  /// Never takes mu_ — safe from either thread, including under mu_.
  bool WriteLine(const std::shared_ptr<Session>& session,
                 const std::string& line);

  void Wake();

  PlanService* service_;
  ServerOptions options_;
  AdmissionQueue queue_;
  CancellationToken server_token_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> aborting_{false};
  std::atomic<bool> io_done_{false};

  // Admission epochs: bumped by every edit directive; items carry the
  // epoch they were admitted under and the solve loop never picks an
  // item from a later epoch than the edits it has applied.
  std::atomic<uint64_t> admission_epoch_{0};
  uint64_t solve_epoch_ = 0;  // solve loop only

  std::mutex mu_;  // guards edits_, sessions_, next_session_id_
  std::condition_variable work_cv_;
  std::deque<PendingEdit> edits_;
  // Live sessions by id; retired entries are erased by PruneSessions, so
  // response-target lookup stays O(1) in live connections.
  std::unordered_map<uint64_t, std::shared_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  // Counters as individual atomics (not a mutex-guarded struct): both
  // threads bump them, including on paths that already hold mu_.
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> dropped_responses_{0};
  std::atomic<uint64_t> parse_errors_{0};
  std::atomic<uint64_t> torn_frames_{0};
  std::atomic<uint64_t> edits_applied_{0};
  std::atomic<uint64_t> edits_failed_{0};
  std::atomic<uint64_t> net_write_retries_{0};
  std::atomic<uint64_t> drained_in_flight_{0};
  std::atomic<uint64_t> aborted_in_flight_{0};

  // Wake pipe write end. The mutex covers the fd value AND the write(2)
  // against Serve's teardown close: RequestDrain/RequestAbort are
  // documented thread-safe, so a caller may race Serve returning — the
  // wake write must never land on a closed (possibly reused) fd.
  std::mutex wake_mu_;
  int wake_write_ = -1;  // solve/drain -> IO thread wakeup pipe
};

}  // namespace tpp::service::server

#endif  // TPP_SERVICE_SERVER_SERVER_H_
