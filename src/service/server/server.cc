#include "service/server/server.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/blob_io.h"
#include "common/net_io.h"
#include "common/strings.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/store/warm_store.h"

#if defined(__unix__) || defined(__APPLE__)
#define TPP_SERVER_POSIX 1
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace tpp::service::server {

namespace {

// Cheap token scan used at ADMISSION time, before the full parse: the
// deadline-hopeless rule and shed replies need deadline_ms= and name=
// without paying ParsePlanRequestLine on the IO thread. The scan accepts
// anything; a malformed value is caught by the real parser at pickup.
std::string_view ScanToken(std::string_view line, std::string_view key) {
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && (line[pos] == ' ' || line[pos] == '\t')) ++pos;
    const size_t end = line.find_first_of(" \t", pos);
    const std::string_view word =
        line.substr(pos, end == std::string_view::npos ? end : end - pos);
    if (word.size() > key.size() && word.substr(0, key.size()) == key) {
      return word.substr(key.size());
    }
    if (end == std::string_view::npos) break;
    pos = end;
  }
  return {};
}

uint64_t ScanDeadlineMs(std::string_view line) {
  const std::string_view value = ScanToken(line, "deadline_ms=");
  uint64_t out = 0;
  for (char c : value) {
    if (c < '0' || c > '9') return 0;  // let the real parser reject it
    out = out * 10 + static_cast<uint64_t>(c - '0');
  }
  return out;
}

#if TPP_SERVER_POSIX
// Upper bound on the input a closing session still reads: a peer that
// keeps streaming cannot hold the closing thread.
constexpr size_t kMaxCloseDrainBytes = 1 << 20;
#endif

// Backlog entry standing for a line the assembler discarded as oversized
// (no framed line contains a newline).
constexpr std::string_view kOversizedLine = "\n";

// True for a line HandleLine offers to admission: not blank, a comment,
// `shutdown` or an edit directive.
bool IsRequestLine(std::string_view line) {
  const std::string_view stripped = StripWhitespace(line);
  return !stripped.empty() && stripped.front() != '#' &&
         stripped != "shutdown" && !IsEditDirective(stripped);
}

}  // namespace

std::string FormatResponseLine(const PlanRequest& request,
                               const PlanResponse& response) {
  if (!response.status.ok()) {
    return StrFormat("%s error %s", request.name.c_str(),
                     response.status.ToString().c_str());
  }
  // The offline stream line minus seconds= and the (cached) marker —
  // wall time and cache state are the two things that legitimately
  // differ across runs — plus the plan-text hash, so "byte-identical"
  // covers the full serialized plan, not just the scoreboard.
  return StrFormat(
      "%s ok solver=%s motif=%s targets=%zu deleted=%zu "
      "similarity=%zu->%zu plan_hash=%016llx",
      request.name.c_str(), request.spec.algorithm.c_str(),
      std::string(motif::MotifName(request.motif)).c_str(),
      response.targets.size(), response.result.protectors.size(),
      response.result.initial_similarity, response.result.final_similarity,
      static_cast<unsigned long long>(
          HashBytes64(response.plan_text.data(), response.plan_text.size())));
}

// One client connection (or the stdio pipe pair). The IO thread owns
// reads and lifecycle; responses are written by the solve loop. write_mu
// serializes the two writers (IO-thread shed/parse replies vs solve-loop
// responses) and guards fd_out teardown, so a write never races a close.
struct PlanServer::Session {
  uint64_t id = 0;
  int fd_in = -1;
  int fd_out = -1;  // == fd_in for sockets; the write end for stdio
  bool is_stdio = false;
  bool owns_fds = true;  // stdio fds belong to the process, not the session
  LineAssembler assembler;
  std::mutex write_mu;
  std::atomic<bool> dead{false};
  // IO-thread-only state, mirroring the offline script parser's
  // counters: line_number counts every received line (comments too),
  // request_index only request lines, so a single-session transcript
  // gets the same default r<N> names as `tpp batch` on the same script.
  size_t line_number = 0;
  size_t request_index = 0;
  bool input_closed = false;
  // Lines read but not yet handled, oldest first (IO-thread state). Only
  // a stdio session keeps lines here between reads, while admission has
  // no room for the first of them; it is not polled until the backlog
  // empties.
  std::deque<std::string> backlog;
};

PlanServer::PlanServer(PlanService* service, ServerOptions options)
    : service_(service),
      options_(std::move(options)),
      queue_(options_.admission) {}

PlanServer::~PlanServer() = default;

ServerStats PlanServer::snapshot_stats() const {
  ServerStats stats;
  stats.connections = connections_.load(std::memory_order_relaxed);
  stats.admitted = queue_.admitted();
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.shed_queue_full = queue_.shed(ShedReason::kQueueFull);
  stats.shed_queued_bytes = queue_.shed(ShedReason::kQueuedBytes);
  stats.shed_client_cap = queue_.shed(ShedReason::kClientCap);
  stats.shed_deadline_hopeless = queue_.shed(ShedReason::kDeadlineHopeless);
  stats.shed_draining = queue_.shed(ShedReason::kDraining);
  stats.drained_in_flight = drained_in_flight_.load(std::memory_order_relaxed);
  stats.dropped_responses = dropped_responses_.load(std::memory_order_relaxed);
  stats.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  stats.torn_frames = torn_frames_.load(std::memory_order_relaxed);
  stats.edits_applied = edits_applied_.load(std::memory_order_relaxed);
  stats.edits_failed = edits_failed_.load(std::memory_order_relaxed);
  stats.net_write_retries = net_write_retries_.load(std::memory_order_relaxed);
  stats.aborted_in_flight = aborted_in_flight_.load(std::memory_order_relaxed);
  stats.max_client_load = queue_.max_client_load();
  stats.max_queue_depth = queue_.max_depth();
  return stats;
}

void PlanServer::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  // Close the door inside the queue's own mutex: an Offer that ran
  // before this sheds or was admitted with depth > 0 (so the solve loop
  // cannot see an empty queue and exit past it), and every Offer after
  // it sheds — no request can slip in unadmitted-and-unanswered between
  // a stale draining_ read and the queue insert.
  queue_.StopAdmission();
  work_cv_.notify_all();
  Wake();
}

void PlanServer::RequestAbort() {
  RequestDrain();
  if (!aborting_.exchange(true, std::memory_order_acq_rel)) {
    server_token_.Cancel();
  }
  work_cv_.notify_all();
  Wake();
}

void PlanServer::Wake() {
#if TPP_SERVER_POSIX
  std::lock_guard<std::mutex> lock(wake_mu_);
  if (wake_write_ >= 0) {
    const char byte = 'w';
    ssize_t ignored = ::write(wake_write_, &byte, 1);
    (void)ignored;
  }
#endif
}

bool PlanServer::WriteLine(const std::shared_ptr<Session>& session,
                           const std::string& line) {
  const std::string framed = line + "\n";
  std::lock_guard<std::mutex> lock(session->write_mu);
  if (session->dead.load(std::memory_order_acquire) || session->fd_out < 0) {
    return false;
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    Status wrote =
        net::WriteAll(session->fd_out, framed.data(), framed.size(),
                      "net.write");
    if (wrote.ok()) return true;
    if (wrote.code() == StatusCode::kUnavailable) {
      // Transient fault fired BEFORE any bytes (net_io contract): the
      // frame is still whole, a retry is safe and invisible.
      net_write_retries_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Permanent error or a torn frame already on the wire: retrying
    // would corrupt the stream (duplicate or interleave a partial
    // line). The session is done; its queued work dies with it.
    break;
  }
  session->dead.store(true, std::memory_order_release);
  const size_t orphaned = queue_.DropClient(session->id);
  dropped_responses_.fetch_add(orphaned, std::memory_order_relaxed);
  if (session->is_stdio) {
    // A dead session leaves the poll set, so a dead STDIO session's EOF
    // — the event that would have requested the drain — can never be
    // observed anymore. Its peer is gone either way: drain now.
    RequestDrain();
  }
  return false;
}

void PlanServer::HandleLine(const std::shared_ptr<Session>& session,
                            std::string line) {
  ++session->line_number;
  const std::string_view stripped = StripWhitespace(line);
  if (stripped.empty() || stripped.front() == '#') return;

  if (stripped == "shutdown") {
    // Control verb (server-only, not part of the offline grammar): same
    // drain ladder as the first SIGTERM.
    WriteLine(session, "shutdown ok draining");
    RequestDrain();
    return;
  }

  if (IsEditDirective(stripped)) {
    Result<graph::GraphDelta> delta =
        ParseEditLine(stripped, session->line_number);
    if (!delta.ok()) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      WriteLine(session, StrFormat("edit error %s",
                                   delta.status().ToString().c_str()));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Drain admits no new work, edits included. Checked under mu_
      // because the solve loop's exit check (draining + empty queue +
      // no pending edits) also runs under mu_: an edit pushed here is
      // either seen by that check or shed here — never queued after the
      // loop has already exited.
      if (draining_.load(std::memory_order_acquire)) {
        WriteLine(session, "edit shed reason=draining");
        return;
      }
      PendingEdit edit;
      // The barrier: the edit applies after every request admitted up to
      // now (epoch E) and before anything admitted from here on (E+1).
      edit.after_epoch =
          admission_epoch_.fetch_add(1, std::memory_order_acq_rel);
      edit.delta = std::move(*delta);
      edit.session = session;
      edit.line_number = session->line_number;
      edits_.push_back(std::move(edit));
    }
    work_cv_.notify_all();
    return;
  }

  // Request line. Admission happens here, on the raw line, before any
  // parse: overload feedback must not queue behind solving.
  QueuedItem item;
  item.client = session->id;
  item.epoch = admission_epoch_.load(std::memory_order_acquire);
  item.deadline_ms = ScanDeadlineMs(stripped);
  item.request_index = session->request_index;
  item.line_number = session->line_number;
  item.line = std::string(stripped);
  // The index advances even when the request sheds — names must stay
  // aligned with the client's own line accounting.
  ++session->request_index;
  AdmissionDecision decision =
      queue_.Offer(std::move(item), draining_.load(std::memory_order_acquire));
  if (!decision.admitted) {
    std::string_view name = ScanToken(stripped, "name=");
    const std::string label =
        name.empty() ? StrFormat("r%zu", session->request_index - 1)
                     : std::string(name);
    // The wire form of kUnavailable + retry-after: the one retryable
    // status in the model (Status::IsRetryable), so a well-behaved
    // client backs off and retries rather than failing the request.
    WriteLine(session,
              StrFormat("%s shed Unavailable reason=%s retry_after_ms=%llu",
                        label.c_str(), ShedReasonName(decision.reason),
                        static_cast<unsigned long long>(
                            decision.retry_after_ms)));
    return;
  }
  work_cv_.notify_all();
}

void PlanServer::HandleSessionReadable(
    const std::shared_ptr<Session>& session) {
  char buffer[4096];
  Result<size_t> got =
      net::ReadSome(session->fd_in, buffer, sizeof(buffer), "net.read");
  if (!got.ok()) {
    if (got.status().code() == StatusCode::kUnavailable) {
      return;  // transient (injected or spurious poll): try next round
    }
    // Permanent read error: the connection is unusable. CloseSession
    // counts a buffered partial line as a torn frame.
    CloseSession(session);
    return;
  }
  if (*got == 0) {  // EOF: the client finished sending
    // A partial line still buffered means the client died mid-line. The
    // tail is NOT a request — a torn frame must never become a
    // truncated-but-valid one; CloseSession counts and drops it.
    session->input_closed = true;
    // `tpp serve --stdio < script`: end of script means drain — finish
    // everything admitted, then exit (AdmitBacklog requests it once the
    // held lines are in). This makes the stdio server a superset of the
    // offline batch run. Socket sessions stay open for writes: queued
    // work still answers (shutdown(SHUT_WR) clients read responses after
    // sending).
    AdmitBacklog(session, /*hold=*/true);
    return;
  }
  ConsumeInput(session, std::string_view(buffer, *got));
}

void PlanServer::ConsumeInput(const std::shared_ptr<Session>& session,
                              std::string_view bytes) {
  std::vector<std::string> lines = session->assembler.Feed(bytes);
  if (session->assembler.TakeOverflow()) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    session->backlog.emplace_back(kOversizedLine);
  }
  for (std::string& line : lines) {
    session->backlog.push_back(std::move(line));
  }
  AdmitBacklog(session, /*hold=*/true);
}

void PlanServer::AdmitBacklog(const std::shared_ptr<Session>& session,
                              bool hold) {
  while (!session->backlog.empty()) {
    // A pipe cannot retry a shed, so a stdio request line waits while
    // admission would shed it for want of room that queued work frees.
    if (hold && session->is_stdio &&
        !draining_.load(std::memory_order_acquire) &&
        IsRequestLine(session->backlog.front()) &&
        queue_.MustWait(session->id,
                        StripWhitespace(session->backlog.front()).size())) {
      return;  // the solve loop wakes the IO thread after every pickup
    }
    std::string line = std::move(session->backlog.front());
    session->backlog.pop_front();
    if (line == kOversizedLine) {
      // The discarded line still advances the session's line/request
      // counters — the client sent it and numbers its own stream by it —
      // so later default r<N> names stay aligned, and the error reply
      // carries the label the discarded request would have answered
      // under.
      ++session->line_number;
      const size_t index = session->request_index++;
      WriteLine(session, StrFormat("r%zu error line exceeds maximum length",
                                   index));
    } else {
      HandleLine(session, std::move(line));
    }
  }
  if (session->is_stdio && session->input_closed) RequestDrain();
}

void PlanServer::CloseSession(const std::shared_ptr<Session>& session) {
#if TPP_SERVER_POSIX
  if (session->fd_in >= 0 && !session->input_closed) {
    // A session can die on a failed write, or the server can finish,
    // before the IO thread has read all the peer sent: more lines, a torn
    // tail, its EOF. Read that input now, without blocking, and handle it
    // as if it had been read in time, so what is admitted (a dead
    // session's work is then dropped with the rest of its queue) and what
    // counts as torn do not depend on which thread got there first.
    char buffer[4096];
    for (size_t drained = 0; drained < kMaxCloseDrainBytes;) {
      pollfd ready{session->fd_in, POLLIN, 0};
      if (::poll(&ready, 1, /*timeout_ms=*/0) <= 0 || ready.revents == 0) {
        break;
      }
      Result<size_t> got =
          net::ReadSome(session->fd_in, buffer, sizeof(buffer), "");
      if (!got.ok() || *got == 0) break;
      ConsumeInput(session, std::string_view(buffer, *got));
      drained += *got;
    }
  }
#endif
  AdmitBacklog(session, /*hold=*/false);
  // The one place every session ends: a partial line still buffered is a
  // torn frame, counted once and discarded unparsed.
  if (session->assembler.pending_bytes() > 0) {
    torn_frames_.fetch_add(1, std::memory_order_relaxed);
  }
  session->assembler.Reset();
  session->input_closed = true;
  const size_t orphaned = queue_.DropClient(session->id);
  dropped_responses_.fetch_add(orphaned, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(session->write_mu);
  session->dead.store(true, std::memory_order_release);
#if TPP_SERVER_POSIX
  if (session->owns_fds) {
    if (session->fd_in >= 0) ::close(session->fd_in);
    if (session->fd_out >= 0 && session->fd_out != session->fd_in) {
      ::close(session->fd_out);
    }
  }
#endif
  session->fd_in = -1;
  session->fd_out = -1;
  if (session->is_stdio) {
    // A closed stdio session can never deliver the EOF that would have
    // requested the drain; its peer is gone either way. (Idempotent on
    // the normal EOF path, where drain is already requested.)
    RequestDrain();
  }
}

void PlanServer::PruneSessions() {
  // Closed outside mu_: closing handles a dead session's unread lines,
  // and an edit line takes mu_.
  std::vector<std::shared_ptr<Session>> retired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      const std::shared_ptr<Session>& session = it->second;
      bool retire = session->dead.load(std::memory_order_acquire);
      if (!retire && session->input_closed && session->backlog.empty() &&
          queue_.ClientIdle(session->id)) {
        // Input done and every admitted request answered (in-flight
        // items hold their slot until AFTER their response is written,
        // so an idle client has nothing left to receive) — unless a
        // pending edit still owes this session its reply.
        retire = true;
        for (const PendingEdit& edit : edits_) {
          if (edit.session == session) {
            retire = false;
            break;
          }
        }
      }
      if (retire) {
        retired.push_back(session);
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const std::shared_ptr<Session>& session : retired) {
    CloseSession(session);
  }
}

#if TPP_SERVER_POSIX

void PlanServer::IoLoop(int listener_fd, int wake_fd) {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Session>> polled;
  while (!io_done_.load(std::memory_order_acquire)) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_fd, POLLIN, 0});
    size_t signal_slot = SIZE_MAX;
    if (options_.signal_fd >= 0) {
      signal_slot = fds.size();
      fds.push_back({options_.signal_fd, POLLIN, 0});
    }
    // Drain closes the front door: the listener leaves the poll set, so
    // new connect attempts queue in the kernel backlog and die with the
    // listener at exit instead of being accepted and immediately shed.
    size_t listener_slot = SIZE_MAX;
    if (listener_fd >= 0 && !draining_.load(std::memory_order_acquire)) {
      listener_slot = fds.size();
      fds.push_back({listener_fd, POLLIN, 0});
    }
    // Held stdio lines go in as the solve loop frees their client's slots
    // (outside mu_: an edit line takes it).
    std::vector<std::shared_ptr<Session>> holding;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, session] : sessions_) {
        if (!session->backlog.empty()) holding.push_back(session);
      }
    }
    for (const std::shared_ptr<Session>& session : holding) {
      AdmitBacklog(session, /*hold=*/true);
    }
    const size_t session_base = fds.size();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, session] : sessions_) {
        // A stdio session that still holds lines, or has no room for
        // another, is not read: the pipe itself holds the rest of the
        // script.
        const bool held = session->is_stdio &&
                          (!session->backlog.empty() ||
                           queue_.MustWait(session->id, 0));
        if (session->fd_in >= 0 && !session->input_closed && !held &&
            !session->dead.load(std::memory_order_acquire)) {
          fds.push_back({session->fd_in, POLLIN, 0});
          polled.push_back(session);
        }
      }
    }
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;  // signal: loop re-reads the flags
      break;                         // poll itself broken; drain via flags
    }
    // Wake pipe: drained and discarded — its only job is ending poll().
    if (fds[0].revents & POLLIN) {
      char sink[64];
      while (::read(wake_fd, sink, sizeof(sink)) > 0) {
      }
    }
    // Shutdown pipe: one byte per delivered signal. First byte drains,
    // the second escalates to abort (SIGTERM SIGTERM == "now").
    if (signal_slot != SIZE_MAX && (fds[signal_slot].revents & POLLIN)) {
      char sink[16];
      const ssize_t n = ::read(options_.signal_fd, sink, sizeof(sink));
      for (ssize_t i = 0; i < n; ++i) {
        if (draining_.load(std::memory_order_acquire)) {
          RequestAbort();
        } else {
          RequestDrain();
        }
      }
    }
    if (listener_slot != SIZE_MAX &&
        (fds[listener_slot].revents & POLLIN)) {
      Result<int> accepted = net::AcceptRetry(listener_fd);
      if (accepted.ok()) {
        auto session = std::make_shared<Session>();
        session->fd_in = *accepted;
        session->fd_out = *accepted;
        connections_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        session->id = next_session_id_++;
        sessions_.emplace(session->id, std::move(session));
      }
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[session_base + i].revents;
      if (revents & (POLLIN | POLLHUP | POLLERR)) {
        HandleSessionReadable(polled[i]);
      }
    }
    // Retire dead and fully-answered half-closed sessions every cycle
    // (<= 100ms): a long-lived server must not accumulate one open fd
    // and one Session per historical connection.
    PruneSessions();
  }
}

Status PlanServer::Serve() {
  // A zero pickup size would leave every admitted request queued forever.
  if (options_.max_batch == 0) {
    return Status::InvalidArgument("max_batch must be at least 1");
  }
  int listener_fd = -1;
  if (!options_.socket_path.empty()) {
    // Bind under a sibling name and rename into place once listening: a
    // client that waits for the path to appear never meets a bound socket
    // that still refuses connections. The rename also replaces a stale
    // socket file, the expected debris after kill -9, so restart just
    // works.
    const std::string staging = options_.socket_path + "~";
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    if (staging.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("socket path too long: " +
                                     options_.socket_path);
    }
    listener_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener_fd < 0) return Status::IoError("cannot create socket");
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, staging.c_str(), staging.size());
    ::unlink(staging.c_str());
    if (::bind(listener_fd, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listener_fd, 64) != 0 ||
        ::rename(staging.c_str(), options_.socket_path.c_str()) != 0) {
      ::close(listener_fd);
      ::unlink(staging.c_str());
      return Status::IoError("cannot bind/listen on " + options_.socket_path);
    }
  }
  int wake_fds[2];
  if (::pipe(wake_fds) != 0) {
    if (listener_fd >= 0) ::close(listener_fd);
    return Status::IoError("cannot create wake pipe");
  }
  // Non-blocking both ends: the IO thread drains opportunistically and a
  // full pipe must never block a drain request.
  ::fcntl(wake_fds[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_fds[1], F_SETFL, O_NONBLOCK);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_write_ = wake_fds[1];
  }

  if (options_.stdio) {
    auto session = std::make_shared<Session>();
    session->fd_in = options_.stdio_in;
    session->fd_out = options_.stdio_out;
    session->is_stdio = true;
    session->owns_fds = false;  // the process owns its stdio
    connections_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    session->id = next_session_id_++;
    sessions_.emplace(session->id, std::move(session));
  }

  std::thread io_thread([this, listener_fd, wake_read = wake_fds[0]] {
    IoLoop(listener_fd, wake_read);
  });
  SolveLoop();
  io_done_.store(true, std::memory_order_release);
  Wake();
  io_thread.join();

  std::unordered_map<uint64_t, std::shared_ptr<Session>> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    open.swap(sessions_);
  }
  for (const auto& [id, session] : open) CloseSession(session);
  if (listener_fd >= 0) {
    ::close(listener_fd);
    ::unlink(options_.socket_path.c_str());
  }
  ::close(wake_fds[0]);
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    ::close(wake_fds[1]);
    wake_write_ = -1;
  }
  return Status::Ok();
}

#else  // !TPP_SERVER_POSIX

void PlanServer::IoLoop(int, int) {}

Status PlanServer::Serve() {
  return Status::Unimplemented("tpp serve requires POSIX");
}

#endif  // TPP_SERVER_POSIX

void PlanServer::ApplyPendingEditsLocked() {
  // An edit applies exactly when every request admitted BEFORE it has
  // been picked up and answered (the solve loop is the single consumer,
  // so nothing of the old epoch is in flight here) and nothing admitted
  // AFTER it has started. That is the drain point PlanService::ApplyEdit
  // requires; its serving-state guard never trips on this path.
  while (!edits_.empty() && edits_.front().after_epoch == solve_epoch_ &&
         queue_.DepthAtOrBefore(solve_epoch_) == 0) {
    PendingEdit edit = std::move(edits_.front());
    edits_.pop_front();
    Result<EditSummary> summary = service_->ApplyEdit(
        edit.delta, options_.cache, options_.repository);
    // The epoch advances even on failure: later items were admitted
    // under the bumped epoch regardless, and holding them hostage to a
    // failed edit would wedge the queue.
    ++solve_epoch_;
    if (summary.ok()) {
      edits_applied_.fetch_add(1, std::memory_order_relaxed);
      WriteLine(edit.session,
                StrFormat("edit ok inserted=%zu removed=%zu "
                          "fingerprint=%016llx",
                          summary->inserted, summary->removed,
                          static_cast<unsigned long long>(
                              summary->new_fingerprint)));
    } else {
      edits_failed_.fetch_add(1, std::memory_order_relaxed);
      WriteLine(edit.session, StrFormat("edit error %s",
                                        summary.status().ToString().c_str()));
    }
  }
}

void PlanServer::SolveLoop() {
  for (;;) {
    if (options_.before_pickup) options_.before_pickup();
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        ApplyPendingEditsLocked();
        if (queue_.DepthAtOrBefore(solve_epoch_) > 0) break;
        if (draining_.load(std::memory_order_acquire) &&
            queue_.Depth() == 0 && edits_.empty()) {
          return;
        }
        // Timed wait: a notify can race the unlocked Offer path, and the
        // drain flag can flip without a notify from a signal handler
        // context. 20ms bounds the staleness either way.
        work_cv_.wait_for(lock, std::chrono::milliseconds(20));
      }
    }
    std::vector<QueuedItem> taken =
        queue_.TakeRoundRobin(solve_epoch_, options_.max_batch);
    if (taken.empty()) continue;
    const bool draining_now = draining_.load(std::memory_order_acquire);
    for (const QueuedItem& item : taken) {
      if (options_.on_pickup) options_.on_pickup(item);
    }

    // Parse on the solve loop — a malformed line answers an error line
    // in place, exactly where its response would go, and costs the IO
    // thread nothing.
    std::vector<PlanRequest> requests;
    std::vector<size_t> request_to_item(taken.size(), SIZE_MAX);
    std::vector<std::string> replies(taken.size());
    std::vector<std::shared_ptr<Session>> targets(taken.size());
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t i = 0; i < taken.size(); ++i) {
        auto it = sessions_.find(taken[i].client);
        if (it != sessions_.end()) targets[i] = it->second;
      }
    }
    for (size_t i = 0; i < taken.size(); ++i) {
      Result<PlanRequest> parsed = ParsePlanRequestLine(
          taken[i].line, taken[i].line_number, taken[i].request_index);
      if (!parsed.ok()) {
        parse_errors_.fetch_add(1, std::memory_order_relaxed);
        replies[i] = StrFormat("r%zu error %s", taken[i].request_index,
                               parsed.status().ToString().c_str());
        continue;
      }
      parsed->cancel = &server_token_;  // abort escalation reaches solves
      request_to_item[requests.size()] = i;
      requests.push_back(std::move(*parsed));
    }

    if (!requests.empty()) {
      BatchOptions batch_options;
      batch_options.max_workers = options_.max_workers;
      batch_options.cache = options_.cache;
      batch_options.store = options_.store;
      batch_options.repository = options_.repository;
      std::vector<PlanResponse> batch_responses =
          service_->RunBatch(requests, batch_options);
      for (size_t r = 0; r < batch_responses.size(); ++r) {
        const size_t i = request_to_item[r];
        replies[i] = FormatResponseLine(requests[r], batch_responses[r]);
        if (batch_responses[r].status.code() == StatusCode::kAborted) {
          aborted_in_flight_.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }

    for (size_t i = 0; i < taken.size(); ++i) {
      bool delivered = false;
      if (targets[i] != nullptr) {
        delivered = WriteLine(targets[i], replies[i]);
      }
      if (delivered) {
        responses_.fetch_add(1, std::memory_order_relaxed);
        if (draining_now) {
          drained_in_flight_.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        dropped_responses_.fetch_add(1, std::memory_order_relaxed);
      }
      queue_.Finish(taken[i].client);
    }
    // A stdio session may be holding lines until the pickup's room frees
    // up; the IO thread re-checks on wake.
    if (options_.stdio) Wake();
  }
}

}  // namespace tpp::service::server
