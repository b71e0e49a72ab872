#include "client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <thread>
#include <unordered_map>

#include "stats.h"

namespace servebench {

using tpp::Status;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

struct Conn {
  int fd = -1;
  std::string inbuf;
  std::unordered_map<std::string, size_t> outstanding;  // label -> line
  std::deque<size_t> edits;  // outstanding edits, in send order
  size_t in_flight = 0;
};

int ConnectOnce(const std::string& path) {
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

class LoadLoop {
 public:
  LoadLoop(std::vector<Conn>* conns, const std::vector<ScriptLine>& lines,
         ClientRun* run, double deadline_s)
      : conns_(*conns), lines_(lines), run_(*run), deadline_s_(deadline_s) {}

  Status Send(size_t i) {
    const ScriptLine& line = lines_[i];
    Conn& c = conns_[line.connection];
    if (line.edit) {
      c.edits.push_back(i);
    } else {
      c.outstanding[line.label] = i;
    }
    ++c.in_flight;
    const std::string framed = line.text + "\n";
    run_.send_s[i] = NowSeconds();
    size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::write(c.fd, framed.data() + off, framed.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IoError("write to server failed");
      off += static_cast<size_t>(n);
    }
    return Status::Ok();
  }

  /// Waits up to `timeout_s` for replies and records every one that
  /// arrived. Returns how many lines were answered.
  tpp::Result<size_t> Poll(double timeout_s) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) fds.push_back({c.fd, POLLIN, 0});
    timeout_s = std::max(0.0, std::min(timeout_s, 0.05));
    timespec ts;
    ts.tv_sec = static_cast<time_t>(timeout_s);
    ts.tv_nsec = static_cast<long>((timeout_s - ts.tv_sec) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0) {
      if (errno == EINTR) return size_t{0};
      return Status::IoError("poll failed");
    }
    size_t answered = 0;
    char buf[65536];
    for (size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::read(conns_[k].fd, buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return Status::IoError("server closed the connection");
      const double now = NowSeconds();
      Conn& c = conns_[k];
      c.inbuf.append(buf, static_cast<size_t>(n));
      size_t start = 0;
      for (size_t nl; (nl = c.inbuf.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        answered += OnReply(k, c.inbuf.substr(start, nl - start), now);
      }
      c.inbuf.erase(0, start);
    }
    return answered;
  }

  bool Expired() const { return NowSeconds() > deadline_s_; }

 private:
  size_t OnReply(size_t k, std::string reply, double now) {
    Conn& c = conns_[k];
    const std::string label = reply.substr(0, reply.find(' '));
    size_t i = 0;
    if (label == "edit") {
      if (c.edits.empty()) return ++run_.stray_replies, 0;
      i = c.edits.front();
      c.edits.pop_front();
    } else {
      auto it = c.outstanding.find(label);
      if (it == c.outstanding.end()) return ++run_.stray_replies, 0;
      i = it->second;
      c.outstanding.erase(it);
    }
    --c.in_flight;
    run_.recv_s[i] = now;
    run_.replies[i] = std::move(reply);
    run_.arrival_order[k].push_back(i);
    return 1;
  }

  std::vector<Conn>& conns_;
  const std::vector<ScriptLine>& lines_;
  ClientRun& run_;
  double deadline_s_;
};

}  // namespace

Status RunClient(const std::string& socket_path, size_t connections,
                 size_t window, const std::vector<ScriptLine>& lines,
                 double timeout_s, ClientRun* run) {
  const size_t n = lines.size();
  run->send_s.assign(n, 0);
  run->due_s.assign(n, 0);
  run->recv_s.assign(n, 0);
  run->replies.assign(n, "");
  run->arrival_order.assign(connections, {});

  std::vector<Conn> conns(connections);
  struct Closer {
    std::vector<Conn>& conns;
    ~Closer() {
      for (Conn& c : conns) {
        if (c.fd >= 0) ::close(c.fd);
      }
    }
  } closer{conns};
  const double connect_by = NowSeconds() + 10;
  for (Conn& c : conns) {
    while ((c.fd = ConnectOnce(socket_path)) < 0) {
      if (NowSeconds() > connect_by) {
        return Status::IoError("cannot connect to " + socket_path);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  LoadLoop loop(&conns, lines, run, NowSeconds() + timeout_s);
  // A segment is a run of consecutive lines of one phase and round; each
  // is answered in full before the next starts.
  for (size_t begin = 0, end = 0; begin < n; begin = end) {
    const Phase phase = lines[begin].phase;
    end = begin;
    while (end < n && lines[end].phase == phase && lines[end].round == lines[begin].round) {
      ++end;
    }
    std::vector<size_t> todo;
    std::vector<std::deque<size_t>> queues(connections);
    for (size_t i = begin; i < end; ++i) {
      todo.push_back(i);
      queues[lines[i].connection].push_back(i);
    }
    size_t answered = 0;
    size_t next = 0;
    const double start = NowSeconds() + 0.005;
    while (answered < todo.size()) {
      if (loop.Expired()) {
        run->timed_out = true;
        return Status::Ok();
      }
      double wait_s = 0.05;
      const double now = NowSeconds();
      if (phase == Phase::kOpen) {
        while (next < todo.size() && start + lines[todo[next]].due_s <= now) {
          run->due_s[todo[next]] = start + lines[todo[next]].due_s;
          TPP_RETURN_IF_ERROR(loop.Send(todo[next]));
          ++next;
        }
        if (next < todo.size()) {
          wait_s = start + lines[todo[next]].due_s - NowSeconds();
        }
      } else {
        const size_t limit = phase == Phase::kProbe ? 1 : window;
        for (size_t k = 0; k < connections; ++k) {
          while (!queues[k].empty() && conns[k].in_flight < limit) {
            TPP_RETURN_IF_ERROR(loop.Send(queues[k].front()));
            queues[k].pop_front();
          }
        }
      }
      TPP_ASSIGN_OR_RETURN(size_t got, loop.Poll(wait_s));
      answered += got;
    }
    if (phase == Phase::kClosed) {
      double last = start;
      for (size_t i : todo) last = std::max(last, run->recv_s[i]);
      run->closed_s += last - start;
    }
  }
  return Status::Ok();
}

ClientReport Analyze(const std::vector<ScriptLine>& lines,
                     const ClientRun& run, size_t connections) {
  ClientReport report;
  std::vector<std::vector<size_t>> sent_order(connections);
  for (size_t i = 0; i < lines.size(); ++i) {
    const ScriptLine& line = lines[i];
    PhaseCounts& counts = line.phase == Phase::kWarm     ? report.warm
                          : line.phase == Phase::kOpen   ? report.open
                          : line.phase == Phase::kClosed ? report.closed
                                                         : report.probe;
    ++report.attempted;
    if (run.send_s[i] > 0) {
      ++counts.sent;
      sent_order[line.connection].push_back(i);
    }
    const std::string& reply = run.replies[i];
    bool ok = false;
    if (run.recv_s[i] == 0) {
      ++counts.failed;
    } else if (reply.find(" shed ") != std::string::npos ||
               reply.rfind("edit shed", 0) == 0) {
      ++counts.shed;
    } else if (reply != line.expected) {
      ++counts.mismatched;
      if (report.first_mismatches.size() < 3) {
        report.first_mismatches.push_back("got: " + reply +
                                          " | want: " + line.expected);
      }
    } else if (reply.find(" error ") != std::string::npos ||
               reply.rfind("edit error", 0) == 0) {
      ++counts.failed;
    } else {
      ok = true;
      ++counts.ok;
    }
    if (!ok) ++report.not_ok;
    if (line.edit && ok) {
      report.edit_latency_ms.push_back(1e3 * (run.recv_s[i] - run.send_s[i]));
    }
    if (line.phase == Phase::kOpen && run.send_s[i] > 0) {
      report.lag_ms.push_back(1e3 * (run.send_s[i] - run.due_s[i]));
      if (!line.edit && ok) {
        report.latency_ms.push_back(1e3 * (run.recv_s[i] - run.due_s[i]));
      }
    }
    if (line.phase == Phase::kClosed && !line.edit && ok) ++report.closed_ok_requests;
  }
  report.throughput_rps =
      run.closed_s > 0 ? static_cast<double>(report.closed_ok_requests) / run.closed_s : 0;
  if (connections == 1) {
    report.transcript_ok = run.arrival_order[0] == sent_order[0];
  }
  report.not_ok += run.stray_replies;
  if (!report.transcript_ok) ++report.not_ok;
  return report;
}

}  // namespace servebench
