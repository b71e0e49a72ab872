// Lifecycle tests for the plan server (service/server/): newline
// framing, bounded admission with deterministic shedding, round-robin
// fairness, graceful drain under load, abort escalation, torn frames
// from clients dying mid-line, injected net faults, and kill-and-restart
// byte-identity over a warm store. Every server test drives a real
// Serve() instance over pipes or a Unix-domain socket; determinism comes
// from the before_pickup gate (freeze the solve loop, flood the IO
// thread, assert exact shed counts) rather than sleeps.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <cstring>

#include "common/fault_injection.h"
#include "common/net_io.h"
#include "common/strings.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "service/instance_repository.h"
#include "service/plan_service.h"
#include "service/server/admission.h"
#include "service/server/framing.h"
#include "service/server/server.h"
#include "service/store/warm_store.h"
#include "test_util.h"

namespace tpp::service::server {
namespace {

using graph::Graph;

// ---------------------------------------------------------------------
// LineAssembler

TEST(LineAssembler, ReassemblesAcrossArbitrarySplits) {
  LineAssembler assembler;
  std::vector<std::string> lines = assembler.Feed("ab");
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(assembler.pending_bytes(), 2u);
  lines = assembler.Feed("c\nsecond line\nta");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "abc");
  EXPECT_EQ(lines[1], "second line");
  EXPECT_EQ(assembler.pending_bytes(), 2u);
  lines = assembler.Feed("il\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "tail");
  EXPECT_EQ(assembler.pending_bytes(), 0u);
}

TEST(LineAssembler, StripsCarriageReturns) {
  LineAssembler assembler;
  std::vector<std::string> lines = assembler.Feed("crlf line\r\nplain\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "crlf line");
  EXPECT_EQ(lines[1], "plain");
}

TEST(LineAssembler, OversizedLineDiscardedNotTruncated) {
  LineAssembler assembler(/*max_line_bytes=*/8);
  std::vector<std::string> lines = assembler.Feed("0123456789abcdef");
  EXPECT_TRUE(lines.empty());
  EXPECT_TRUE(assembler.overflowed());
  // The oversized line's eventual newline must NOT yield a truncated
  // line; the next line frames normally.
  lines = assembler.Feed("stilltoolong\nok\n");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "ok");
  EXPECT_TRUE(assembler.TakeOverflow());
  EXPECT_FALSE(assembler.overflowed());
}

// ---------------------------------------------------------------------
// AdmissionQueue

QueuedItem Item(uint64_t client, std::string line, uint64_t deadline_ms = 0,
                uint64_t epoch = 0) {
  QueuedItem item;
  item.client = client;
  item.line = std::move(line);
  item.deadline_ms = deadline_ms;
  item.epoch = epoch;
  return item;
}

TEST(AdmissionQueue, ShedsPastDepthHighWaterMark) {
  AdmissionOptions options;
  options.max_queue_depth = 3;
  options.max_per_client = 0;
  AdmissionQueue queue(options);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(queue.Offer(Item(1, "r"), false).admitted);
  }
  AdmissionDecision shed = queue.Offer(Item(1, "r"), false);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, ShedReason::kQueueFull);
  EXPECT_GT(shed.retry_after_ms, 0u);
  EXPECT_EQ(queue.shed(ShedReason::kQueueFull), 1u);
  EXPECT_EQ(queue.admitted(), 3u);
  // Draining a slot reopens admission.
  EXPECT_EQ(queue.TakeRoundRobin(0, 1).size(), 1u);
  EXPECT_TRUE(queue.Offer(Item(1, "r"), false).admitted);
}

TEST(AdmissionQueue, ShedsOnQueuedBytesAndClientCap) {
  AdmissionOptions options;
  options.max_queue_depth = 100;
  options.max_queued_bytes = 10;
  options.max_per_client = 2;
  AdmissionQueue queue(options);
  EXPECT_TRUE(queue.Offer(Item(1, "aaaa"), false).admitted);
  AdmissionDecision bytes = queue.Offer(Item(2, "bbbbbbbb"), false);
  EXPECT_FALSE(bytes.admitted);
  EXPECT_EQ(bytes.reason, ShedReason::kQueuedBytes);
  EXPECT_TRUE(queue.Offer(Item(1, "a"), false).admitted);
  AdmissionDecision cap = queue.Offer(Item(1, "a"), false);
  EXPECT_FALSE(cap.admitted);
  EXPECT_EQ(cap.reason, ShedReason::kClientCap);
  // In-flight work still counts against the cap until Finish.
  EXPECT_EQ(queue.TakeRoundRobin(0, 2).size(), 2u);
  EXPECT_FALSE(queue.Offer(Item(1, "a"), false).admitted);
  queue.Finish(1);
  queue.Finish(1);
  EXPECT_TRUE(queue.Offer(Item(1, "a"), false).admitted);
}

TEST(AdmissionQueue, DeadlineHopelessShedsAtTheDoor) {
  AdmissionOptions options;
  options.max_queue_depth = 100;
  options.max_per_client = 0;
  options.est_request_ms = 1000;
  AdmissionQueue queue(options);
  EXPECT_TRUE(queue.Offer(Item(1, "r"), false).admitted);
  EXPECT_TRUE(queue.Offer(Item(1, "r"), false).admitted);
  // Two queued at ~1000ms each: a 500ms deadline cannot be met.
  AdmissionDecision hopeless = queue.Offer(Item(2, "r", 500), false);
  EXPECT_FALSE(hopeless.admitted);
  EXPECT_EQ(hopeless.reason, ShedReason::kDeadlineHopeless);
  // A roomy deadline admits; an untagged request always passes the rule.
  EXPECT_TRUE(queue.Offer(Item(2, "r", 60000), false).admitted);
  EXPECT_TRUE(queue.Offer(Item(2, "r"), false).admitted);
}

TEST(AdmissionQueue, RoundRobinAcrossClients) {
  AdmissionOptions options;
  options.max_per_client = 0;
  AdmissionQueue queue(options);
  // Client 1 floods, clients 2 and 3 trickle.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Offer(Item(1, StrFormat("a%d", i)), false).admitted);
  }
  ASSERT_TRUE(queue.Offer(Item(2, "b0"), false).admitted);
  ASSERT_TRUE(queue.Offer(Item(3, "c0"), false).admitted);
  std::vector<QueuedItem> taken = queue.TakeRoundRobin(0, 6);
  ASSERT_EQ(taken.size(), 6u);
  // One per client per rotation: the trickle clients are served within
  // the first rotation despite the firehose backlog.
  EXPECT_EQ(taken[0].line, "a0");
  EXPECT_EQ(taken[1].line, "b0");
  EXPECT_EQ(taken[2].line, "c0");
  EXPECT_EQ(taken[3].line, "a1");
  EXPECT_EQ(taken[4].line, "a2");
  EXPECT_EQ(taken[5].line, "a3");
}

TEST(AdmissionQueue, EpochBarrierHoldsLaterItems) {
  AdmissionOptions options;
  options.max_per_client = 0;
  AdmissionQueue queue(options);
  ASSERT_TRUE(queue.Offer(Item(1, "old", 0, /*epoch=*/0), false).admitted);
  ASSERT_TRUE(queue.Offer(Item(1, "new", 0, /*epoch=*/1), false).admitted);
  ASSERT_TRUE(queue.Offer(Item(2, "new2", 0, /*epoch=*/1), false).admitted);
  std::vector<QueuedItem> taken = queue.TakeRoundRobin(/*epoch=*/0, 10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].line, "old");
  EXPECT_EQ(queue.DepthAtOrBefore(0), 0u);
  EXPECT_EQ(queue.Depth(), 2u);
  taken = queue.TakeRoundRobin(/*epoch=*/1, 10);
  EXPECT_EQ(taken.size(), 2u);
}

TEST(AdmissionQueue, DrainingShedsAndDropClientReleases) {
  AdmissionOptions options;
  AdmissionQueue queue(options);
  ASSERT_TRUE(queue.Offer(Item(1, "abc"), false).admitted);
  AdmissionDecision drained = queue.Offer(Item(1, "r"), true);
  EXPECT_FALSE(drained.admitted);
  EXPECT_EQ(drained.reason, ShedReason::kDraining);
  EXPECT_EQ(queue.DropClient(1), 1u);
  EXPECT_EQ(queue.Depth(), 0u);
}

TEST(AdmissionQueue, StopAdmissionClosesTheDoorAndClientIdleTracksDrain) {
  AdmissionQueue queue(AdmissionOptions{});
  ASSERT_TRUE(queue.Offer(Item(1, "a"), false).admitted);
  EXPECT_FALSE(queue.ClientIdle(1));
  EXPECT_TRUE(queue.ClientIdle(2));  // never-seen client is idle
  queue.StopAdmission();
  AdmissionDecision shed = queue.Offer(Item(1, "b"), false);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.reason, ShedReason::kDraining);
  // Already-admitted work still drains; the client stays non-idle until
  // its in-flight slot releases.
  ASSERT_EQ(queue.TakeRoundRobin(0, 10).size(), 1u);
  EXPECT_FALSE(queue.ClientIdle(1));
  queue.Finish(1);
  EXPECT_TRUE(queue.ClientIdle(1));
}

// ---------------------------------------------------------------------
// Server harness

// Small but non-trivial base: responses take real (sub-millisecond) work
// but a whole test stays fast.
Graph TestBase() {
  Rng rng(20240809);
  return *graph::HolmeKim(400, 3, 0.3, rng);
}

constexpr const char* kScript[] = {
    "algorithm=sgb sample=4 seed=3 budget=6",
    "name=rect algorithm=sgb sample=3 seed=5 budget=4 motif=Rectangle",
    "algorithm=sgb sample=5 seed=11 budget=5",
};

// Owns a serving PlanServer over a pipe pair (one stdio session) plus
// its thread; reads transcript lines with a poll deadline so a hung
// server fails the test instead of wedging the suite.
class StdioServer {
 public:
  explicit StdioServer(ServerOptions options,
                       store::WarmStore* store = nullptr,
                       Graph base = TestBase())
      : service_(std::move(base)), repository_(&service_.base()) {
    TPP_CHECK(::pipe(in_pipe_) == 0 && ::pipe(out_pipe_) == 0);
    options.stdio = true;
    options.stdio_in = in_pipe_[0];
    options.stdio_out = out_pipe_[1];
    // Store only, deliberately no PlanCache: the restart test asserts the
    // second server warm-starts from index SNAPSHOTS, which a plan-cache
    // hit would bypass.
    options.store = store;
    options.repository = &repository_;
    server_ = std::make_unique<PlanServer>(&service_, std::move(options));
    thread_ = std::thread([this] { served_ = server_->Serve(); });
  }

  ~StdioServer() {
    EndInput();
    if (thread_.joinable()) thread_.join();
    ::close(in_pipe_[0]);
    ::close(out_pipe_[0]);
    ::close(out_pipe_[1]);
  }

  void Send(const std::string& text) {
    TPP_CHECK(net::WriteAll(in_pipe_[1], text.data(), text.size()).ok());
  }

  void EndInput() {
    if (in_pipe_[1] >= 0) {
      ::close(in_pipe_[1]);
      in_pipe_[1] = -1;
    }
  }

  /// Blocks (with a 30s safety deadline) until `n` full lines arrived.
  std::vector<std::string> ReadLines(size_t n) {
    std::vector<std::string> lines;
    while (lines.size() < n) {
      pollfd pfd{out_pipe_[0], POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 30000);
      TPP_CHECK(ready > 0);
      char buffer[4096];
      Result<size_t> got =
          net::ReadSome(out_pipe_[0], buffer, sizeof(buffer));
      TPP_CHECK(got.ok() && *got > 0);
      for (std::string& line :
           reader_.Feed(std::string_view(buffer, *got))) {
        lines.push_back(std::move(line));
      }
    }
    TPP_CHECK(lines.size() == n);  // no unexpected extra traffic
    return lines;
  }

  Status Join() {
    EndInput();
    thread_.join();
    return served_;
  }

  PlanServer& server() { return *server_; }
  PlanService& service() { return service_; }
  InstanceRepository& repository() { return repository_; }

 private:
  PlanService service_;
  InstanceRepository repository_;
  std::unique_ptr<PlanServer> server_;
  std::thread thread_;
  Status served_;
  int in_pipe_[2];
  int out_pipe_[2];
  LineAssembler reader_;
};

// The reference transcript: the offline pipeline over the same script,
// formatted with the server's own timing-free line.
std::vector<std::string> OfflineTranscript(
    const std::vector<std::string>& script_lines) {
  PlanService service(TestBase());
  std::string script;
  for (const std::string& line : script_lines) script += line + "\n";
  Result<std::vector<PlanScriptStep>> steps = ParsePlanScript(script);
  TPP_CHECK(steps.ok());
  std::vector<std::string> out;
  for (const PlanScriptStep& step : *steps) {
    std::vector<PlanResponse> responses = service.RunBatch(step.requests);
    for (size_t i = 0; i < responses.size(); ++i) {
      out.push_back(FormatResponseLine(step.requests[i], responses[i]));
    }
    if (step.edit.has_value()) {
      Result<EditSummary> summary = service.ApplyEdit(*step.edit);
      TPP_CHECK(summary.ok());
      out.push_back(StrFormat(
          "edit ok inserted=%zu removed=%zu fingerprint=%016llx",
          summary->inserted, summary->removed,
          static_cast<unsigned long long>(summary->new_fingerprint)));
    }
  }
  return out;
}

// A zero pickup size would never take a request off the queue, so the
// solve loop would spin forever, even past EOF. Serve refuses it before
// it reads anything.
TEST(PlanServer, ZeroMaxBatchIsRejectedUpFront) {
  int in_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ::close(in_pipe[1]);  // EOF at once: a wedged loop is the only hang
  PlanService service(TestBase());
  ServerOptions options;
  options.stdio = true;
  options.stdio_in = in_pipe[0];
  options.max_batch = 0;
  PlanServer server(&service, std::move(options));
  Status served = server.Serve();
  ::close(in_pipe[0]);
  EXPECT_EQ(served.code(), StatusCode::kInvalidArgument)
      << served.ToString();
}

TEST(PlanServer, StdioTranscriptMatchesOfflinePipeline) {
  std::vector<std::string> script(std::begin(kScript), std::end(kScript));
  StdioServer server(ServerOptions{});
  for (const std::string& line : script) server.Send(line + "\n");
  std::vector<std::string> transcript = server.ReadLines(script.size());
  EXPECT_TRUE(server.Join().ok());
  EXPECT_EQ(transcript, OfflineTranscript(script));
  ServerStats stats = server.server().snapshot_stats();
  EXPECT_EQ(stats.admitted, script.size());
  EXPECT_EQ(stats.responses, script.size());
  EXPECT_EQ(stats.dropped_responses, 0u);
  EXPECT_EQ(stats.shed_total(), 0u);
}

// An `edit insert=` line of two links provably absent from `g`, so the
// parsed delta always validates against the base graph.
std::string AbsentInsertEditLine(const Graph& g) {
  std::vector<std::string> pairs;
  const graph::NodeId n = static_cast<graph::NodeId>(g.NumNodes());
  for (graph::NodeId u = 0; u + 200 < n && pairs.size() < 2; u += 3) {
    const graph::NodeId v = u + 200;
    if (!g.HasEdge(u, v)) {
      pairs.push_back(StrFormat("%llu-%llu",
                                static_cast<unsigned long long>(u),
                                static_cast<unsigned long long>(v)));
    }
  }
  TPP_CHECK(pairs.size() == 2);
  return StrFormat("edit insert=%s;%s", pairs[0].c_str(), pairs[1].c_str());
}

TEST(PlanServer, EditBarrierOrdersRequestsAroundTheEdit) {
  // Same request before and after an edit: the post-edit response must
  // reflect the edited graph (the offline script semantics), which only
  // happens if the barrier held the second request until the edit
  // applied.
  std::vector<std::string> script = {
      "algorithm=sgb sample=4 seed=3 budget=6",
      AbsentInsertEditLine(TestBase()),
      "algorithm=sgb sample=4 seed=3 budget=6",
  };
  StdioServer server(ServerOptions{});
  for (const std::string& line : script) server.Send(line + "\n");
  std::vector<std::string> transcript = server.ReadLines(3);
  EXPECT_TRUE(server.Join().ok());
  EXPECT_EQ(transcript, OfflineTranscript(script));
  EXPECT_EQ(server.server().snapshot_stats().edits_applied, 1u);
}

TEST(PlanServer, OverloadShedsDeterministically) {
  // Freeze the solve loop, flood a queue of depth 4 with 9 requests:
  // exactly 4 admit and 5 shed, decided synchronously on the IO thread
  // while pickup is frozen.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ServerOptions options;
  options.admission.max_queue_depth = 4;
  options.admission.max_per_client = 0;
  options.before_pickup = [gate] { gate.wait(); };
  StdioServer server(std::move(options));
  for (int i = 0; i < 9; ++i) {
    server.Send("algorithm=sgb sample=3 seed=7 budget=4\n");
  }
  // The 5 shed replies arrive first — written by the IO thread at the
  // admission decision, never behind solving.
  std::vector<std::string> sheds = server.ReadLines(5);
  for (size_t i = 0; i < sheds.size(); ++i) {
    EXPECT_EQ(sheds[i],
              StrFormat("r%zu shed Unavailable reason=queue_full "
                        "retry_after_ms=250",
                        i + 4))
        << sheds[i];
  }
  release.set_value();
  std::vector<std::string> responses = server.ReadLines(4);
  for (const std::string& line : responses) {
    EXPECT_NE(line.find(" ok "), std::string::npos) << line;
  }
  EXPECT_TRUE(server.Join().ok());
  ServerStats stats = server.server().snapshot_stats();
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.shed_queue_full, 5u);
  EXPECT_EQ(stats.responses, 4u);
  EXPECT_EQ(stats.max_queue_depth, 4u);
}

TEST(PlanServer, DeadlineHopelessShedsAtAdmission) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ServerOptions options;
  options.admission.est_request_ms = 1000;
  options.admission.max_per_client = 0;
  options.before_pickup = [gate] { gate.wait(); };
  StdioServer server(std::move(options));
  server.Send("algorithm=sgb sample=3 seed=1 budget=4\n");
  server.Send("algorithm=sgb sample=3 seed=2 budget=4\n");
  // Two queued at est 1000ms each: a 500ms deadline is hopeless and must
  // shed NOW, not after queueing.
  server.Send(
      "name=tight algorithm=sgb sample=3 seed=3 budget=4 deadline_ms=500\n");
  std::vector<std::string> shed = server.ReadLines(1);
  EXPECT_EQ(shed[0],
            "tight shed Unavailable reason=deadline_hopeless "
            "retry_after_ms=3000");
  release.set_value();
  server.ReadLines(2);
  EXPECT_TRUE(server.Join().ok());
  EXPECT_EQ(server.server().snapshot_stats().shed_deadline_hopeless, 1u);
}

TEST(PlanServer, DrainUnderLoadFinishesQueuedWork) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ServerOptions options;
  options.admission.max_per_client = 0;
  options.before_pickup = [gate] { gate.wait(); };
  StdioServer server(std::move(options));
  for (int i = 0; i < 5; ++i) {
    server.Send(StrFormat("algorithm=sgb sample=3 seed=%d budget=4\n", i));
  }
  // Wait for all 5 to be admitted, then drain mid-load.
  while (server.server().snapshot_stats().admitted < 5) {
    std::this_thread::yield();
  }
  server.server().RequestDrain();
  // Post-drain offers shed at the door.
  server.Send("algorithm=sgb sample=3 seed=99 budget=4\n");
  std::vector<std::string> shed = server.ReadLines(1);
  EXPECT_NE(shed[0].find("reason=draining"), std::string::npos) << shed[0];
  release.set_value();
  std::vector<std::string> responses = server.ReadLines(5);
  for (const std::string& line : responses) {
    EXPECT_NE(line.find(" ok "), std::string::npos) << line;
  }
  EXPECT_TRUE(server.Join().ok());
  ServerStats stats = server.server().snapshot_stats();
  // The graceful-drain guarantee: everything admitted before the drain
  // answered, nothing dropped.
  EXPECT_EQ(stats.drained_in_flight, 5u);
  EXPECT_EQ(stats.dropped_responses, 0u);
  EXPECT_EQ(stats.shed_draining, 1u);
}

TEST(PlanServer, AbortEscalationCancelsQueuedWork) {
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  ServerOptions options;
  options.before_pickup = [gate] { gate.wait(); };
  StdioServer server(std::move(options));
  server.Send("algorithm=sgb sample=4 seed=3 budget=6\n");
  while (server.server().snapshot_stats().admitted < 1) {
    std::this_thread::yield();
  }
  server.server().RequestAbort();
  release.set_value();
  std::vector<std::string> lines = server.ReadLines(1);
  EXPECT_NE(lines[0].find("error Aborted"), std::string::npos) << lines[0];
  EXPECT_TRUE(server.Join().ok());
  EXPECT_EQ(server.server().snapshot_stats().aborted_in_flight, 1u);
}

TEST(PlanServer, ClientDeathMidLineIsATornFrameNotARequest) {
  StdioServer server(ServerOptions{});
  server.Send("algorithm=sgb sample=3 seed=7 budget=4\n");
  // Die mid-line: the tail must never parse as a (truncated but valid)
  // request.
  server.Send("name=ghost algorithm=sgb sample=3 se");
  server.EndInput();
  std::vector<std::string> lines = server.ReadLines(1);
  EXPECT_NE(lines[0].find("r0 ok"), std::string::npos) << lines[0];
  EXPECT_TRUE(server.Join().ok());
  ServerStats stats = server.server().snapshot_stats();
  EXPECT_EQ(stats.torn_frames, 1u);
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.responses, 1u);
}

TEST(PlanServer, MalformedLineAnswersErrorInPlace) {
  StdioServer server(ServerOptions{});
  server.Send("algorithm=definitely_not_a_solver sample=3\n");
  server.Send("algorithm=sgb sample=3 seed=7 budget=4\n");
  std::vector<std::string> lines = server.ReadLines(2);
  EXPECT_NE(lines[0].find("r0 error"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("r1 ok"), std::string::npos) << lines[1];
  EXPECT_TRUE(server.Join().ok());
  EXPECT_EQ(server.server().snapshot_stats().parse_errors, 1u);
}

TEST(PlanServer, TransientNetWriteFaultIsRetriedInvisibly) {
  std::vector<std::string> script(std::begin(kScript), std::end(kScript));
  ASSERT_TRUE(fault::FaultInjector::Global()
                  .Arm("net.write:n=2:transient", 42)
                  .ok());
  std::vector<std::string> transcript;
  {
    StdioServer server(ServerOptions{});
    for (const std::string& line : script) server.Send(line + "\n");
    transcript = server.ReadLines(script.size());
    EXPECT_TRUE(server.Join().ok());
    EXPECT_GE(server.server().snapshot_stats().net_write_retries, 1u);
    EXPECT_EQ(server.server().snapshot_stats().dropped_responses, 0u);
  }
  fault::FaultInjector::Global().Disarm();
  // The retried transcript is byte-identical to an unfaulted run.
  EXPECT_EQ(transcript, OfflineTranscript(script));
}

TEST(PlanServer, TornNetWriteKillsSessionWithoutCrashing) {
  // A torn write means a partial line reached the client; the session is
  // unrecoverable (retrying would corrupt the stream) and its remaining
  // work is dropped — but the server survives and drains cleanly.
  ASSERT_TRUE(fault::FaultInjector::Global()
                  .Arm("net.write:n=1:torn=3", 42)
                  .ok());
  StdioServer server(ServerOptions{});
  server.Send("algorithm=sgb sample=3 seed=7 budget=4\n");
  server.Send("algorithm=sgb sample=3 seed=8 budget=4\n");
  server.EndInput();
  EXPECT_TRUE(server.Join().ok());
  fault::FaultInjector::Global().Disarm();
  ServerStats stats = server.server().snapshot_stats();
  EXPECT_GE(stats.dropped_responses, 1u);
  // Depending on whether the second line was read before the session
  // died, it is either dropped or never admitted — but every admitted
  // request is accounted exactly once.
  EXPECT_EQ(stats.responses + stats.dropped_responses, stats.admitted);
  EXPECT_EQ(stats.responses, 0u);
}

// ---------------------------------------------------------------------
// Unix-domain socket: concurrent clients, fairness, restart identity.

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  TPP_CHECK(fd >= 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  TPP_CHECK(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0);
  return fd;
}

std::vector<std::string> ReadLinesFd(int fd, size_t n) {
  LineAssembler reader;
  std::vector<std::string> lines;
  while (lines.size() < n) {
    pollfd pfd{fd, POLLIN, 0};
    TPP_CHECK(::poll(&pfd, 1, 30000) > 0);
    char buffer[4096];
    Result<size_t> got = net::ReadSome(fd, buffer, sizeof(buffer));
    TPP_CHECK(got.ok() && *got > 0);
    for (std::string& line : reader.Feed(std::string_view(buffer, *got))) {
      lines.push_back(std::move(line));
    }
  }
  return lines;
}

std::string TempSocketPath(const char* tag) {
  // sun_path is ~104 bytes; keep it short and unique per test run.
  return StrFormat("/tmp/tpp_%s_%d.sock", tag, static_cast<int>(::getpid()));
}

TEST(PlanServer, SocketFairnessTrickleBeatsFirehose) {
  const std::string path = TempSocketPath("fair");
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::vector<uint64_t> pickup_clients;
  std::mutex pickup_mu;
  ServerOptions options;
  options.socket_path = path;
  options.admission.max_per_client = 0;
  options.before_pickup = [gate] { gate.wait(); };
  options.on_pickup = [&](const QueuedItem& item) {
    std::lock_guard<std::mutex> lock(pickup_mu);
    pickup_clients.push_back(item.client);
  };
  PlanService service(TestBase());
  PlanServer server(&service, std::move(options));
  std::thread serve([&] { TPP_CHECK(server.Serve().ok()); });
  // Wait for the listener to exist before connecting.
  while (!std::filesystem::exists(path)) std::this_thread::yield();

  // Firehose first: 6 requests queued from one connection; then two
  // trickle clients with one each.
  const int firehose = ConnectUnix(path);
  for (int i = 0; i < 6; ++i) {
    const std::string line =
        StrFormat("algorithm=sgb sample=3 seed=%d budget=4\n", i);
    TPP_CHECK(net::WriteAll(firehose, line.data(), line.size()).ok());
  }
  while (server.snapshot_stats().admitted < 6) std::this_thread::yield();
  const int trickle_a = ConnectUnix(path);
  const int trickle_b = ConnectUnix(path);
  const std::string line_a = "algorithm=sgb sample=3 seed=50 budget=4\n";
  const std::string line_b = "algorithm=sgb sample=3 seed=51 budget=4\n";
  TPP_CHECK(net::WriteAll(trickle_a, line_a.data(), line_a.size()).ok());
  TPP_CHECK(net::WriteAll(trickle_b, line_b.data(), line_b.size()).ok());
  while (server.snapshot_stats().admitted < 8) std::this_thread::yield();
  release.set_value();

  // Every client gets its answers.
  EXPECT_EQ(ReadLinesFd(firehose, 6).size(), 6u);
  EXPECT_EQ(ReadLinesFd(trickle_a, 1).size(), 1u);
  EXPECT_EQ(ReadLinesFd(trickle_b, 1).size(), 1u);
  server.RequestDrain();
  serve.join();
  ::close(firehose);
  ::close(trickle_a);
  ::close(trickle_b);
  ::unlink(path.c_str());

  // Fairness bound: round-robin pickup serves each trickle client within
  // the first rotation — the first three pickups are three DISTINCT
  // clients (firehose, then one request from each trickle client), ahead
  // of the firehose's 5-deep backlog.
  ASSERT_EQ(pickup_clients.size(), 8u);
  EXPECT_NE(pickup_clients[0], pickup_clients[1]);
  EXPECT_NE(pickup_clients[0], pickup_clients[2]);
  EXPECT_NE(pickup_clients[1], pickup_clients[2]);
  // The remaining five pickups all belong to the firehose.
  for (size_t i = 3; i < pickup_clients.size(); ++i) {
    EXPECT_EQ(pickup_clients[i], pickup_clients[0])
        << "pickup " << i << " is not the firehose backlog";
  }
}

TEST(PlanServer, HalfClosedSessionRetiredAfterLastResponse) {
  // A client that half-closes (shutdown SHUT_WR) still receives every
  // response — and then the server RETIRES the session: the client sees
  // EOF and the server's fd is closed, rather than the session lingering
  // in the table until process exit (the historical fd leak).
  const std::string path = TempSocketPath("retire");
  ServerOptions options;
  options.socket_path = path;
  PlanService service(TestBase());
  PlanServer server(&service, std::move(options));
  std::thread serve([&] { TPP_CHECK(server.Serve().ok()); });
  while (!std::filesystem::exists(path)) std::this_thread::yield();

  const int fd = ConnectUnix(path);
  const std::string line = "algorithm=sgb sample=3 seed=7 budget=4\n";
  TPP_CHECK(net::WriteAll(fd, line.data(), line.size()).ok());
  TPP_CHECK(::shutdown(fd, SHUT_WR) == 0);
  std::vector<std::string> lines = ReadLinesFd(fd, 1);
  EXPECT_NE(lines[0].find("r0 ok"), std::string::npos) << lines[0];
  // After the last response the server closes its end: the next read
  // returns EOF within the poll deadline instead of blocking forever.
  pollfd pfd{fd, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 30000), 0);
  char buffer[16];
  Result<size_t> got = net::ReadSome(fd, buffer, sizeof(buffer));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 0u) << "half-closed session was not retired";
  ::close(fd);

  server.RequestDrain();
  serve.join();
  ::unlink(path.c_str());
  ServerStats stats = server.snapshot_stats();
  EXPECT_EQ(stats.responses, 1u);
  EXPECT_EQ(stats.dropped_responses, 0u);
}

TEST(PlanServer, OversizedLineCountsAsARequestForNaming) {
  // The discarded oversized line advances request numbering: its error
  // reply carries its own r<N> label and the NEXT request keeps the
  // client's numbering instead of desyncing by one.
  StdioServer server(ServerOptions{});
  std::string huge((1u << 20) + 64, 'x');
  huge += '\n';
  server.Send(huge);
  server.Send("algorithm=sgb sample=3 seed=7 budget=4\n");
  std::vector<std::string> lines = server.ReadLines(2);
  EXPECT_EQ(lines[0], "r0 error line exceeds maximum length");
  EXPECT_NE(lines[1].find("r1 ok"), std::string::npos) << lines[1];
  EXPECT_TRUE(server.Join().ok());
  EXPECT_EQ(server.server().snapshot_stats().parse_errors, 1u);
}

TEST(PlanServer, KillAndRestartOverStoreIsByteIdentical) {
  // In-process simulation of kill -9 + restart: server A rides --store,
  // serves a script, and is torn down without any explicit handoff;
  // server B starts fresh over the same store directory and must
  // re-serve the same script byte-identically, warm-started from A's
  // snapshots.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      StrFormat("tpp_server_restart_%d", static_cast<int>(::getpid()));
  fs::remove_all(dir);
  std::vector<std::string> script(std::begin(kScript), std::end(kScript));
  std::vector<std::string> first;
  {
    Result<std::unique_ptr<store::WarmStore>> store =
        store::WarmStore::Open(dir.string(), {});
    ASSERT_TRUE(store.ok());
    StdioServer server(ServerOptions{}, store->get());
    for (const std::string& line : script) server.Send(line + "\n");
    first = server.ReadLines(script.size());
    EXPECT_TRUE(server.Join().ok());
  }
  std::vector<std::string> second;
  size_t snapshot_hits = 0;
  {
    Result<std::unique_ptr<store::WarmStore>> store =
        store::WarmStore::Open(dir.string(), {});
    ASSERT_TRUE(store.ok());
    StdioServer server(ServerOptions{}, store->get());
    for (const std::string& line : script) server.Send(line + "\n");
    second = server.ReadLines(script.size());
    EXPECT_TRUE(server.Join().ok());
    snapshot_hits = server.repository().NumSnapshotHits();
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, OfflineTranscript(script));
  EXPECT_GT(snapshot_hits, 0u) << "restart did not warm-start from the store";
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Deterministic soak: concurrent clients with interleaved lifecycles.

TEST(PlanServer, SoakConcurrentClientsWithDisconnects) {
  const std::string path = TempSocketPath("soak");
  ServerOptions options;
  options.socket_path = path;
  options.admission.max_per_client = 0;
  PlanService service(TestBase());
  PlanServer server(&service, std::move(options));
  std::thread serve([&] { TPP_CHECK(server.Serve().ok()); });
  while (!std::filesystem::exists(path)) std::this_thread::yield();

  constexpr int kClients = 6;
  constexpr int kPerClient = 4;
  std::vector<std::thread> clients;
  std::atomic<size_t> answered{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = ConnectUnix(path);
      for (int r = 0; r < kPerClient; ++r) {
        const std::string line = StrFormat(
            "name=c%dr%d algorithm=sgb sample=3 seed=%d budget=4\n", c, r,
            c * 100 + r);
        TPP_CHECK(net::WriteAll(fd, line.data(), line.size()).ok());
      }
      if (c % 3 == 2) {
        // Every third client dies mid-line without reading anything —
        // its responses drop; nobody else's may.
        const char torn[] = "name=dead algorithm=sg";
        TPP_CHECK(net::WriteAll(fd, torn, sizeof(torn) - 1).ok());
        ::close(fd);
        return;
      }
      answered.fetch_add(ReadLinesFd(fd, kPerClient).size());
      ::close(fd);
    });
  }
  for (std::thread& t : clients) t.join();
  server.RequestDrain();
  serve.join();
  ::unlink(path.c_str());

  // Every surviving client got every response; the server neither
  // crashed nor hung, and the dead clients' torn tails never parsed.
  EXPECT_EQ(answered.load(), static_cast<size_t>(4 * kPerClient));
  ServerStats stats = server.snapshot_stats();
  EXPECT_EQ(stats.connections, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.admitted,
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(stats.torn_frames, 2u);
  EXPECT_EQ(stats.parse_errors, 0u);
}

// ---------------------------------------------------------------------
// Satellite: the PlanService::ApplyEdit serving-state guard.

TEST(PlanServiceGuard, ApplyEditDuringLiveBatchIsRefused) {
  PlanService service(testing::MakeGraph(
      6, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 5}}));
  PlanRequest request;
  request.targets = {testing::E(0, 1)};
  request.spec.algorithm = "sgb";
  request.spec.budget = 2;
  graph::GraphDelta delta;
  delta.inserted = {testing::E(1, 5)};
  Status guard_status = Status::Ok();
  // The streaming sink runs while RunPipeline is live — exactly the
  // interleaving the guard must refuse.
  service.RunBatch(std::span<const PlanRequest>(&request, 1), BatchOptions{},
                   [&](size_t, const PlanResponse&) {
                     guard_status = service.ApplyEdit(delta).status();
                   });
  EXPECT_EQ(guard_status.code(), StatusCode::kFailedPrecondition)
      << guard_status.ToString();
  // Between batches the same edit commits cleanly.
  EXPECT_TRUE(service.ApplyEdit(delta).ok());
}

}  // namespace
}  // namespace tpp::service::server
