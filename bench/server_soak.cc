// Plan-server soak: deterministic overload shedding + a multi-client
// Unix-socket soak with byte-identity across runs. Emits
// BENCH_server_soak.json for tools/bench_guard --mode=server.
//
// Three sections:
//   overload — one socket client floods a server whose solve loop is
//              frozen on the before_pickup hook, so every admission
//              decision is made by the IO thread against a full, static
//              queue: exactly `depth` requests admit and the rest shed
//              with kUnavailable + retry-after. Deterministic by
//              construction — no timing, no load generator tuning. (A
//              stdio session would wait for room instead of shedding: a
//              piped script cannot retry.)
//   soak     — C clients connect over a Unix socket and push R requests
//              each (interleaving freely), then the server drains under
//              load. The WHOLE soak runs twice; the bench asserts every
//              client's response transcript is byte-identical across the
//              two runs (the server's determinism contract: responses
//              depend on request + graph state, never on interleaving,
//              worker count, or connection order).
//   drain    — drain is requested with a known number of requests queued
//              behind a frozen solve loop; every one must run to
//              completion with its response delivered (drained_in_flight
//              equals the queue depth at drain time, nothing drops).
//
// Under an armed TPP_FAULTS profile (CI soaks with transient net faults)
// the run additionally reports faults_injected so the guard can reject a
// vacuous pass where the profile never fired. Arm TRANSIENT profiles
// only: a torn/permanent profile kills sessions by design, which is a
// correctness scenario for tests/server_test.cc, not a soak invariant.
//
// Flags: --quick (smaller fleet, CI smoke mode), --clients=N,
//        --per-client=N, --out=PATH (default BENCH_server_soak.json).

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/net_io.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "graph/generators.h"
#include "service/instance_repository.h"
#include "service/plan_service.h"
#include "service/server/admission.h"
#include "service/server/framing.h"
#include "service/server/server.h"

namespace tpp::bench {
namespace {

namespace server = service::server;
using service::PlanService;

graph::Graph SoakBase() {
  Rng rng(20240809);
  return *graph::HolmeKim(400, 3, 0.3, rng);
}

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

// ------------------------------------------------- drain under load

// Freezes the solve loop, queues `in_flight` requests, requests drain
// with all of them pending, then releases: every queued request must
// run to completion with its response delivered (drained_in_flight ==
// in_flight, dropped_responses == 0) — the graceful-drain guarantee,
// measured instead of assumed.
server::ServerStats RunDrainUnderLoad(size_t in_flight) {
  int in_pipe[2];
  int out_pipe[2];
  TPP_CHECK(::pipe(in_pipe) == 0 && ::pipe(out_pipe) == 0);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  server::ServerOptions options;
  options.stdio = true;
  options.stdio_in = in_pipe[0];
  options.stdio_out = out_pipe[1];
  options.admission.max_per_client = 0;
  options.before_pickup = [gate] { gate.wait(); };

  PlanService service(SoakBase());
  server::PlanServer plan_server(&service, std::move(options));
  std::thread serve([&] { TPP_CHECK(plan_server.Serve().ok()); });

  for (size_t i = 0; i < in_flight; ++i) {
    const std::string line =
        StrFormat("algorithm=sgb sample=3 seed=%zu budget=4\n", 500 + i);
    TPP_CHECK(net::WriteAll(in_pipe[1], line.data(), line.size()).ok());
  }
  while (plan_server.snapshot_stats().admitted < in_flight) {
    std::this_thread::yield();
  }
  plan_server.RequestDrain();
  release.set_value();

  server::LineAssembler reader;
  size_t answered = 0;
  while (answered < in_flight) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    TPP_CHECK(::poll(&pfd, 1, 30000) > 0);
    char buffer[4096];
    Result<size_t> got = net::ReadSome(out_pipe[0], buffer, sizeof(buffer));
    TPP_CHECK(got.ok() && *got > 0);
    answered += reader.Feed(std::string_view(buffer, *got)).size();
  }
  serve.join();
  ::close(in_pipe[0]);
  ::close(in_pipe[1]);
  ::close(out_pipe[0]);
  ::close(out_pipe[1]);

  server::ServerStats stats = plan_server.snapshot_stats();
  TPP_CHECK(stats.admitted == in_flight);
  TPP_CHECK(stats.drained_in_flight == in_flight);
  TPP_CHECK(stats.dropped_responses == 0);
  return stats;
}

// ----------------------------------------------------------- overload

struct OverloadResult {
  size_t offered = 0;
  size_t admitted = 0;
  size_t shed = 0;
  uint64_t retry_after_hint_ms = 0;
};

OverloadResult RunOverload(size_t depth) {
  const std::string path = StrFormat(
      "/tmp/tpp_overload_%d.sock", static_cast<int>(::getpid()));
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  server::ServerOptions options;
  options.socket_path = path;
  options.admission.max_queue_depth = depth;
  options.admission.max_per_client = 0;
  options.before_pickup = [gate] { gate.wait(); };

  PlanService service(SoakBase());
  server::PlanServer plan_server(&service, std::move(options));
  std::thread serve([&] { TPP_CHECK(plan_server.Serve().ok()); });
  while (!std::filesystem::exists(path)) std::this_thread::yield();
  const int client = ConnectUnix(path);

  OverloadResult result;
  result.offered = depth * 3;
  for (size_t i = 0; i < result.offered; ++i) {
    const std::string line =
        StrFormat("algorithm=sgb sample=3 seed=%zu budget=4\n", i);
    TPP_CHECK(net::WriteAll(client, line.data(), line.size()).ok());
  }
  // The shed replies are written by the IO thread at the admission
  // decision; read them all before releasing the solve loop to prove
  // overload feedback never queues behind solving. Then the admitted
  // requests answer.
  server::LineAssembler reader;
  std::vector<std::string> sheds;
  size_t answered = 0;
  while (sheds.size() + answered < result.offered) {
    pollfd pfd{client, POLLIN, 0};
    TPP_CHECK(::poll(&pfd, 1, 30000) > 0);
    char buffer[4096];
    Result<size_t> got = net::ReadSome(client, buffer, sizeof(buffer));
    TPP_CHECK(got.ok() && *got > 0);
    for (std::string& line :
         reader.Feed(std::string_view(buffer, *got))) {
      if (sheds.size() < result.offered - depth) {
        TPP_CHECK(line.find(" shed Unavailable ") != std::string::npos);
        const size_t hint = line.find("retry_after_ms=");
        TPP_CHECK(hint != std::string::npos);
        result.retry_after_hint_ms = static_cast<uint64_t>(
            std::strtoull(line.c_str() + hint + 15, nullptr, 10));
        sheds.push_back(std::move(line));
        if (sheds.size() == result.offered - depth) release.set_value();
      } else {
        TPP_CHECK(line.find(" ok ") != std::string::npos);
        ++answered;
      }
    }
  }
  plan_server.RequestDrain();
  serve.join();
  ::close(client);
  ::unlink(path.c_str());

  server::ServerStats stats = plan_server.snapshot_stats();
  result.admitted = stats.admitted;
  result.shed = static_cast<size_t>(stats.shed_total());
  TPP_CHECK(result.admitted == depth);
  TPP_CHECK(result.shed == result.offered - depth);
  TPP_CHECK(stats.responses == depth);  // admitted work still answered
  return result;
}

// --------------------------------------------------------------- soak

struct SoakRun {
  std::vector<std::vector<std::string>> transcripts;  // per client
  server::ServerStats stats;
  double wall_ms = 0;
};

SoakRun RunSoak(size_t clients, size_t per_client) {
  const std::string path = StrFormat(
      "/tmp/tpp_soak_%d.sock", static_cast<int>(::getpid()));
  server::ServerOptions options;
  options.socket_path = path;
  options.admission.max_per_client = 0;
  PlanService service(SoakBase());
  service::InstanceRepository repository(&service.base());
  options.repository = &repository;
  server::PlanServer plan_server(&service, std::move(options));
  std::thread serve([&] { TPP_CHECK(plan_server.Serve().ok()); });
  while (!std::filesystem::exists(path)) std::this_thread::yield();

  SoakRun run;
  run.transcripts.resize(clients);
  WallTimer timer;
  std::vector<std::thread> fleet;
  for (size_t c = 0; c < clients; ++c) {
    fleet.emplace_back([&, c] {
      const int fd = ConnectUnix(path);
      for (size_t r = 0; r < per_client; ++r) {
        const std::string line = StrFormat(
            "name=c%zur%zu algorithm=sgb sample=3 seed=%zu budget=4\n", c,
            r, c * 1000 + r);
        TPP_CHECK(net::WriteAll(fd, line.data(), line.size()).ok());
      }
      server::LineAssembler reader;
      std::vector<std::string>& transcript = run.transcripts[c];
      while (transcript.size() < per_client) {
        pollfd pfd{fd, POLLIN, 0};
        TPP_CHECK(::poll(&pfd, 1, 30000) > 0);
        char buffer[4096];
        Result<size_t> got = net::ReadSome(fd, buffer, sizeof(buffer));
        TPP_CHECK(got.ok() && *got > 0);
        for (std::string& line :
             reader.Feed(std::string_view(buffer, *got))) {
          transcript.push_back(std::move(line));
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& t : fleet) t.join();
  plan_server.RequestDrain();
  serve.join();
  run.wall_ms = timer.Millis();
  ::unlink(path.c_str());
  run.stats = plan_server.snapshot_stats();
  TPP_CHECK(run.stats.admitted == clients * per_client);
  TPP_CHECK(run.stats.responses == clients * per_client);
  TPP_CHECK(run.stats.dropped_responses == 0);
  return run;
}

void WriteJson(const std::string& path, bool quick,
               const OverloadResult& overload, const SoakRun& first,
               const SoakRun& second, size_t clients, size_t per_client,
               bool byte_identical, const server::ServerStats& drain,
               const std::string& fault_spec, uint64_t faults_injected) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  TPP_CHECK(f != nullptr);
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"server_soak\",\n");
  std::fprintf(f, "  \"fixture\": \"holme_kim_400\",\n");
  std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(f, "  \"fault_spec\": \"%s\",\n", fault_spec.c_str());
  std::fprintf(f, "  \"faults_injected\": %llu,\n",
               static_cast<unsigned long long>(faults_injected));
  std::fprintf(f,
               "  \"overload\": {\"offered\": %zu, \"admitted\": %zu, "
               "\"shed\": %zu, \"retry_after_hint_ms\": %llu},\n",
               overload.offered, overload.admitted, overload.shed,
               static_cast<unsigned long long>(
                   overload.retry_after_hint_ms));
  const double rps =
      second.wall_ms > 0
          ? static_cast<double>(clients * per_client) * 1000.0 /
                second.wall_ms
          : 0;
  std::fprintf(f,
               "  \"soak\": {\"clients\": %zu, \"per_client\": %zu, "
               "\"admitted\": %llu, \"responses\": %llu, "
               "\"dropped_responses\": %llu, \"net_write_retries\": %llu, "
               "\"byte_identical\": %s, \"wall_ms\": %.2f, "
               "\"throughput_rps\": %.1f},\n",
               clients, per_client,
               static_cast<unsigned long long>(second.stats.admitted),
               static_cast<unsigned long long>(second.stats.responses),
               static_cast<unsigned long long>(
                   second.stats.dropped_responses),
               static_cast<unsigned long long>(
                   first.stats.net_write_retries +
                   second.stats.net_write_retries),
               byte_identical ? "true" : "false", second.wall_ms, rps);
  std::fprintf(f,
               "  \"drain\": {\"in_flight_at_drain\": %llu, "
               "\"drained_in_flight\": %llu, \"aborted_in_flight\": %llu, "
               "\"drain_dropped_responses\": %llu},\n",
               static_cast<unsigned long long>(drain.admitted),
               static_cast<unsigned long long>(drain.drained_in_flight),
               static_cast<unsigned long long>(drain.aborted_in_flight),
               static_cast<unsigned long long>(drain.dropped_responses));
  std::fprintf(f, "  \"crashes\": 0\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("[json] %s\n", path.c_str());
}

int Run(int argc, char** argv) {
  Result<ParsedArgs> args = ParsedArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  const bool quick = args->GetBool("quick");
  Result<int64_t> clients_flag =
      args->GetInt("clients", quick ? 4 : 8);
  Result<int64_t> per_client_flag =
      args->GetInt("per-client", quick ? 8 : 25);
  const std::string out_path =
      args->GetString("out", "BENCH_server_soak.json");
  const size_t clients = static_cast<size_t>(*clients_flag);
  const size_t per_client = static_cast<size_t>(*per_client_flag);

  const char* fault_env = std::getenv("TPP_FAULTS");
  const std::string fault_spec = fault_env == nullptr ? "" : fault_env;

  std::printf("== plan-server soak: %zu clients x %zu requests%s%s%s ==\n\n",
              clients, per_client, quick ? ", quick" : "",
              fault_spec.empty() ? "" : ", faults ", fault_spec.c_str());

  const size_t depth = quick ? 8 : 32;
  OverloadResult overload = RunOverload(depth);
  std::printf("overload: %zu offered, %zu admitted, %zu shed at the door, "
              "retry-after hint %llu ms\n",
              overload.offered, overload.admitted, overload.shed,
              static_cast<unsigned long long>(
                  overload.retry_after_hint_ms));

  SoakRun first = RunSoak(clients, per_client);
  SoakRun second = RunSoak(clients, per_client);
  bool byte_identical = true;
  for (size_t c = 0; c < clients; ++c) {
    if (first.transcripts[c] != second.transcripts[c]) {
      byte_identical = false;
      std::printf("client %zu transcript DIVERGED between runs\n", c);
    }
  }
  const server::ServerStats& stats = second.stats;
  std::printf("soak: %llu admitted, %llu responses, %llu dropped, "
              "transcripts across runs %s, %.2f ms (%.1f req/s)\n",
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.responses),
              static_cast<unsigned long long>(stats.dropped_responses),
              byte_identical ? "byte-identical" : "DIVERGED",
              second.wall_ms,
              second.wall_ms > 0
                  ? static_cast<double>(clients * per_client) * 1000.0 /
                        second.wall_ms
                  : 0);
  const server::ServerStats drain = RunDrainUnderLoad(quick ? 6 : 16);
  std::printf("drain: %llu queued at drain, %llu finished in flight, "
              "%llu aborted, %llu dropped (soak high water: depth %zu, "
              "client load %zu)\n",
              static_cast<unsigned long long>(drain.admitted),
              static_cast<unsigned long long>(drain.drained_in_flight),
              static_cast<unsigned long long>(drain.aborted_in_flight),
              static_cast<unsigned long long>(drain.dropped_responses),
              stats.max_queue_depth, stats.max_client_load);
  const uint64_t faults_injected = fault::FaultInjector::Global().injected();
  if (!fault_spec.empty()) {
    std::printf("faults: profile '%s' fired %llu times, %llu write "
                "retries absorbed\n",
                fault_spec.c_str(),
                static_cast<unsigned long long>(faults_injected),
                static_cast<unsigned long long>(
                    first.stats.net_write_retries +
                    second.stats.net_write_retries));
  }

  WriteJson(out_path, quick, overload, first, second, clients, per_client,
            byte_identical, drain, fault_spec, faults_injected);
  return byte_identical ? 0 : 1;
}

}  // namespace
}  // namespace tpp::bench

int main(int argc, char** argv) { return tpp::bench::Run(argc, argv); }
