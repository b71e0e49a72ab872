// bench_guard: regression gate over committed bench JSON artifacts.
//
// Compares a freshly produced bench result against the committed
// baseline (the floor this repo has already demonstrated) and exits
// non-zero when a tracked metric regressed by more than the tolerance —
// CI runs it right after the quick bench, so a change that quietly
// gives back a demonstrated win fails the job instead of landing.
//
//   bench_guard --fresh=BENCH_solver_rounds.json \
//               --baseline=/tmp/solver_rounds_baseline.json \
//               [--mode=solver_rounds] [--tolerance=0.2] [--min-cold-ms=1.0]
//
// --mode=solver_rounds (default) guards BENCH_solver_rounds.json:
//   per (solver, motif) row:  "speedup" (production loop vs the cold
//                             reference sweep, ratio of medians)
//   aggregate:                "ct_wt_aggregate_speedup"
//
// --mode=graph_mutation guards BENCH_graph_mutation.json:
//   per (motif, churn) row:   "repair_speedup" (in-place index repair vs
//                             cold rebuild) against the committed floor,
//                             and "plan_byte_identical" which must hold
//                             unconditionally (equivalence is
//                             correctness, never noise)
//   cache section:            "post_edit_cache_hit_rate" must stay
//                             nonzero and "survivor_plans_byte_identical"
//                             true — plans outside an edit's delta
//                             neighborhood keep surviving commits
//   (--min-cold-ms reads the row's rebuild_ms in this mode)
//
// --mode=fault guards BENCH_store_warmstart.json produced under a
//   TPP_FAULTS transient profile (docs/ROBUSTNESS.md):
//   per motif row:            present, "bit_identical_to_cold_build"
//                             true; warm-load speedups are info-only
//                             (fault-run timings include retry backoff)
//   batch section:            "responses_byte_identical" must hold
//   store_health section:     "degradations", "write_failures", and
//                             "backing_write_failures" must be zero —
//                             a transient profile is absorbed by
//                             retries, never degraded through — and
//                             when a fault_spec was armed "io_retries"
//                             must be nonzero, proving the profile
//                             actually exercised the retry path
//
// Speedups are ratios of two timings from the same process on the same
// machine, so they transfer across hosts far better than absolute
// milliseconds — that is what makes a committed floor meaningful in CI.
// Rows whose BASELINE cold (rebuild) time is under --min-cold-ms are
// reported but not enforced: a ratio of two sub-millisecond timings from
// a 3-rep quick run is noise, and a guard that flaps is a guard that
// gets deleted. Every baseline row must still be present in the fresh
// result — a vanished configuration fails the guard even when skipped
// for time.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"

namespace tpp::tools {
namespace {

struct BenchRun {
  std::string solver;
  std::string motif;
  double cold_ms = 0;
  double speedup = 0;
};

struct BenchFile {
  std::vector<BenchRun> runs;
  double ct_wt_aggregate_speedup = 0;
};

// Minimal field extraction over the bench's own fixed JSON shape (flat
// key/value rows inside one "runs" array) — not a general JSON parser,
// and deliberately dependency-free.
std::optional<std::string> FindString(const std::string& obj,
                                      const std::string& key) {
  const std::string needle = "\"" + key + "\": \"";
  const size_t at = obj.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const size_t begin = at + needle.size();
  const size_t end = obj.find('"', begin);
  if (end == std::string::npos) return std::nullopt;
  return obj.substr(begin, end - begin);
}

std::optional<double> FindNumber(const std::string& obj,
                                 const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = obj.find(needle);
  if (at == std::string::npos) return std::nullopt;
  return std::strtod(obj.c_str() + at + needle.size(), nullptr);
}

std::optional<bool> FindBool(const std::string& obj, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t at = obj.find(needle);
  if (at == std::string::npos) return std::nullopt;
  const size_t begin = at + needle.size();
  if (obj.compare(begin, 4, "true") == 0) return true;
  if (obj.compare(begin, 5, "false") == 0) return false;
  return std::nullopt;
}

bool ReadWholeFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_guard: cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

// The shared shape of the bench JSONs: one `"key": [` array of flat
// `{...}` rows, then the summary sections. Reads `path` and splits it into
// the row objects and the text after the array (`tail`).
struct JsonRows {
  std::vector<std::string> rows;
  std::string tail;
};

bool ReadRows(const std::string& path, const std::string& key,
              JsonRows* out) {
  std::string text;
  if (!ReadWholeFile(path, &text)) return false;
  const size_t rows_at = text.find("\"" + key + "\": [");
  if (rows_at == std::string::npos) {
    std::fprintf(stderr, "bench_guard: %s has no \"%s\" array\n",
                 path.c_str(), key.c_str());
    return false;
  }
  const size_t rows_end = text.find("\n  ]", rows_at);
  size_t cursor = rows_at;
  while (true) {
    const size_t open = text.find('{', cursor);
    if (open == std::string::npos || open > rows_end) break;
    const size_t close = text.find('}', open);
    if (close == std::string::npos) break;
    out->rows.push_back(text.substr(open, close - open + 1));
    cursor = close + 1;
  }
  out->tail =
      text.substr(rows_end == std::string::npos ? rows_at : rows_end);
  return true;
}

bool MalformedRow(const char* noun, const std::string& path,
                  const std::string& obj) {
  std::fprintf(stderr, "bench_guard: malformed %s row in %s: %s\n", noun,
               path.c_str(), obj.c_str());
  return false;
}

bool ParseBenchFile(const std::string& path, BenchFile* out) {
  JsonRows json;
  if (!ReadRows(path, "runs", &json)) return false;
  for (const std::string& obj : json.rows) {
    auto solver = FindString(obj, "solver");
    auto motif = FindString(obj, "motif");
    auto cold = FindNumber(obj, "cold_ms");
    auto speedup = FindNumber(obj, "speedup");
    if (!solver || !motif || !cold || !speedup) {
      return MalformedRow("run", path, obj);
    }
    out->runs.push_back({*solver, *motif, *cold, *speedup});
  }
  auto aggregate = FindNumber(json.tail, "ct_wt_aggregate_speedup");
  if (!aggregate) {
    std::fprintf(stderr, "bench_guard: %s is missing the aggregate speedup\n",
                 path.c_str());
    return false;
  }
  out->ct_wt_aggregate_speedup = *aggregate;
  return true;
}

const BenchRun* FindRun(const BenchFile& file, const std::string& solver,
                        const std::string& motif) {
  for (const BenchRun& run : file.runs) {
    if (run.solver == solver && run.motif == motif) return &run;
  }
  return nullptr;
}

struct MutationRun {
  std::string motif;
  double churn_pct = 0;
  double rebuild_ms = 0;
  double repair_speedup = 0;
  bool plan_byte_identical = false;
};

struct MutationFile {
  std::vector<MutationRun> runs;
  double post_edit_cache_hit_rate = 0;
  bool survivor_plans_byte_identical = false;
};

bool ParseMutationFile(const std::string& path, MutationFile* out) {
  JsonRows json;
  if (!ReadRows(path, "runs", &json)) return false;
  for (const std::string& obj : json.rows) {
    auto motif = FindString(obj, "motif");
    auto churn = FindNumber(obj, "churn_pct");
    auto rebuild = FindNumber(obj, "rebuild_ms");
    auto speedup = FindNumber(obj, "repair_speedup");
    auto identical = FindBool(obj, "plan_byte_identical");
    if (!motif || !churn || !rebuild || !speedup || !identical) {
      return MalformedRow("run", path, obj);
    }
    out->runs.push_back({*motif, *churn, *rebuild, *speedup, *identical});
  }
  auto hit_rate = FindNumber(json.tail, "post_edit_cache_hit_rate");
  auto survivors = FindBool(json.tail, "survivor_plans_byte_identical");
  if (!hit_rate || !survivors) {
    std::fprintf(stderr,
                 "bench_guard: %s is missing the cache-survival section\n",
                 path.c_str());
    return false;
  }
  out->post_edit_cache_hit_rate = *hit_rate;
  out->survivor_plans_byte_identical = *survivors;
  return true;
}

const MutationRun* FindMutationRun(const MutationFile& file,
                                   const std::string& motif,
                                   double churn_pct) {
  for (const MutationRun& run : file.runs) {
    if (run.motif == motif &&
        std::abs(run.churn_pct - churn_pct) < 1e-9) {
      return &run;
    }
  }
  return nullptr;
}

struct WarmstartRow {
  std::string motif;
  double cold_build_ms = 0;
  double speedup = 0;
  bool bit_identical = false;
};

struct WarmstartFile {
  std::vector<WarmstartRow> rows;
  bool responses_byte_identical = false;
  bool has_health = false;
  std::string fault_spec;
  double io_retries = 0;
  double write_failures = 0;
  double degradations = 0;
  double backing_write_failures = 0;
};

bool ParseWarmstartFile(const std::string& path, WarmstartFile* out) {
  JsonRows json;
  if (!ReadRows(path, "motifs", &json)) return false;
  for (const std::string& obj : json.rows) {
    auto motif = FindString(obj, "motif");
    auto cold = FindNumber(obj, "cold_build_ms");
    auto speedup = FindNumber(obj, "speedup");
    auto identical = FindBool(obj, "bit_identical_to_cold_build");
    if (!motif || !cold || !speedup || !identical) {
      return MalformedRow("motif", path, obj);
    }
    out->rows.push_back({*motif, *cold, *speedup, *identical});
  }
  const std::string& tail = json.tail;
  auto identical = FindBool(tail, "responses_byte_identical");
  if (!identical) {
    std::fprintf(stderr, "bench_guard: %s is missing the batch section\n",
                 path.c_str());
    return false;
  }
  out->responses_byte_identical = *identical;
  // store_health is newer than the bench itself; baselines written before
  // it are parseable (fault mode then fails the FRESH file only if the
  // section is absent there).
  auto degradations = FindNumber(tail, "degradations");
  if (degradations) {
    out->has_health = true;
    out->degradations = *degradations;
    out->fault_spec = FindString(tail, "fault_spec").value_or("");
    out->io_retries = FindNumber(tail, "io_retries").value_or(0);
    out->write_failures = FindNumber(tail, "write_failures").value_or(0);
    out->backing_write_failures =
        FindNumber(tail, "backing_write_failures").value_or(0);
  }
  return true;
}

const WarmstartRow* FindWarmstartRow(const WarmstartFile& file,
                                     const std::string& motif) {
  for (const WarmstartRow& row : file.rows) {
    if (row.motif == motif) return &row;
  }
  return nullptr;
}

// One metric comparison; returns false (and prints FAIL) on regression
// beyond tolerance. `enforced` distinguishes gate rows from noise rows
// that are reported for the record but cannot fail the job.
bool CheckMetric(const std::string& where, const std::string& metric,
                 double fresh, double floor, double tolerance,
                 bool enforced) {
  const double limit = floor * (1.0 - tolerance);
  const bool ok = fresh >= limit;
  std::printf("  %-24s %-28s fresh %6.2fx  floor %6.2fx  %s\n",
              where.c_str(), metric.c_str(), fresh, floor,
              !enforced  ? "(info only)"
              : ok       ? "ok"
                         : "FAIL");
  return ok || !enforced;
}

int RunGraphMutation(const std::string& fresh_path,
                     const std::string& baseline_path, double tolerance,
                     double min_cold_ms) {
  MutationFile fresh, baseline;
  if (!ParseMutationFile(fresh_path, &fresh) ||
      !ParseMutationFile(baseline_path, &baseline)) {
    return 2;
  }

  std::printf("bench_guard: %s vs floor %s (tolerance %.0f%%, rows under "
              "%.1f ms rebuild are info-only)\n",
              fresh_path.c_str(), baseline_path.c_str(), tolerance * 100,
              min_cold_ms);
  bool ok = true;
  for (const MutationRun& floor : baseline.runs) {
    char where[64];
    std::snprintf(where, sizeof(where), "%s %.1f%%", floor.motif.c_str(),
                  floor.churn_pct);
    const MutationRun* now =
        FindMutationRun(fresh, floor.motif, floor.churn_pct);
    if (now == nullptr) {
      std::printf("  %-24s MISSING from fresh results: FAIL\n", where);
      ok = false;
      continue;
    }
    // Equivalence is correctness, not a timing — a rep whose repaired plan
    // diverged from the cold build fails regardless of rebuild time.
    if (!now->plan_byte_identical) {
      std::printf("  %-24s plan_byte_identical false: FAIL\n", where);
      ok = false;
    }
    const bool enforced = floor.rebuild_ms >= min_cold_ms;
    ok &= CheckMetric(where, "repair_speedup", now->repair_speedup,
                      floor.repair_speedup, tolerance, enforced);
  }
  // Cache survival is a behavioral invariant of the commit path, not a
  // timing: plans outside the delta neighborhood must keep being served,
  // and the ones served must match a cold service over the edited graph.
  std::printf("  %-24s %-28s fresh %5.2f   floor  >0     %s\n", "cache",
              "post_edit_cache_hit_rate", fresh.post_edit_cache_hit_rate,
              fresh.post_edit_cache_hit_rate > 0 ? "ok" : "FAIL");
  ok &= fresh.post_edit_cache_hit_rate > 0;
  if (!fresh.survivor_plans_byte_identical) {
    std::printf("  %-24s survivor_plans_byte_identical false: FAIL\n",
                "cache");
    ok = false;
  }
  if (!ok) {
    std::printf("bench_guard: REGRESSION — repair speedup fell more than "
                "%.0f%% below its committed floor, or an equivalence / "
                "cache-survival invariant broke\n",
                tolerance * 100);
    return 1;
  }
  std::printf("bench_guard: all tracked repair speedups within tolerance, "
              "equivalence and cache survival intact\n");
  return 0;
}

// Fault mode: the fresh file is a warm-start bench run executed under a
// TPP_FAULTS transient profile; the baseline is the committed clean run.
// Timings are info-only (retry backoff inflates them by design) — the
// gate is purely on invariants: every configuration still present, every
// warm load still bit-identical, every batch response still
// byte-identical, zero degradations, and (when a profile was armed)
// retries actually fired so the run proves something.
int RunFault(const std::string& fresh_path,
             const std::string& baseline_path) {
  WarmstartFile fresh, baseline;
  if (!ParseWarmstartFile(fresh_path, &fresh) ||
      !ParseWarmstartFile(baseline_path, &baseline)) {
    return 2;
  }

  std::printf("bench_guard: %s (fault run%s%s) vs clean baseline %s\n",
              fresh_path.c_str(),
              fresh.fault_spec.empty() ? "" : ", profile ",
              fresh.fault_spec.c_str(), baseline_path.c_str());
  bool ok = true;
  for (const WarmstartRow& floor : baseline.rows) {
    const WarmstartRow* now = FindWarmstartRow(fresh, floor.motif);
    if (now == nullptr) {
      std::printf("  %-24s MISSING from fresh results: FAIL\n",
                  floor.motif.c_str());
      ok = false;
      continue;
    }
    if (!now->bit_identical) {
      std::printf("  %-24s bit_identical_to_cold_build false: FAIL\n",
                  floor.motif.c_str());
      ok = false;
    }
    CheckMetric(floor.motif, "warm_load_speedup", now->speedup,
                floor.speedup, /*tolerance=*/0.0, /*enforced=*/false);
  }
  std::printf("  %-24s responses_byte_identical %s\n", "batch",
              fresh.responses_byte_identical ? "true: ok" : "false: FAIL");
  ok &= fresh.responses_byte_identical;

  if (!fresh.has_health) {
    std::printf("  %-24s store_health section missing: FAIL (bench "
                "predates it, or wrong file)\n",
                "health");
    ok = false;
  } else {
    const bool clean = fresh.degradations == 0 &&
                       fresh.write_failures == 0 &&
                       fresh.backing_write_failures == 0;
    std::printf("  %-24s degradations %.0f, write failures %.0f, backing "
                "write failures %.0f  %s\n",
                "health", fresh.degradations, fresh.write_failures,
                fresh.backing_write_failures, clean ? "ok" : "FAIL");
    ok &= clean;
    if (!fresh.fault_spec.empty()) {
      // An armed profile that never fired exercises nothing — the run
      // would pass vacuously. Demand evidence the retry path ran.
      std::printf("  %-24s io_retries %.0f under armed profile  %s\n",
                  "health", fresh.io_retries,
                  fresh.io_retries > 0 ? "ok" : "FAIL (profile never "
                                               "fired)");
      ok &= fresh.io_retries > 0;
    } else {
      std::printf("  %-24s no fault profile armed; io_retries %.0f (info "
                  "only)\n",
                  "health", fresh.io_retries);
    }
  }
  if (!ok) {
    std::printf("bench_guard: FAULT-RUN INVARIANT BROKE — a transient "
                "fault profile must be absorbed by retries with "
                "bit-identical output and zero degradations\n");
    return 1;
  }
  std::printf("bench_guard: fault run absorbed by retries, equivalence "
              "intact, zero degradations\n");
  return 0;
}

// Server mode: the fresh file is a server_soak run (possibly under a
// transient TPP_FAULTS net profile in CI); the baseline is the committed
// clean run. Throughput is info-only — the gate is purely on the serving
// invariants: overload actually shed (the admission ladder engaged),
// every admitted soak request answered with zero drops, transcripts
// byte-identical across runs, drain finished every in-flight request,
// the process never crashed, and (when a profile was armed) faults
// actually fired so the run proves something.

// Extracts the one-line `"key": {...}` object from a server_soak file so
// FindNumber does not stop at the same key in an earlier section (both
// "overload" and "soak" carry an "admitted" count).
std::string JsonSection(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": {";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return "";
  const size_t close = text.find('}', at);
  if (close == std::string::npos) return "";
  return text.substr(at, close - at + 1);
}

int RunServer(const std::string& fresh_path,
              const std::string& baseline_path) {
  std::string fresh, baseline;
  if (!ReadWholeFile(fresh_path, &fresh) ||
      !ReadWholeFile(baseline_path, &baseline)) {
    return 2;
  }
  const std::string fault_spec =
      FindString(fresh, "fault_spec").value_or("");
  std::printf("bench_guard: %s (server soak%s%s) vs baseline %s\n",
              fresh_path.c_str(), fault_spec.empty() ? "" : ", profile ",
              fault_spec.c_str(), baseline_path.c_str());

  const std::string overload = JsonSection(fresh, "overload");
  const std::string soak = JsonSection(fresh, "soak");
  const std::string drain = JsonSection(fresh, "drain");
  if (overload.empty() || soak.empty() || drain.empty()) {
    std::fprintf(stderr,
                 "bench_guard: %s is missing an overload/soak/drain "
                 "section\n",
                 fresh_path.c_str());
    return 2;
  }

  bool ok = true;
  // Overload: the ladder must have engaged — admissions up to capacity,
  // the rest shed at the door with a retry hint.
  const double offered = FindNumber(overload, "offered").value_or(0);
  const double ovl_admitted = FindNumber(overload, "admitted").value_or(0);
  const double shed = FindNumber(overload, "shed").value_or(0);
  const bool ladder =
      shed > 0 && ovl_admitted > 0 && ovl_admitted + shed == offered;
  std::printf("  %-24s offered %.0f = admitted %.0f + shed %.0f  %s\n",
              "overload", offered, ovl_admitted, shed,
              ladder ? "ok" : "FAIL");
  ok &= ladder;

  // Soak: every admitted request answered, nothing dropped, and the two
  // runs' per-client transcripts byte-identical — the server determinism
  // contract.
  const double admitted = FindNumber(soak, "admitted").value_or(0);
  const double responses = FindNumber(soak, "responses").value_or(-1);
  const double dropped =
      FindNumber(soak, "dropped_responses").value_or(-1);
  const bool answered = admitted > 0 && responses == admitted;
  std::printf("  %-24s admitted %.0f, responses %.0f, dropped %.0f  %s\n",
              "soak", admitted, responses, dropped,
              answered && dropped == 0 ? "ok" : "FAIL");
  ok &= answered && dropped == 0;
  const bool identical = FindBool(soak, "byte_identical").value_or(false);
  std::printf("  %-24s byte_identical %s\n", "soak",
              identical ? "true: ok" : "false: FAIL");
  ok &= identical;

  // Drain: everything in flight when drain began ran to completion with
  // its response delivered.
  const double at_drain =
      FindNumber(drain, "in_flight_at_drain").value_or(0);
  const double drained =
      FindNumber(drain, "drained_in_flight").value_or(-1);
  const double aborted =
      FindNumber(drain, "aborted_in_flight").value_or(-1);
  const double drain_dropped =
      FindNumber(drain, "drain_dropped_responses").value_or(-1);
  const bool drain_ok = at_drain > 0 && drained == at_drain &&
                        aborted == 0 && drain_dropped == 0;
  std::printf("  %-24s %.0f in flight, %.0f drained, %.0f aborted, %.0f "
              "dropped  %s\n",
              "drain", at_drain, drained, aborted, drain_dropped,
              drain_ok ? "ok" : "FAIL");
  ok &= drain_ok;

  const double crashes = FindNumber(fresh, "crashes").value_or(-1);
  std::printf("  %-24s crashes %.0f  %s\n", "process", crashes,
              crashes == 0 ? "ok" : "FAIL");
  ok &= crashes == 0;

  const double injected =
      FindNumber(fresh, "faults_injected").value_or(0);
  if (!fault_spec.empty()) {
    // An armed profile that never fired exercises nothing — demand
    // evidence before letting the run vouch for fault tolerance.
    std::printf("  %-24s faults_injected %.0f under armed profile  %s\n",
                "faults", injected,
                injected > 0 ? "ok" : "FAIL (profile never fired)");
    ok &= injected > 0;
  } else {
    std::printf("  %-24s no fault profile armed (info only)\n", "faults");
  }

  const double rps = FindNumber(soak, "throughput_rps").value_or(0);
  const double floor_rps =
      FindNumber(JsonSection(baseline, "soak"), "throughput_rps")
          .value_or(0);
  CheckMetric("soak", "throughput_rps", rps, floor_rps,
              /*tolerance=*/0.0, /*enforced=*/false);

  if (!ok) {
    std::printf("bench_guard: SERVER INVARIANT BROKE — overload must "
                "shed, admitted work must answer byte-identically, drain "
                "must finish in-flight work, and the process must not "
                "crash\n");
    return 1;
  }
  std::printf("bench_guard: server soak clean — ladder engaged, "
              "byte-identical transcripts, graceful drain\n");
  return 0;
}

int Run(int argc, char** argv) {
  Result<ParsedArgs> args = ParsedArgs::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "bench_guard: %s\n",
                 args.status().ToString().c_str());
    return 2;
  }
  const std::string fresh_path = args->GetString("fresh", "");
  const std::string baseline_path = args->GetString("baseline", "");
  const std::string mode = args->GetString("mode", "solver_rounds");
  if (fresh_path.empty() || baseline_path.empty() ||
      (mode != "solver_rounds" && mode != "graph_mutation" &&
       mode != "fault" && mode != "server")) {
    std::fprintf(stderr,
                 "usage: bench_guard --fresh=NEW.json --baseline=OLD.json "
                 "[--mode=solver_rounds|graph_mutation|fault|server] "
                 "[--tolerance=0.2] [--min-cold-ms=1.0]\n");
    return 2;
  }
  if (mode == "fault") {
    return RunFault(fresh_path, baseline_path);
  }
  if (mode == "server") {
    return RunServer(fresh_path, baseline_path);
  }
  Result<double> tolerance = args->GetDouble("tolerance", 0.2);
  Result<double> min_cold_ms = args->GetDouble("min-cold-ms", 1.0);
  if (!tolerance.ok() || !min_cold_ms.ok()) {
    std::fprintf(stderr, "bench_guard: bad numeric flag\n");
    return 2;
  }
  if (mode == "graph_mutation") {
    return RunGraphMutation(fresh_path, baseline_path, *tolerance,
                            *min_cold_ms);
  }

  BenchFile fresh, baseline;
  if (!ParseBenchFile(fresh_path, &fresh) ||
      !ParseBenchFile(baseline_path, &baseline)) {
    return 2;
  }

  std::printf("bench_guard: %s vs floor %s (tolerance %.0f%%, rows under "
              "%.1f ms cold are info-only)\n",
              fresh_path.c_str(), baseline_path.c_str(), *tolerance * 100,
              *min_cold_ms);
  bool ok = true;
  for (const BenchRun& floor : baseline.runs) {
    const BenchRun* now = FindRun(fresh, floor.solver, floor.motif);
    const std::string where = floor.solver + " " + floor.motif;
    if (now == nullptr) {
      std::printf("  %-24s MISSING from fresh results: FAIL\n",
                  where.c_str());
      ok = false;
      continue;
    }
    const bool enforced = floor.cold_ms >= *min_cold_ms;
    ok &= CheckMetric(where, "speedup", now->speedup, floor.speedup,
                      *tolerance, enforced);
  }
  ok &= CheckMetric("aggregate", "ct_wt_aggregate_speedup",
                    fresh.ct_wt_aggregate_speedup,
                    baseline.ct_wt_aggregate_speedup, *tolerance,
                    /*enforced=*/true);
  if (!ok) {
    std::printf("bench_guard: REGRESSION — a tracked speedup fell more "
                "than %.0f%% below its committed floor\n",
                *tolerance * 100);
    return 1;
  }
  std::printf("bench_guard: all tracked speedups within tolerance\n");
  return 0;
}

}  // namespace
}  // namespace tpp::tools

int main(int argc, char** argv) { return tpp::tools::Run(argc, argv); }
