#include "core/report.h"

#include <fstream>
#include <sstream>

#include "common/strings.h"
#include "motif/motif.h"

namespace tpp::core {

using graph::Edge;
using graph::Graph;

std::string FormatProtectionReport(const Graph& base,
                                   const TppProblem& problem,
                                   const ProtectionResult& result) {
  std::string out;
  out += StrFormat("TPP protection report\n");
  out += StrFormat("  motif:            %s\n",
                   std::string(motif::MotifName(problem.motif)).c_str());
  // The same line Graph::DebugString prints for base - T.
  out += StrFormat("  released graph:   Graph(n=%zu, m=%zu)\n",
                   base.NumNodes(), base.NumEdges() - problem.targets.size());
  out += StrFormat("  targets:          %zu\n", problem.targets.size());
  out += StrFormat("  initial s({},T):  %zu\n", result.initial_similarity);
  out += StrFormat("  protectors:       %zu\n", result.protectors.size());
  out += StrFormat("  final s(P,T):     %zu (%s)\n", result.final_similarity,
                   result.final_similarity == 0 ? "full protection"
                                                : "partial protection");
  out += StrFormat("  gain evaluations: %llu\n",
                   static_cast<unsigned long long>(result.gain_evaluations));
  out += StrFormat("  selection time:   %.4fs\n", result.total_seconds);
  out += "  picks:\n";
  for (size_t i = 0; i < result.picks.size(); ++i) {
    const PickTrace& pick = result.picks[i];
    std::string target_note =
        pick.for_target == PickTrace::kNoTarget
            ? std::string("global")
            : StrFormat("target %zu", pick.for_target);
    out += StrFormat("    %3zu. delete (%u,%u)  gain=%zu  s->%zu  [%s]\n",
                     i + 1, result.protectors[i].u, result.protectors[i].v,
                     pick.realized_gain, pick.similarity_after,
                     target_note.c_str());
  }
  return out;
}

std::string SerializeDeletionPlan(const TppProblem& problem,
                                  const ProtectionResult& result) {
  std::string out = "# tpp deletion plan v1\n";
  for (const Edge& t : problem.targets) {
    out += StrFormat("target %u %u\n", t.u, t.v);
  }
  for (const Edge& p : result.protectors) {
    out += StrFormat("protector %u %u\n", p.u, p.v);
  }
  return out;
}

std::vector<Edge> DeletionPlan::AllDeletions() const {
  std::vector<Edge> all = targets;
  all.insert(all.end(), protectors.begin(), protectors.end());
  return all;
}

Result<DeletionPlan> ParseDeletionPlan(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  bool header_seen = false;
  DeletionPlan plan;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = StripWhitespace(line);
    if (sv.empty()) continue;
    if (sv[0] == '#') {
      if (!header_seen && sv.find("tpp deletion plan") == std::string::npos) {
        return Status::InvalidArgument("not a tpp deletion plan file");
      }
      header_seen = true;
      continue;
    }
    std::vector<std::string_view> parts = SplitNonEmpty(sv, " \t");
    if (parts.size() != 3 || (parts[0] != "target" &&
                              parts[0] != "protector")) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected 'target|protector <u> <v>'",
                    line_no));
    }
    Result<int64_t> u = ParseInt64(parts[1]);
    Result<int64_t> v = ParseInt64(parts[2]);
    if (!u.ok()) return u.status();
    if (!v.ok()) return v.status();
    if (*u < 0 || *v < 0 || *u == *v) {
      return Status::InvalidArgument(
          StrFormat("line %zu: invalid link (%lld,%lld)", line_no,
                    static_cast<long long>(*u),
                    static_cast<long long>(*v)));
    }
    Edge e(static_cast<graph::NodeId>(*u), static_cast<graph::NodeId>(*v));
    if (parts[0] == "target") {
      plan.targets.push_back(e);
    } else {
      plan.protectors.push_back(e);
    }
  }
  if (!header_seen) {
    return Status::InvalidArgument("missing '# tpp deletion plan' header");
  }
  return plan;
}

Status SaveDeletionPlan(const TppProblem& problem,
                        const ProtectionResult& result,
                        const std::string& path) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) return Status::IoError("cannot open " + path + " for writing");
  f << SerializeDeletionPlan(problem, result);
  if (!f.good()) return Status::IoError("write failed for " + path);
  return Status::Ok();
}

Result<DeletionPlan> LoadDeletionPlan(const std::string& path) {
  std::ifstream f(path);
  if (!f) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  return ParseDeletionPlan(buf.str());
}

Result<Graph> ApplyDeletionPlan(const Graph& original,
                                const DeletionPlan& plan) {
  Graph released = original;
  for (const Edge& e : plan.AllDeletions()) {
    Status s = released.RemoveEdge(e.u, e.v);
    if (!s.ok()) {
      return Status::FailedPrecondition(
          StrFormat("plan lists (%u,%u) but the graph lacks it", e.u, e.v));
    }
  }
  return released;
}

}  // namespace tpp::core
