#include "reference/exhaustive.h"

#include <algorithm>

#include "common/strings.h"
#include "graph/edge.h"
#include "motif/incidence_index.h"
#include "reference/serial_index_build.h"

namespace tpp::core {

using graph::Edge;
using graph::EdgeKey;
using graph::EdgeKeyU;
using graph::EdgeKeyV;
using motif::IncidenceIndex;
using motif::TargetSubgraph;

namespace {

// Counts subsets of size <= k out of n, saturating at `limit`.
size_t CountSubsets(size_t n, size_t k, size_t limit) {
  size_t total = 0;
  size_t level = 1;  // C(n, 0)
  for (size_t i = 0; i <= std::min(k, n); ++i) {
    total += level;
    if (total >= limit) return limit;
    if (i < n) {
      // C(n, i+1) = C(n, i) * (n - i) / (i + 1), watch for overflow.
      if (level > limit * (i + 1) / (n - i)) return limit;
      level = level * (n - i) / (i + 1);
    }
  }
  return total;
}

// Recursive enumeration of subsets of `candidates` of size <= k, tracking
// which instances are covered via a per-instance hit count.
struct Searcher {
  const std::vector<std::vector<uint32_t>>* edge_instances = nullptr;
  size_t num_instances = 0;
  size_t k = 0;
  std::vector<uint32_t> covered_by;  // per-instance count of chosen edges
  size_t covered = 0;
  std::vector<size_t> chosen;
  size_t best_gain = 0;
  std::vector<size_t> best_chosen;
  size_t examined = 0;

  void Choose(size_t e) {
    for (uint32_t inst : (*edge_instances)[e]) {
      if (covered_by[inst]++ == 0) ++covered;
    }
    chosen.push_back(e);
  }
  void Unchoose(size_t e) {
    for (uint32_t inst : (*edge_instances)[e]) {
      if (--covered_by[inst] == 0) --covered;
    }
    chosen.pop_back();
  }
  void Recurse(size_t from) {
    ++examined;
    if (covered > best_gain) {
      best_gain = covered;
      best_chosen = chosen;
    }
    if (chosen.size() == k) return;
    for (size_t e = from; e < edge_instances->size(); ++e) {
      Choose(e);
      Recurse(e + 1);
      Unchoose(e);
    }
  }
};

}  // namespace

Result<ExhaustiveResult> ExhaustiveOptimal(const TppInstance& instance,
                                           size_t k, size_t max_subsets) {
  TPP_ASSIGN_OR_RETURN(IncidenceIndex index,
                       motif::BuildIndexSerialReference(instance.released,
                                                        instance.targets,
                                                        instance.motif));
  std::vector<EdgeKey> candidates = index.AliveCandidateEdges();
  size_t bound = CountSubsets(candidates.size(), k, max_subsets);
  if (bound >= max_subsets) {
    return Status::OutOfRange(
        StrFormat("exhaustive search over %zu candidates with k=%zu exceeds "
                  "the %zu-subset limit",
                  candidates.size(), k, max_subsets));
  }

  // Flatten the incidence into dense ids for the searcher.
  std::vector<std::vector<uint32_t>> edge_instances(candidates.size());
  const std::span<const TargetSubgraph> instances = index.instances();
  for (size_t e = 0; e < candidates.size(); ++e) {
    for (uint32_t i = 0; i < instances.size(); ++i) {
      if (instances[i].ContainsEdge(candidates[e])) {
        edge_instances[e].push_back(i);
      }
    }
  }

  Searcher searcher;
  searcher.edge_instances = &edge_instances;
  searcher.num_instances = instances.size();
  searcher.k = k;
  searcher.covered_by.assign(instances.size(), 0);
  searcher.Recurse(0);

  ExhaustiveResult out;
  out.best_gain = searcher.best_gain;
  out.subsets_examined = searcher.examined;
  for (size_t e : searcher.best_chosen) {
    out.best_set.emplace_back(EdgeKeyU(candidates[e]),
                              EdgeKeyV(candidates[e]));
  }
  return out;
}

}  // namespace tpp::core
