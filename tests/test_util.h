// Shared helpers for the tpp test suite.

#ifndef TPP_TESTS_TEST_UTIL_H_
#define TPP_TESTS_TEST_UTIL_H_

#include <initializer_list>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "core/gain_table.h"
#include "graph/graph.h"
#include "motif/incidence_index.h"
#include "motif/link_instances.h"

namespace tpp::testing {

/// Builds a graph from an initializer list of node pairs; aborts on
/// invalid input (tests supply literals).
inline graph::Graph MakeGraph(size_t n,
                              std::initializer_list<std::pair<int, int>>
                                  edges) {
  graph::Graph g(n);
  for (auto [u, v] : edges) {
    Status s = g.AddEdge(static_cast<graph::NodeId>(u),
                         static_cast<graph::NodeId>(v));
    TPP_CHECK(s.ok());
  }
  return g;
}

/// Edge literal shorthand.
inline graph::Edge E(int u, int v) {
  return graph::Edge(static_cast<graph::NodeId>(u),
                     static_cast<graph::NodeId>(v));
}

/// The production index build, motif::IncidenceIndex::BuildCached, through
/// a link cache of its own: the instances of each target on `g` with every
/// target link left out. `g` may be the base graph or the released graph
/// G - T; the index is the same.
inline Result<motif::IncidenceIndex> BuildFreshIndex(
    const graph::Graph& g, const std::vector<graph::Edge>& targets,
    motif::MotifKind kind,
    const motif::IncidenceIndex::BuildOptions& options = {},
    motif::IncidenceIndex::BuildStats* stats = nullptr) {
  motif::LinkInstanceCache cache;
  return motif::IncidenceIndex::BuildCached(g, targets, kind, cache, options,
                                            stats);
}

/// Row i of a per-target round view expanded to one gain per target (0
/// where the row has no cell). Aborts when the row's cells do not ascend
/// strictly by target, the order core/gain_table.h promises.
inline std::vector<size_t> DenseRow(const core::RoundGains& view, size_t i,
                                    size_t num_targets) {
  std::vector<size_t> row(num_targets, 0);
  for (uint32_t p = view.cell_offsets[i]; p < view.cell_offsets[i + 1];
       ++p) {
    if (p > view.cell_offsets[i]) {
      TPP_CHECK_LT(view.cell_targets[p - 1], view.cell_targets[p]);
    }
    row[view.cell_targets[p]] = view.cell_gains[p];
  }
  return row;
}

/// Pins the global thread budget (which sizes the parallel sweeps, e.g.
/// the index build's enumeration fan-out) and restores the automatic
/// resolution on scope exit, so an assertion that returns early cannot
/// leak the setting into later tests.
struct ScopedGlobalThreads {
  explicit ScopedGlobalThreads(int threads) { SetGlobalThreadCount(threads); }
  ~ScopedGlobalThreads() { SetGlobalThreadCount(0); }
};

}  // namespace tpp::testing

#endif  // TPP_TESTS_TEST_UTIL_H_
