// Shared helpers for the tpp test suite.

#ifndef TPP_TESTS_TEST_UTIL_H_
#define TPP_TESTS_TEST_UTIL_H_

#include <initializer_list>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "graph/graph.h"

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

/// Pins the global thread budget (which sizes the parallel sweeps, e.g.
/// IndexedEngine::BeginRound's row fan-out) and restores the automatic
/// resolution on scope exit, so an assertion that returns early cannot
/// leak the setting into later tests.
struct ScopedGlobalThreads {
  explicit ScopedGlobalThreads(int threads) { SetGlobalThreadCount(threads); }
  ~ScopedGlobalThreads() { SetGlobalThreadCount(0); }
};

}  // namespace tpp::testing

#endif  // TPP_TESTS_TEST_UTIL_H_
