// Graph: undirected simple graph with sorted adjacency lists.
//
// This is the substrate every other module builds on. The representation is
// tuned for the access patterns of the TPP algorithms:
//   * neighbor scans and sorted-set intersections (motif enumeration),
//   * O(log d) edge-existence queries,
//   * repeated edge deletions (protector removal) with O(d) cost,
//   * cheap whole-graph copies so experiments can perturb a working copy.

#ifndef TPP_GRAPH_GRAPH_H_
#define TPP_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/edge.h"

namespace tpp::graph {

/// One normalized base-graph edit: the edges it inserts and removes. Both
/// lists hold canonical (u < v) edges, sorted ascending by key,
/// duplicate-free and disjoint (MakeGraphDelta builds exactly this).
/// Consumers (Graph::ApplyDelta, fingerprint update, index repair, cache
/// invalidation) rely on the contract.
struct GraphDelta {
  std::vector<Edge> inserted;
  std::vector<Edge> removed;

  bool empty() const { return inserted.empty() && removed.empty(); }
  size_t size() const { return inserted.size() + removed.size(); }
};

/// Normalizes raw insert/remove lists to the GraphDelta contract: puts
/// endpoints in canonical order and sorts each list by key. A self-loop,
/// an edge listed twice in one list, or an edge in both lists is an
/// InvalidArgument. Validation against a graph is Graph::ApplyDelta's job.
Result<GraphDelta> MakeGraphDelta(std::vector<Edge> inserted,
                                  std::vector<Edge> removed);

/// Mutable undirected simple graph on nodes 0..NumNodes()-1.
///
/// Self-loops and parallel edges are rejected. Adjacency lists are kept
/// sorted ascending at all times, so HasEdge is a binary search and
/// CommonNeighbors is a linear merge.
class Graph {
 public:
  /// Creates an empty graph with `num_nodes` isolated nodes.
  explicit Graph(size_t num_nodes = 0) : adj_(num_nodes) {}

  /// Number of nodes (fixed at construction; see AddNode).
  size_t NumNodes() const { return adj_.size(); }

  /// Number of undirected edges currently present.
  size_t NumEdges() const { return num_edges_; }

  /// Appends one isolated node and returns its id.
  NodeId AddNode();

  /// Inserts edge {u,v}. Errors: InvalidArgument for self-loops or ids out
  /// of range, AlreadyExists if the edge is present.
  Status AddEdge(NodeId u, NodeId v);

  /// Removes edge {u,v}. Errors: InvalidArgument for ids out of range,
  /// NotFound if the edge is absent.
  Status RemoveEdge(NodeId u, NodeId v);

  /// Removes edge by key; same contract as RemoveEdge(u, v).
  Status RemoveEdgeKey(EdgeKey key) {
    return RemoveEdge(EdgeKeyU(key), EdgeKeyV(key));
  }

  /// True iff edge {u,v} is present. Out-of-range ids return false.
  bool HasEdge(NodeId u, NodeId v) const;

  /// True iff the packed edge is present.
  bool HasEdgeKey(EdgeKey key) const {
    return HasEdge(EdgeKeyU(key), EdgeKeyV(key));
  }

  /// Degree of node u. Requires u < NumNodes().
  size_t Degree(NodeId u) const { return adj_[u].size(); }

  /// Sorted neighbor list of node u as a read-only view. The view is
  /// invalidated by any mutation of the graph.
  std::span<const NodeId> Neighbors(NodeId u) const {
    return std::span<const NodeId>(adj_[u]);
  }

  /// Sorted common neighbors of u and v (linear merge of two sorted lists).
  std::vector<NodeId> CommonNeighbors(NodeId u, NodeId v) const;

  /// Number of common neighbors without materializing them.
  size_t CountCommonNeighbors(NodeId u, NodeId v) const;

  /// Invokes `fn(w)` for every common neighbor w of u and v, in ascending
  /// order, without materializing a vector — the allocation-free form of
  /// CommonNeighbors the motif-enumeration hot path uses. Requires
  /// u, v < NumNodes(). `fn` must not mutate the graph.
  template <typename Fn>
  void ForEachCommonNeighbor(NodeId u, NodeId v, Fn&& fn) const {
    const std::vector<NodeId>& a = adj_[u];
    const std::vector<NodeId>& b = adj_[v];
    size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i] < b[j]) {
        ++i;
      } else if (a[i] > b[j]) {
        ++j;
      } else {
        fn(a[i]);
        ++i;
        ++j;
      }
    }
  }

  /// Snapshot of all edges with u < v, ordered by (u, v).
  std::vector<Edge> Edges() const;

  /// Snapshot of all canonical edge keys, ordered ascending.
  std::vector<EdgeKey> EdgeKeys() const;

  /// Sum of all degrees (== 2 * NumEdges()).
  size_t DegreeSum() const { return 2 * num_edges_; }

  /// Removes every edge in `edges` that is present; ignores absent ones.
  /// Returns the number actually removed. Accepts any contiguous Edge
  /// range (vector, array, subrange) without copying.
  size_t RemoveEdges(std::span<const Edge> edges);

  /// Batched insert: adds every edge in `edges` after validating the whole
  /// batch (range, self-loops, duplicates within the batch, edges already
  /// present) — all-or-nothing, the graph is untouched on error. Each
  /// touched adjacency list is grown ONCE with geometric spare-capacity
  /// slack and its new neighbors merged in by a single backward merge
  /// pass, so a commit inserting k edges into a degree-d list costs
  /// O(d + k) with at most one reallocation, instead of k full
  /// lower_bound-insert shifts (and never a re-sort). Lists stay sorted
  /// ascending at all times.
  Status AddEdges(std::span<const Edge> edges);

  /// Applies an already-normalized delta (the GraphDelta contract:
  /// canonical sorted unique disjoint lists): every `removed` edge must be
  /// present and every `inserted` edge absent, else the graph is left
  /// untouched and an error returned. Removals apply first. The same
  /// delta replays onto every copy of the graph (e.g. the released graphs
  /// of InstanceRepository groups).
  Status ApplyDelta(const GraphDelta& delta);

  /// Structural equality: same node count and same edge set.
  friend bool operator==(const Graph& a, const Graph& b);

  /// Human-readable one-line summary, e.g. "Graph(n=1133, m=5451)".
  std::string DebugString() const;

 private:
  std::vector<std::vector<NodeId>> adj_;
  size_t num_edges_ = 0;
};

/// Builds a graph from an explicit edge list. Errors on self-loops,
/// duplicate edges, or endpoints >= num_nodes.
Result<Graph> BuildGraph(size_t num_nodes, const std::vector<Edge>& edges);

/// Like BuildGraph but silently skips duplicates and self-loops; useful for
/// noisy external edge lists.
Graph BuildGraphLenient(size_t num_nodes, const std::vector<Edge>& edges);

}  // namespace tpp::graph

#endif  // TPP_GRAPH_GRAPH_H_
