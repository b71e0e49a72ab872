// Graph: undirected simple graph with sorted adjacency lists.
//
// This is the substrate every other module builds on. The representation is
// tuned for the access patterns of the TPP algorithms:
//   * neighbor scans and sorted-set intersections (motif enumeration),
//   * O(log d) edge-existence queries,
//   * repeated edge deletions (protector removal) with O(d) cost,
//   * cheap whole-graph copies so experiments can perturb a working copy.
//
// Storage is a slotted CSR: one flat NodeId array holds the adjacency
// lists, and each node owns a slot of it (offset, live degree, capacity).
// A removal shifts within its slot and leaves spare room at the slot's
// end. An insert fills that room; a full slot moves, with geometric
// slack, to the end of a second "spill" array, leaving a hole behind, so
// an edit never reallocates the bulk array. A copy is two allocations and
// O(n + m) bytes and compacts holes, slack and spill into one array;
// destroying a graph is a few frees. Because any insert may move any list
// (and grow the spill array), every span returned by Neighbors() dies at
// the next mutation.

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
  explicit Graph(size_t num_nodes = 0) : slots_(num_nodes) {}

  /// Copies the live lists into one compact array (no holes, no slack).
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&&) noexcept = default;
  Graph& operator=(Graph&&) noexcept = default;

  /// Number of nodes (fixed at construction; see AddNode).
  size_t NumNodes() const { return slots_.size(); }

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
  size_t Degree(NodeId u) const { return slots_[u].size; }

  /// Sorted neighbor list of node u as a read-only view. The view is
  /// invalidated by any mutation of the graph.
  std::span<const NodeId> Neighbors(NodeId u) const {
    return {Data(slots_[u]), slots_[u].size};
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
    const std::span<const NodeId> a = Neighbors(u);
    const std::span<const NodeId> b = Neighbors(v);
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
  /// touched slot makes room ONCE (moving with geometric slack if full)
  /// and its new neighbors are merged in by a single backward merge
  /// pass, so a commit inserting k edges into a degree-d list costs
  /// O(d + k) with at most one move, instead of k full lower_bound-insert
  /// shifts (and never a re-sort). Lists stay sorted ascending at all
  /// times.
  Status AddEdges(std::span<const Edge> edges);

  /// Applies an already-normalized delta (the GraphDelta contract:
  /// canonical sorted unique disjoint lists): every `removed` edge must be
  /// present and every `inserted` edge absent, else the graph is left
  /// untouched and an error returned. Removals apply first. The same
  /// delta replays onto any copy of the graph.
  Status ApplyDelta(const GraphDelta& delta);

  /// Structural equality: same node count and same edge set (slack,
  /// holes and slot placement are not compared).
  friend bool operator==(const Graph& a, const Graph& b);

  /// Heap bytes the graph holds: its arrays at their allocated capacity,
  /// slot slack and holes included.
  size_t MemoryBytes() const;

  /// Human-readable one-line summary, e.g. "Graph(n=1133, m=5451)".
  std::string DebugString() const;

 private:
  friend Result<Graph> BuildGraph(size_t, const std::vector<Edge>&);
  friend Graph BuildGraphLenient(size_t, const std::vector<Edge>&);

  // Node u's list is [begin, begin + size) of nbrs_, or of spill_ when
  // begin carries kSpilled; [begin + size, begin + cap) is spare room
  // only u's inserts use.
  struct Slot {
    size_t begin = 0;
    uint32_t size = 0;
    uint32_t cap = 0;
  };
  static constexpr size_t kSpilled = size_t{1} << 63;

  const NodeId* Data(const Slot& slot) const {
    return (slot.begin & kSpilled ? spill_.data() : nbrs_.data()) +
           (slot.begin & ~kSpilled);
  }
  NodeId* Data(const Slot& slot) {
    return const_cast<NodeId*>(std::as_const(*this).Data(slot));
  }

  // Compact graph of the in-range, loop-free `edges`; a repeated edge is
  // kept once and sets *repeats.
  static Graph FromValidEdges(size_t num_nodes, std::span<const Edge> edges,
                              bool* repeats);

  // Gives u's slot room for `extra` more neighbors.
  void Reserve(NodeId u, size_t extra);
  // Inserts v into u's list; v must be absent.
  void Insert(NodeId u, NodeId v);
  // Erases v from u's list; false if absent.
  bool Erase(NodeId u, NodeId v);

  std::vector<Slot> slots_;
  std::vector<NodeId> nbrs_;
  std::vector<NodeId> spill_;
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
