#include "graph/graph.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace tpp::graph {

namespace {

// Inserts `v` into the sorted vector `vec`; returns false if already there.
bool SortedInsert(std::vector<NodeId>& vec, NodeId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it != vec.end() && *it == v) return false;
  vec.insert(it, v);
  return true;
}

// Erases `v` from the sorted vector `vec`; returns false if absent.
bool SortedErase(std::vector<NodeId>& vec, NodeId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it == vec.end() || *it != v) return false;
  vec.erase(it);
  return true;
}

bool SortedContains(const std::vector<NodeId>& vec, NodeId v) {
  return std::binary_search(vec.begin(), vec.end(), v);
}

}  // namespace

NodeId Graph::AddNode() {
  adj_.emplace_back();
  return static_cast<NodeId>(adj_.size() - 1);
}

Status Graph::AddEdge(NodeId u, NodeId v) {
  if (u >= NumNodes() || v >= NumNodes()) {
    return Status::InvalidArgument(
        StrFormat("edge (%u,%u) out of range for n=%zu", u, v, NumNodes()));
  }
  if (u == v) {
    return Status::InvalidArgument(StrFormat("self-loop at node %u", u));
  }
  if (!SortedInsert(adj_[u], v)) {
    return Status::AlreadyExists(StrFormat("edge (%u,%u) exists", u, v));
  }
  SortedInsert(adj_[v], u);
  ++num_edges_;
  return Status::Ok();
}

Status Graph::RemoveEdge(NodeId u, NodeId v) {
  if (u >= NumNodes() || v >= NumNodes()) {
    return Status::InvalidArgument(
        StrFormat("edge (%u,%u) out of range for n=%zu", u, v, NumNodes()));
  }
  if (!SortedErase(adj_[u], v)) {
    return Status::NotFound(StrFormat("edge (%u,%u) absent", u, v));
  }
  SortedErase(adj_[v], u);
  --num_edges_;
  return Status::Ok();
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= NumNodes() || v >= NumNodes() || u == v) return false;
  // Search the shorter list.
  if (adj_[u].size() <= adj_[v].size()) return SortedContains(adj_[u], v);
  return SortedContains(adj_[v], u);
}

std::vector<NodeId> Graph::CommonNeighbors(NodeId u, NodeId v) const {
  std::vector<NodeId> out;
  out.reserve(std::min(adj_[u].size(), adj_[v].size()));
  ForEachCommonNeighbor(u, v, [&](NodeId w) { out.push_back(w); });
  return out;
}

size_t Graph::CountCommonNeighbors(NodeId u, NodeId v) const {
  size_t count = 0;
  ForEachCommonNeighbor(u, v, [&](NodeId) { ++count; });
  return count;
}

std::vector<Edge> Graph::Edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < NumNodes(); ++u) {
    for (NodeId v : adj_[u]) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::vector<EdgeKey> Graph::EdgeKeys() const {
  std::vector<EdgeKey> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < NumNodes(); ++u) {
    for (NodeId v : adj_[u]) {
      if (u < v) out.push_back(MakeEdgeKey(u, v));
    }
  }
  return out;
}

size_t Graph::RemoveEdges(std::span<const Edge> edges) {
  size_t removed = 0;
  for (const Edge& e : edges) {
    if (HasEdge(e.u, e.v)) {
      Status s = RemoveEdge(e.u, e.v);
      if (s.ok()) ++removed;
    }
  }
  return removed;
}

Status Graph::AddEdges(std::span<const Edge> edges) {
  if (edges.empty()) return Status::Ok();
  // Validate the whole batch before touching anything: the directed
  // half-edge list below is only built for a batch known to apply.
  std::vector<EdgeKey> keys;
  keys.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u >= NumNodes() || e.v >= NumNodes()) {
      return Status::InvalidArgument(StrFormat(
          "edge (%u,%u) out of range for n=%zu", e.u, e.v, NumNodes()));
    }
    if (e.u == e.v) {
      return Status::InvalidArgument(StrFormat("self-loop at node %u", e.u));
    }
    if (HasEdge(e.u, e.v)) {
      return Status::AlreadyExists(
          StrFormat("edge (%u,%u) exists", e.u, e.v));
    }
    keys.push_back(MakeEdgeKey(e.u, e.v));
  }
  std::sort(keys.begin(), keys.end());
  for (size_t i = 1; i < keys.size(); ++i) {
    if (keys[i] == keys[i - 1]) {
      return Status::InvalidArgument(
          StrFormat("edge (%u,%u) duplicated in batch",
                    EdgeKeyU(keys[i]), EdgeKeyV(keys[i])));
    }
  }

  // One directed half-edge per endpoint, grouped by node so every touched
  // adjacency list is grown once and merged once.
  std::vector<std::pair<NodeId, NodeId>> half;
  half.reserve(2 * keys.size());
  for (EdgeKey k : keys) {
    half.emplace_back(EdgeKeyU(k), EdgeKeyV(k));
    half.emplace_back(EdgeKeyV(k), EdgeKeyU(k));
  }
  std::sort(half.begin(), half.end());
  for (size_t lo = 0; lo < half.size();) {
    size_t hi = lo;
    const NodeId node = half[lo].first;
    while (hi < half.size() && half[hi].first == node) ++hi;
    std::vector<NodeId>& list = adj_[node];
    const size_t old_size = list.size();
    const size_t add = hi - lo;
    if (list.capacity() < old_size + add) {
      // Spare-capacity slack: grow geometrically so a churn workload's
      // repeated commits amortize to O(1) reallocations per edge.
      list.reserve(std::max(old_size + add, old_size + old_size / 2 + 4));
    }
    list.resize(old_size + add);
    // Backward merge of the (sorted) new neighbors half[lo..hi) into the
    // sorted prefix [0, old_size): one pass, no per-insert shifting.
    size_t i = old_size;    // one past the last unmerged old element
    size_t j = hi;          // one past the last unmerged new element
    size_t w = list.size();  // one past the next write slot
    while (j > lo) {
      if (i > 0 && list[i - 1] > half[j - 1].second) {
        list[--w] = list[--i];
      } else {
        list[--w] = half[--j].second;
      }
    }
    lo = hi;
  }
  num_edges_ += keys.size();
  return Status::Ok();
}

Status Graph::ApplyDelta(const GraphDelta& delta) {
  // Validate both directions up front so the graph is untouched on error.
  for (const Edge& e : delta.removed) {
    if (!HasEdge(e.u, e.v)) {
      return Status::NotFound(
          StrFormat("delta removes absent edge (%u,%u)", e.u, e.v));
    }
  }
  for (const Edge& e : delta.inserted) {
    if (e.u >= NumNodes() || e.v >= NumNodes() || e.u == e.v) {
      return Status::InvalidArgument(
          StrFormat("delta inserts invalid edge (%u,%u)", e.u, e.v));
    }
    if (HasEdge(e.u, e.v)) {
      return Status::AlreadyExists(
          StrFormat("delta inserts present edge (%u,%u)", e.u, e.v));
    }
  }
  for (const Edge& e : delta.removed) {
    Status s = RemoveEdge(e.u, e.v);
    TPP_CHECK(s.ok());
  }
  Status s = AddEdges(delta.inserted);
  TPP_CHECK(s.ok());
  return Status::Ok();
}

Result<GraphDelta> MakeGraphDelta(std::vector<Edge> inserted,
                                  std::vector<Edge> removed) {
  auto by_key = [](const Edge& a, const Edge& b) { return a.Key() < b.Key(); };
  for (std::vector<Edge>* edges : {&inserted, &removed}) {
    for (Edge& e : *edges) {
      if (e.u == e.v) {
        return Status::InvalidArgument(
            StrFormat("self-loop at node %u", e.u));
      }
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    std::sort(edges->begin(), edges->end(), by_key);
    auto dup = std::adjacent_find(edges->begin(), edges->end());
    if (dup != edges->end()) {
      return Status::InvalidArgument(
          StrFormat("edge %u-%u listed twice", dup->u, dup->v));
    }
  }
  for (const Edge& e : inserted) {
    if (std::binary_search(removed.begin(), removed.end(), e, by_key)) {
      return Status::InvalidArgument(
          StrFormat("edge %u-%u both inserted and removed", e.u, e.v));
    }
  }
  return GraphDelta{std::move(inserted), std::move(removed)};
}

bool operator==(const Graph& a, const Graph& b) {
  return a.adj_ == b.adj_;
}

std::string Graph::DebugString() const {
  return StrFormat("Graph(n=%zu, m=%zu)", NumNodes(), NumEdges());
}

Result<Graph> BuildGraph(size_t num_nodes, const std::vector<Edge>& edges) {
  Graph g(num_nodes);
  for (const Edge& e : edges) {
    TPP_RETURN_IF_ERROR(g.AddEdge(e.u, e.v));
  }
  return g;
}

Graph BuildGraphLenient(size_t num_nodes, const std::vector<Edge>& edges) {
  Graph g(num_nodes);
  for (const Edge& e : edges) {
    if (e.u == e.v || e.u >= num_nodes || e.v >= num_nodes) continue;
    if (!g.HasEdge(e.u, e.v)) {
      Status s = g.AddEdge(e.u, e.v);
      (void)s;  // Cannot fail after the guards above.
    }
  }
  return g;
}

}  // namespace tpp::graph
