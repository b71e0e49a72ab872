#include "graph/graph.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace tpp::graph {

namespace {

Status CheckNewEdge(NodeId u, NodeId v, size_t num_nodes) {
  if (u >= num_nodes || v >= num_nodes) {
    return Status::InvalidArgument(
        StrFormat("edge (%u,%u) out of range for n=%zu", u, v, num_nodes));
  }
  if (u == v) {
    return Status::InvalidArgument(StrFormat("self-loop at node %u", u));
  }
  return Status::Ok();
}

Status EdgeExists(NodeId u, NodeId v) {
  return Status::AlreadyExists(StrFormat("edge (%u,%u) exists", u, v));
}

}  // namespace

Graph::Graph(const Graph& other) : num_edges_(other.num_edges_) {
  const size_t n = other.NumNodes();
  slots_.reserve(n);
  nbrs_.reserve(other.DegreeSum());
  // Appends each maximal run of back-to-back live lists at once (a slot's
  // spare room or a hole ends a run): copying a compact graph that saw a
  // few edits is a handful of memcpys.
  for (size_t u = 0; u < n;) {
    const NodeId* from = other.Data(other.slots_[u]);
    const size_t first = other.slots_[u].begin;
    size_t last = first;
    do {
      const uint32_t size = other.slots_[u++].size;
      slots_.push_back({nbrs_.size() + (last - first), size, size});
      last += size;
    } while (u < n && other.slots_[u].begin == last);
    nbrs_.insert(nbrs_.end(), from, from + (last - first));
  }
}

Graph& Graph::operator=(const Graph& other) {
  if (this != &other) *this = Graph(other);
  return *this;
}

void Graph::Reserve(NodeId u, size_t extra) {
  Slot& slot = slots_[u];
  const size_t need = slot.size + extra;
  if (need <= slot.cap) return;
  // Geometric slack, so a node that keeps gaining neighbors moves
  // O(log d) times and the holes it leaves sum to O(d).
  const size_t cap = std::max(need, size_t{slot.size} * 3 / 2 + 4);
  // The last list in spill_ grows in place; any other moves to its end.
  const size_t at = slot.begin & ~kSpilled;
  const bool last = (slot.begin & kSpilled) && at + slot.cap == spill_.size();
  const size_t begin = last ? at : spill_.size();
  spill_.resize(begin + cap);
  if (!last) {
    std::copy_n(Data(slot), slot.size, spill_.data() + begin);
    slot.begin = begin | kSpilled;
  }
  slot.cap = static_cast<uint32_t>(cap);
}

void Graph::Insert(NodeId u, NodeId v) {
  Reserve(u, 1);
  Slot& slot = slots_[u];
  NodeId* first = Data(slot);
  NodeId* last = first + slot.size;
  NodeId* at = std::lower_bound(first, last, v);
  std::copy_backward(at, last, last + 1);
  *at = v;
  ++slot.size;
}

bool Graph::Erase(NodeId u, NodeId v) {
  Slot& slot = slots_[u];
  NodeId* first = Data(slot);
  NodeId* last = first + slot.size;
  NodeId* at = std::lower_bound(first, last, v);
  if (at == last || *at != v) return false;
  std::copy(at + 1, last, at);
  --slot.size;
  return true;
}

NodeId Graph::AddNode() {
  slots_.emplace_back();
  return static_cast<NodeId>(slots_.size() - 1);
}

Status Graph::AddEdge(NodeId u, NodeId v) {
  TPP_RETURN_IF_ERROR(CheckNewEdge(u, v, NumNodes()));
  if (HasEdge(u, v)) return EdgeExists(u, v);
  Insert(u, v);
  Insert(v, u);
  ++num_edges_;
  return Status::Ok();
}

Status Graph::RemoveEdge(NodeId u, NodeId v) {
  if (u >= NumNodes() || v >= NumNodes()) {
    return Status::InvalidArgument(
        StrFormat("edge (%u,%u) out of range for n=%zu", u, v, NumNodes()));
  }
  if (!Erase(u, v)) {
    return Status::NotFound(StrFormat("edge (%u,%u) absent", u, v));
  }
  Erase(v, u);
  --num_edges_;
  return Status::Ok();
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u >= NumNodes() || v >= NumNodes() || u == v) return false;
  // Search the shorter list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const std::span<const NodeId> list = Neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

std::vector<NodeId> Graph::CommonNeighbors(NodeId u, NodeId v) const {
  std::vector<NodeId> out;
  out.reserve(std::min(Degree(u), Degree(v)));
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
    for (NodeId v : Neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

std::vector<EdgeKey> Graph::EdgeKeys() const {
  std::vector<EdgeKey> out;
  out.reserve(num_edges_);
  for (NodeId u = 0; u < NumNodes(); ++u) {
    for (NodeId v : Neighbors(u)) {
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
    TPP_RETURN_IF_ERROR(CheckNewEdge(e.u, e.v, NumNodes()));
    if (HasEdge(e.u, e.v)) return EdgeExists(e.u, e.v);
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
  // slot makes room once and is merged once.
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
    Reserve(node, hi - lo);
    Slot& slot = slots_[node];
    NodeId* list = Data(slot);
    // Backward merge of the (sorted) new neighbors half[lo..hi) into the
    // sorted prefix [0, size): one pass, no per-insert shifting.
    size_t i = slot.size;         // one past the last unmerged old element
    size_t j = hi;                // one past the last unmerged new element
    size_t w = i + (hi - lo);     // one past the next write slot
    while (j > lo) {
      if (i > 0 && list[i - 1] > half[j - 1].second) {
        list[--w] = list[--i];
      } else {
        list[--w] = half[--j].second;
      }
    }
    slot.size += static_cast<uint32_t>(hi - lo);
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
  if (a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges()) {
    return false;
  }
  for (NodeId u = 0; u < a.NumNodes(); ++u) {
    if (!std::ranges::equal(a.Neighbors(u), b.Neighbors(u))) return false;
  }
  return true;
}

size_t Graph::MemoryBytes() const {
  return slots_.capacity() * sizeof(Slot) +
         (nbrs_.capacity() + spill_.capacity()) * sizeof(NodeId);
}

std::string Graph::DebugString() const {
  return StrFormat("Graph(n=%zu, m=%zu)", NumNodes(), NumEdges());
}

Graph Graph::FromValidEdges(size_t num_nodes, std::span<const Edge> edges,
                            bool* repeats) {
  // Counting sort of the half-edges by node: count, place, then sort each
  // (short) list and drop repeats.
  Graph g(num_nodes);
  for (const Edge& e : edges) {
    ++g.slots_[e.u].cap;
    ++g.slots_[e.v].cap;
  }
  size_t at = 0;
  for (Slot& slot : g.slots_) {
    slot.begin = at;
    at += slot.cap;
  }
  g.nbrs_.resize(at);
  for (const Edge& e : edges) {
    Slot& su = g.slots_[e.u];
    Slot& sv = g.slots_[e.v];
    g.nbrs_[su.begin + su.size++] = e.v;
    g.nbrs_[sv.begin + sv.size++] = e.u;
  }
  *repeats = false;
  size_t write = 0;
  for (Slot& slot : g.slots_) {
    NodeId* first = g.nbrs_.data() + slot.begin;
    NodeId* last = first + slot.size;
    std::sort(first, last);
    NodeId* end = std::unique(first, last);
    if (end != last) *repeats = true;
    // Slide left over the room dropped repeats freed (write <= begin).
    if (write != slot.begin) std::copy(first, end, g.nbrs_.data() + write);
    slot = {write, static_cast<uint32_t>(end - first),
            static_cast<uint32_t>(end - first)};
    write += slot.size;
  }
  g.nbrs_.resize(write);
  g.num_edges_ = write / 2;
  return g;
}

Result<Graph> BuildGraph(size_t num_nodes, const std::vector<Edge>& edges) {
  // Reports the edge an AddEdge loop would stop at: the first one that is
  // out of range, a self-loop, or a repeat of an earlier edge.
  size_t bad = 0;
  while (bad < edges.size() &&
         CheckNewEdge(edges[bad].u, edges[bad].v, num_nodes).ok()) {
    ++bad;
  }
  bool repeats = false;
  Graph g = Graph::FromValidEdges(
      num_nodes, std::span<const Edge>(edges).first(bad), &repeats);
  if (repeats) {
    std::unordered_set<EdgeKey> seen;
    for (size_t i = 0; i < bad; ++i) {
      const Edge& e = edges[i];
      if (!seen.insert(e.Key()).second) return EdgeExists(e.u, e.v);
    }
  }
  if (bad < edges.size()) {
    return CheckNewEdge(edges[bad].u, edges[bad].v, num_nodes);
  }
  return g;
}

Graph BuildGraphLenient(size_t num_nodes, const std::vector<Edge>& edges) {
  std::vector<Edge> valid;
  valid.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.u != e.v && e.u < num_nodes && e.v < num_nodes) valid.push_back(e);
  }
  bool repeats = false;
  return Graph::FromValidEdges(num_nodes, valid, &repeats);
}

}  // namespace tpp::graph
