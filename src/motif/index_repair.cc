// IncidenceIndex::ApplyGraphDelta — in-place index repair after a
// committed base-graph edit (a graph::GraphDelta).
//
// A cold build pays full enumeration over every target; an edit that
// touches a handful of edges invalidates almost none of that work. The
// repair exploits two facts:
//
//   * an instance DIES iff it contains a removed edge — exactly what the
//     existing DeleteEdge + deferred-flush machinery computes, so the
//     removal half reuses it verbatim; and
//   * an instance is CREATED iff it contains an inserted edge, and every
//     motif slot an inserted edge (p,q) can fill places a target endpoint
//     within distance one of {p,q} (see the per-slot enumerators below),
//     so the creation half only visits targets in the delta neighborhood
//     and only walks the slot cases that route through the new edge.
//
// Creation enumerates, per inserted edge e_k (ascending key order), the
// instances containing e_k ON THE POST-EDIT GRAPH, partitioned by the
// slot e_k fills — the cases are structurally disjoint, so no instance is
// produced twice for one (target, e_k) pair — and an instance is kept
// only when e_k is its LOWEST-indexed inserted edge, which makes each
// created instance appear exactly once across all pairs.
//
// The post-edit graph may be G - T or the base G, target links present.
// Every adjacency a slot case tests is an edge of the instance it emits,
// so a walk on G yields the G - T instances, in the same order (the
// identity of motif/link_instances.h), plus instances holding a target
// link, which are dropped; the repair on G is BitIdentical to the one on
// G - T.
//
// The merge then repairs in linear gather passes over the surviving
// layout — no hashing, no sorting, no per-entry searches on the survivor
// path. The edge universe only ever GROWS: a key whose last instance died
// keeps its dense id with alive count 0 (the greedy sweeps and the
// incremental round engine skip and tolerate zero rows by design, see
// core/greedy.cc), so removals shift no ids and the interner and probe
// table are reused untouched; only keys never seen before splice in at
// key rank. Dead instance rows compact out (survivors keep their
// relative order, created rows append), CSR-1 refills by streaming the
// old posting lists through the alive bits, and CSR-2 merges per edge
// with a flat cell map so survivor slot tables update by O(1) gathers.
// Everything a gain or candidate query can observe — per-key gains,
// per-target splits, the alive candidate set — comes out IDENTICAL to a
// cold build of the edited graph; the interned universe is an ascending
// superset whose extra keys hold alive count 0, and the instance-row
// permutation differs, neither of which any query or deterministic solver
// observes (tested in tests/index_repair_test.cc by solving to
// byte-identical plans against a cold build after randomized churn).

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/strings.h"
#include "motif/incidence_index.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::motif {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;
using graph::GraphDelta;
using graph::MakeEdgeKey;
using graph::NodeId;

namespace {

// --- Per-motif slot-case enumerators -----------------------------------
//
// Each enumerator emits every instance of target (u, v) that contains the
// inserted edge e = {p, q} in the POST-edit graph, exactly once. The
// cases partition by the slot e fills: e touches u, e touches v (mutually
// exclusive — e == (u,v) would be the target link, which deltas may not
// carry), or e is an interior edge, tried in both orientations. Emission
// reproduces the cold enumerators' edge lists (motif/enumerate.cc);
// TargetSubgraph's constructor sorts the keys either way.
//
// `adjpq(a, x)` answers g.HasEdge(a, x) for a in {p, q} in O(1) through
// the caller's stamp marks over N(p) and N(q); every adjacency test with
// an inserted endpoint on one side routes through it, and the remaining
// "x adjacent to both y and z" filters run as sorted-list intersections
// (Graph::ForEachCommonNeighbor) instead of per-neighbor binary probes.

template <typename AdjPQ, typename Emit>
void TriangleDelta(NodeId u, NodeId v, NodeId p, NodeId q, AdjPQ&& adjpq,
                   Emit&& emit) {
  // Cold: w in N(u) ∩ N(v), edges {(u,w), (w,v)} — both touch a target
  // endpoint, so there is no interior case and the inserted edge must
  // share an endpoint with the target (the candidate walk exploits
  // this: triangle candidates are only the targets incident to p or q).
  if (p == u || q == u) {
    const NodeId w = (p == u) ? q : p;
    if (adjpq(w, v)) emit({MakeEdgeKey(u, w), MakeEdgeKey(w, v)});
  } else if (p == v || q == v) {
    const NodeId w = (p == v) ? q : p;
    if (adjpq(w, u)) emit({MakeEdgeKey(u, w), MakeEdgeKey(w, v)});
  }
}

template <typename AdjPQ, typename Emit>
void RectangleDelta(const Graph& g, NodeId u, NodeId v, NodeId p, NodeId q,
                    AdjPQ&& adjpq, Emit&& emit) {
  // Cold: a in N(u), a != v; b in N(a), b not in {u,v}; b in N(v);
  // edges {(u,a), (a,b), (b,v)}.
  if (p == u || q == u) {  // e fills the (u,a) slot
    const NodeId a = (p == u) ? q : p;
    if (a == v) return;
    g.ForEachCommonNeighbor(a, v, [&](NodeId b) {  // b in N(a) ∩ N(v)
      if (b == u) return;  // b == v is impossible (b in N(v))
      emit({MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, v)});
    });
    return;
  }
  if (p == v || q == v) {  // e fills the (b,v) slot
    const NodeId b = (p == v) ? q : p;
    if (b == u) return;
    g.ForEachCommonNeighbor(b, u, [&](NodeId a) {  // a in N(b) ∩ N(u)
      if (a == v) return;  // a == u is impossible (a in N(u))
      emit({MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, v)});
    });
    return;
  }
  // e fills the interior (a,b) slot, in either orientation — all the
  // remaining adjacencies touch an inserted endpoint, so the case is O(1).
  auto ab = [&](NodeId a, NodeId b) {
    if (a == v || b == u || b == v) return;
    if (!adjpq(a, u)) return;  // u in N(a); also rejects a == u
    if (adjpq(b, v)) {
      emit({MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, v)});
    }
  };
  ab(p, q);
  ab(q, p);
}

template <typename AdjPQ, typename Emit>
void PentagonDelta(const Graph& g, NodeId u, NodeId v, NodeId p, NodeId q,
                   AdjPQ&& adjpq, Emit&& emit) {
  // Cold: a in N(u), a != v; b in N(a), b not in {u,v}; c in N(b), c not
  // in {u,v,a}; c in N(v); edges {(u,a), (a,b), (b,c), (c,v)}.
  if (p == u || q == u) {  // e fills the (u,a) slot
    const NodeId a = (p == u) ? q : p;
    if (a == v) return;
    for (NodeId b : g.Neighbors(a)) {
      if (b == u || b == v) continue;
      for (NodeId c : g.Neighbors(b)) {
        if (c == u || c == v || c == a) continue;
        if (g.HasEdge(c, v)) {
          emit({MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, c),
                MakeEdgeKey(c, v)});
        }
      }
    }
    return;
  }
  if (p == v || q == v) {  // e fills the (c,v) slot
    const NodeId c = (p == v) ? q : p;
    if (c == u) return;
    for (NodeId b : g.Neighbors(c)) {
      if (b == u || b == v) continue;
      for (NodeId a : g.Neighbors(b)) {
        if (a == u || a == v || a == c) continue;
        if (g.HasEdge(u, a)) {
          emit({MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, c),
                MakeEdgeKey(c, v)});
        }
      }
    }
    return;
  }
  // e fills the interior (a,b) slot, in either orientation. a and b are
  // inserted endpoints here, so the gating adjacency checks are O(1).
  auto ab = [&](NodeId a, NodeId b) {
    if (a == v || b == u || b == v) return;
    if (!adjpq(a, u)) return;  // u in N(a); also rejects a == u
    for (NodeId c : g.Neighbors(b)) {
      if (c == u || c == v || c == a) continue;
      if (g.HasEdge(c, v)) {
        emit({MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, c),
              MakeEdgeKey(c, v)});
      }
    }
  };
  // e fills the interior (b,c) slot, in either orientation.
  auto bc = [&](NodeId b, NodeId c) {
    if (b == u || b == v || c == u || c == v) return;
    if (!adjpq(c, v)) return;  // v in N(c)
    for (NodeId a : g.Neighbors(b)) {
      if (a == u || a == v || a == c) continue;
      if (g.HasEdge(u, a)) {
        emit({MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, c),
              MakeEdgeKey(c, v)});
      }
    }
  };
  ab(p, q);
  ab(q, p);
  bc(p, q);
  bc(q, p);
}

template <typename AdjPQ, typename Emit>
void RecTriDelta(const Graph& g, NodeId u, NodeId v, NodeId p, NodeId q,
                 AdjPQ&& adjpq, Emit&& emit) {
  // Cold: w in N(u) ∩ N(v); x in N(w), x not in {u,v}; type A when x in
  // N(v): {uw, wv, (w,x), (x,v)}; type B when x in N(u): {uw, wv, (u,x),
  // (x,w)}. One (w,x) can emit both types — two distinct instances. (The
  // matching branches here emit all type-A hits before the type-B hits
  // of the same (target, e) pair instead of interleaving them per x; the
  // within-pair emission order never leaves this file — instance rows
  // sort target-major either way and ids do not leak into plans.)
  if (p == u || q == u) {
    const NodeId y = (p == u) ? q : p;
    // e fills the uw slot (w = y): both types route through it.
    if (adjpq(y, v)) {
      g.ForEachCommonNeighbor(y, v, [&](NodeId x) {  // type A: x in N(y)∩N(v)
        if (x == u) return;
        emit({MakeEdgeKey(u, y), MakeEdgeKey(y, v), MakeEdgeKey(y, x),
              MakeEdgeKey(x, v)});
      });
      g.ForEachCommonNeighbor(y, u, [&](NodeId x) {  // type B: x in N(y)∩N(u)
        if (x == v) return;
        emit({MakeEdgeKey(u, y), MakeEdgeKey(y, v), MakeEdgeKey(u, x),
              MakeEdgeKey(x, y)});
      });
    }
    // e fills type B's ux slot (x = y): the hub w still needs both links.
    if (y != v) {
      g.ForEachCommonNeighbor(y, u, [&](NodeId w) {  // w in N(y) ∩ N(u)
        if (w == v) return;
        if (g.HasEdge(w, v)) {
          emit({MakeEdgeKey(u, w), MakeEdgeKey(w, v), MakeEdgeKey(u, y),
                MakeEdgeKey(y, w)});
        }
      });
    }
    return;
  }
  if (p == v || q == v) {
    const NodeId y = (p == v) ? q : p;
    // e fills the wv slot (w = y): both types route through it.
    if (adjpq(y, u)) {
      g.ForEachCommonNeighbor(y, v, [&](NodeId x) {  // type A: x in N(y)∩N(v)
        if (x == u) return;
        emit({MakeEdgeKey(u, y), MakeEdgeKey(y, v), MakeEdgeKey(y, x),
              MakeEdgeKey(x, v)});
      });
      g.ForEachCommonNeighbor(y, u, [&](NodeId x) {  // type B: x in N(y)∩N(u)
        if (x == v) return;
        emit({MakeEdgeKey(u, y), MakeEdgeKey(y, v), MakeEdgeKey(u, x),
              MakeEdgeKey(x, y)});
      });
    }
    // e fills type A's xv slot (x = y).
    if (y != u) {
      g.ForEachCommonNeighbor(y, u, [&](NodeId w) {  // w in N(y) ∩ N(u)
        if (w == v) return;
        if (g.HasEdge(w, v)) {
          emit({MakeEdgeKey(u, w), MakeEdgeKey(w, v), MakeEdgeKey(w, y),
                MakeEdgeKey(y, v)});
        }
      });
    }
    return;
  }
  // e fills the interior spoke slot — type A's (w,x) or type B's (x,w),
  // the same key — in either orientation of (hub, spoke). Every check
  // touches an inserted endpoint, so the whole case is O(1).
  auto wx = [&](NodeId w, NodeId x) {
    if (w == u || w == v || x == u || x == v) return;
    if (!adjpq(w, u) || !adjpq(w, v)) return;
    if (adjpq(x, v)) {
      emit({MakeEdgeKey(u, w), MakeEdgeKey(w, v), MakeEdgeKey(w, x),
            MakeEdgeKey(x, v)});
    }
    if (adjpq(x, u)) {
      emit({MakeEdgeKey(u, w), MakeEdgeKey(w, v), MakeEdgeKey(u, x),
            MakeEdgeKey(x, w)});
    }
  };
  wx(p, q);
  wx(q, p);
}

// Enumerates every instance CREATED by the delta on the post-edit graph.
// The walk is insert-major: for each inserted edge e_k = {p, q} it marks
// N(p) and N(q) in a stamp array — the slot enumerators answer adjacency
// against the inserted endpoints in O(1) through it — then generates the
// candidate targets and runs the slot enumerators per candidate. A
// target t can gain an instance through e_k only when one of its
// endpoints lies in {p,q} ∪ N(p) ∪ N(q) (every slot case anchors a
// target endpoint at distance <= 1 from e); triangles tighten this to
// the targets INCIDENT to p or q, since their slot cases require a
// shared endpoint. Candidates come from the sorted (node << 32 | target)
// endpoint pairs cached on the index (`node_targets`, one binary search
// per node) deduplicated per k with a stamp array. An instance is kept
// only when it holds no target key (`target_keys`, sorted; see the file
// comment) and e_k is its LOWEST-indexed inserted edge, so each created
// instance is produced exactly once; the final stable sort by target
// restores the target-major row order the phase-3 merge relies on
// (within one target the insert-major walk already emits in ascending k).
std::vector<TargetSubgraph> EnumerateCreatedInstances(
    const Graph& g, const std::vector<Edge>& targets, MotifKind kind,
    const std::vector<Edge>& inserted, std::span<const EdgeKey> target_keys,
    std::span<const uint64_t> node_targets) {
  std::vector<TargetSubgraph> created;
  if (inserted.empty()) return created;

  std::vector<EdgeKey> inserted_keys;
  inserted_keys.reserve(inserted.size());
  for (const Edge& e : inserted) inserted_keys.push_back(MakeEdgeKey(e.u, e.v));

  std::vector<uint8_t> mark(g.NumNodes(), 0);  // bit 1: N(p), bit 2: N(q)
  std::vector<uint32_t> tstamp(targets.size(), 0);
  for (size_t k = 0; k < inserted.size(); ++k) {
    const NodeId p = inserted[k].u;
    const NodeId q = inserted[k].v;
    for (NodeId w : g.Neighbors(p)) mark[w] |= 1;
    for (NodeId w : g.Neighbors(q)) mark[w] |= 2;
    auto adjpq = [&](NodeId a, NodeId x) {
      return (mark[x] & (a == p ? 1 : 2)) != 0;
    };
    const size_t kk = k;
    auto run = [&](uint32_t t) {
      const NodeId u = targets[t].u;
      const NodeId v = targets[t].v;
      // Rectangle and RecTri slot cases either match an inserted endpoint
      // to a target endpoint or anchor BOTH target endpoints inside
      // N(p) ∪ N(q) — their interior slots connect u and v to the
      // inserted edge directly — so a candidate failing both cannot
      // contain e and skips the enumerator. (Pentagon interiors reach a
      // target endpoint at distance two; only the generic distance-one
      // candidate rule applies there.)
      if ((kind == MotifKind::kRectangle || kind == MotifKind::kRecTri) &&
          u != p && u != q && v != p && v != q &&
          (mark[u] == 0 || mark[v] == 0)) {
        return;
      }
      auto emit = [&](std::initializer_list<EdgeKey> keys) {
        TargetSubgraph inst(static_cast<int32_t>(t), keys);
        // Keep the instance only when it holds no target link and e_k is
        // its lowest-indexed inserted edge; pairs with later inserted
        // edges re-produce it and drop it here, so each created instance
        // lands exactly once.
        for (uint8_t j = 0; j < inst.num_edges; ++j) {
          if (std::binary_search(target_keys.begin(), target_keys.end(),
                                 inst.edges[j])) {
            return;
          }
          auto it = std::lower_bound(inserted_keys.begin(),
                                     inserted_keys.end(), inst.edges[j]);
          if (it != inserted_keys.end() && *it == inst.edges[j] &&
              static_cast<size_t>(it - inserted_keys.begin()) < kk) {
            return;
          }
        }
        created.push_back(inst);
      };
      switch (kind) {
        case MotifKind::kTriangle:
          TriangleDelta(u, v, p, q, adjpq, emit);
          break;
        case MotifKind::kRectangle:
          RectangleDelta(g, u, v, p, q, adjpq, emit);
          break;
        case MotifKind::kPentagon:
          PentagonDelta(g, u, v, p, q, adjpq, emit);
          break;
        case MotifKind::kRecTri:
          RecTriDelta(g, u, v, p, q, adjpq, emit);
          break;
      }
    };
    const uint32_t stamp = static_cast<uint32_t>(k) + 1;
    auto consider = [&](NodeId x) {
      for (auto it = std::lower_bound(node_targets.begin(), node_targets.end(),
                                      uint64_t{x} << 32);
           it != node_targets.end() && (*it >> 32) == x; ++it) {
        const uint32_t t = static_cast<uint32_t>(*it);
        if (tstamp[t] == stamp) continue;
        tstamp[t] = stamp;
        run(t);
      }
    };
    consider(p);
    consider(q);
    if (kind != MotifKind::kTriangle) {
      for (NodeId w : g.Neighbors(p)) consider(w);
      for (NodeId w : g.Neighbors(q)) consider(w);
    }
    for (NodeId w : g.Neighbors(p)) mark[w] = 0;
    for (NodeId w : g.Neighbors(q)) mark[w] = 0;
  }
  std::stable_sort(created.begin(), created.end(),
                   [](const TargetSubgraph& a, const TargetSubgraph& b) {
                     return a.target < b.target;
                   });
  return created;
}

// The GraphDelta contract the repair leans on: canonical edges, strictly
// ascending by key (the lowest-inserted-index dedup binary-searches it).
Status ValidateDeltaList(const std::vector<Edge>& list, const char* what,
                         size_t num_nodes) {
  EdgeKey prev = 0;
  for (const Edge& e : list) {
    if (e.u >= num_nodes || e.v >= num_nodes || e.u >= e.v) {
      return Status::InvalidArgument(
          StrFormat("delta %s edge (%u,%u) not canonical for n=%zu", what,
                    e.u, e.v, num_nodes));
    }
    const EdgeKey key = MakeEdgeKey(e.u, e.v);
    if (key <= prev && prev != 0) {
      return Status::InvalidArgument(
          StrFormat("delta %s list not strictly ascending at (%u,%u)", what,
                    e.u, e.v));
    }
    prev = key;
  }
  return Status::Ok();
}

}  // namespace

Status IncidenceIndex::ApplyGraphDelta(const Graph& g,
                                       const std::vector<Edge>& targets,
                                       MotifKind kind,
                                       const GraphDelta& delta) {
  // --- Validation: any failure leaves the index untouched. ---
  if (MotifEdgeCount(kind) != arity_) {
    return Status::InvalidArgument(
        StrFormat("motif %s (arity %zu) does not match the built index "
                  "(arity %u)",
                  std::string(MotifName(kind)).c_str(), MotifEdgeCount(kind),
                  static_cast<unsigned>(arity_)));
  }
  if (num_nodes_ != g.NumNodes()) {
    return Status::InvalidArgument(
        StrFormat("graph has %zu nodes but the index was built over %zu",
                  g.NumNodes(), num_nodes_));
  }
  if (targets.size() != NumTargets()) {
    return Status::InvalidArgument(
        StrFormat("target list size %zu does not match the built index (%zu)",
                  targets.size(), NumTargets()));
  }
  if (HasDeferredMaintenance() || total_alive_ != instances_.size()) {
    return Status::FailedPrecondition(
        "index is not fresh: repair composes only on an index with every "
        "instance alive and no deferred maintenance");
  }
  TPP_RETURN_IF_ERROR(ValidateDeltaList(delta.inserted, "inserted",
                                        g.NumNodes()));
  TPP_RETURN_IF_ERROR(ValidateDeltaList(delta.removed, "removed",
                                        g.NumNodes()));
  // The sorted target keys and endpoint pairs the candidate walk needs
  // are cached on the index (populated at build; an index restored from
  // a snapshot, which does not carry them, rebuilds them here on its
  // first repair). Both are pure functions of the build-time target list,
  // which the checks above pinned to this one.
  if (target_keys_sorted_.size() != targets.size() ||
      node_targets_.size() != 2 * targets.size()) {
    PopulateRepairCaches(targets);
  }
  auto check_edges = [&](const std::vector<Edge>& list, bool want_present,
                         const char* what) -> Status {
    for (const Edge& e : list) {
      if (g.HasEdge(e.u, e.v) != want_present) {
        return Status::InvalidArgument(StrFormat(
            "delta %s edge (%u,%u) %s in the post-edit graph", what, e.u,
            e.v, want_present ? "absent" : "present"));
      }
      if (std::binary_search(target_keys_sorted_.begin(),
                             target_keys_sorted_.end(),
                             MakeEdgeKey(e.u, e.v))) {
        return Status::InvalidArgument(StrFormat(
            "delta %s edge (%u,%u) is a target link", what, e.u, e.v));
      }
    }
    return Status::Ok();
  };
  TPP_RETURN_IF_ERROR(check_edges(delta.inserted, /*want_present=*/true,
                                  "inserted"));
  TPP_RETURN_IF_ERROR(check_edges(delta.removed, /*want_present=*/false,
                                  "removed"));
  if (delta.empty()) return Status::Ok();

  // --- Phase 1: retire instances killed by removed edges. DeleteEdge is
  // exact here — an instance dies iff it contains a removed edge — and
  // the flushes restore every count so the survivor layout below reads
  // consistently. Removed edges that were never interned no-op.
  size_t killed = 0;
  for (const Edge& e : delta.removed) {
    killed += DeleteEdge(MakeEdgeKey(e.u, e.v));
  }
  FlushDeferredMaintenance();

  // --- Phase 2: enumerate instances created by inserted edges (on the
  // post-edit graph, G or G - T, which the caller already advanced).
  std::vector<TargetSubgraph> created = EnumerateCreatedInstances(
      g, targets, kind, delta.inserted, target_keys_sorted_.span(),
      node_targets_.span());

  if (killed == 0 && created.empty()) return Status::Ok();  // structural no-op

  // --- Phase 3: in-place merge. The edge universe only GROWS: a key
  // whose last instance died keeps its dense id with alive count 0 (the
  // greedy sweeps and incremental round sessions skip and tolerate zero
  // rows, see core/greedy.cc), so removals shift no ids — the interner
  // and probe table are reused untouched unless genuinely fresh keys
  // intern. Everything below is a linear gather or two-pointer merge over
  // the surviving layout; the survivor path does no hashing, no sorting,
  // and no per-entry searches.
  const size_t old_num_edges = edge_keys_.size();
  const size_t old_num_instances = instances_.size();
  const size_t arity = arity_;
  const uint32_t kDead = std::numeric_limits<uint32_t>::max();

  std::vector<EdgeKey> fresh_keys;
  for (const TargetSubgraph& inst : created) {
    for (uint8_t j = 0; j < inst.num_edges; ++j) {
      if (EdgeIdOf(inst.edges[j]) == kNoEdge) {
        fresh_keys.push_back(inst.edges[j]);
      }
    }
  }
  std::sort(fresh_keys.begin(), fresh_keys.end());
  fresh_keys.erase(std::unique(fresh_keys.begin(), fresh_keys.end()),
                   fresh_keys.end());
  const size_t num_fresh = fresh_keys.size();
  const size_t num_edges = old_num_edges + num_fresh;

  // Fresh keys splice in at key rank — the universe must stay ascending
  // (the solver tie-break contract) — shifting old ids by the number of
  // fresh keys below them. `idmap` records the shift; it stays empty (and
  // the interner and probe table stay shared with every clone) in the
  // common case of no never-seen key.
  std::vector<uint32_t> idmap;
  if (num_fresh > 0) {
    idmap.resize(old_num_edges);
    std::vector<EdgeKey> new_keys;
    new_keys.reserve(num_edges);
    size_t fi = 0;
    for (size_t e = 0; e < old_num_edges; ++e) {
      const EdgeKey key = edge_keys_[e];
      while (fi < num_fresh && fresh_keys[fi] < key) {
        new_keys.push_back(fresh_keys[fi++]);
      }
      idmap[e] = static_cast<uint32_t>(new_keys.size());
      new_keys.push_back(key);
    }
    while (fi < num_fresh) new_keys.push_back(fresh_keys[fi++]);
    edge_keys_ = std::move(new_keys);
    BuildProbeTable();
  }
  const auto remap = [&](uint32_t e) -> uint32_t {
    return num_fresh > 0 ? idmap[e] : e;
  };

  // Instance renumber: dead rows compact out, survivors keep their
  // relative order (the renumber is monotone, so ascending posting lists
  // stay ascending), created rows append in (target, emission) order.
  // Instance ids never leak into plans, so the permutation vs a cold
  // build is unobservable.
  const size_t num_survivors = total_alive_;
  const size_t num_instances = num_survivors + created.size();
  // One fused pass builds the dead-row renumber map and gathers the
  // survivors into the replacement instance and maintenance arrays —
  // both are FlatArrays whose backing is shared across clones, so they
  // must be fresh allocations, never mutated in place.
  std::vector<uint32_t> instmap(old_num_instances);
  std::vector<TargetSubgraph> new_instances;
  new_instances.reserve(num_instances);
  std::vector<InstanceMaintenance> maint;
  maint.reserve(num_instances);
  {
    // Dead rows are sparse (one per removed-edge incidence), so the
    // survivors form long contiguous runs: gather them with ranged
    // inserts (memcpy for these trivially copyable rows) instead of
    // element-wise push_backs. Slots stay valid unless CSR-2 changes.
    uint32_t next = 0;
    size_t i = 0;
    while (i < old_num_instances) {
      if (alive_[i] != 1) {
        instmap[i] = kDead;
        ++i;
        continue;
      }
      size_t j = i;
      while (j < old_num_instances && alive_[j] == 1) instmap[j++] = next++;
      new_instances.insert(new_instances.end(), instances_.begin() + i,
                           instances_.begin() + j);
      maint.insert(maint.end(), maint_.begin() + i, maint_.begin() + j);
      i = j;
    }
    TPP_CHECK(next == num_survivors);
  }
  if (num_fresh > 0) {
    for (size_t i = 0; i < num_survivors; ++i) {
      InstanceMaintenance& m = maint[i];
      for (size_t j = 0; j < arity; ++j) m.edge_ids[j] = idmap[m.edge_ids[j]];
    }
  }
  for (const TargetSubgraph& inst : created) {
    new_instances.push_back(inst);
    InstanceMaintenance m{};
    m.target = static_cast<uint32_t>(inst.target);
    for (size_t j = 0; j < arity; ++j) {
      const uint32_t e = EdgeIdOf(inst.edges[j]);  // post-splice probe
      TPP_CHECK(e != kNoEdge);
      m.edge_ids[j] = e;
    }
    maint.push_back(m);
  }

  // Created postings bucketed per edge by a stable counting pass: within
  // each edge the created instance ids (and with them their targets, the
  // emission order being target-major) come out ascending — the invariant
  // both CSR fills below rely on.
  std::vector<uint32_t> created_off;
  std::vector<uint32_t> created_ids;
  if (!created.empty()) {  // removal-only commits skip the bucketing cost
    created_off.assign(num_edges + 1, 0);
    for (size_t c = 0; c < created.size(); ++c) {
      const InstanceMaintenance& m = maint[num_survivors + c];
      for (size_t j = 0; j < arity; ++j) ++created_off[m.edge_ids[j] + 1];
    }
    for (size_t e = 0; e < num_edges; ++e) created_off[e + 1] += created_off[e];
    created_ids.resize(created_off.back());
    std::vector<uint32_t> cursor(created_off.begin(), created_off.end() - 1);
    for (size_t c = 0; c < created.size(); ++c) {
      const InstanceMaintenance& m = maint[num_survivors + c];
      for (size_t j = 0; j < arity; ++j) {
        created_ids[cursor[m.edge_ids[j]]++] =
            static_cast<uint32_t>(num_survivors + c);
      }
    }
  }

  // CSR 1 (edge -> alive instance ids): survivor segment lengths are the
  // eagerly maintained alive counts (exact after the phase-1 flush),
  // created postings append after them. The fill streams the old posting
  // lists through the alive bits.
  std::vector<uint32_t> inst_offsets(num_edges + 1, 0);
  for (size_t e = 0; e < old_num_edges; ++e) {
    inst_offsets[remap(static_cast<uint32_t>(e)) + 1] = alive_count_[e];
  }
  if (!created.empty()) {
    for (size_t e = 0; e < num_edges; ++e) {
      inst_offsets[e + 1] +=
          created_off[e + 1] - created_off[e] + inst_offsets[e];
    }
  } else {
    for (size_t e = 0; e < num_edges; ++e) inst_offsets[e + 1] += inst_offsets[e];
  }
  std::vector<uint32_t> instance_ids(inst_offsets.back());
  for (size_t e = 0; e < old_num_edges; ++e) {
    uint32_t w = inst_offsets[remap(static_cast<uint32_t>(e))];
    for (uint32_t p = inst_offsets_[e]; p < inst_offsets_[e + 1]; ++p) {
      const uint32_t i = instance_ids_[p];
      if (alive_[i] == 1) instance_ids[w++] = instmap[i];
    }
  }
  if (!created.empty()) {
    for (size_t e = 0; e < num_edges; ++e) {
      uint32_t w = inst_offsets[e + 1] - (created_off[e + 1] - created_off[e]);
      for (uint32_t p = created_off[e]; p < created_off[e + 1]; ++p) {
        instance_ids[w++] = created_ids[p];
      }
    }
  }

  if (!created.empty()) {
    // CSR 2 (edge -> per-target counts): per-edge two-pointer merge of
    // the old cell run — kept verbatim, zeroed cells included, which gain
    // reads skip — with the created targets for that edge. `cellmap`
    // carries every old flat cell to its new flat position, so survivor
    // slot tables update by a straight gather; only created rows ever
    // binary-search their cell.
    std::vector<uint32_t> old_of_new;
    if (num_fresh > 0) {
      old_of_new.assign(num_edges, kDead);
      for (size_t e = 0; e < old_num_edges; ++e) {
        old_of_new[idmap[e]] = static_cast<uint32_t>(e);
      }
    }
    std::vector<uint32_t> tgt_offsets(num_edges + 1, 0);
    std::vector<uint32_t> tgt_ids;
    std::vector<uint32_t> tgt_counts;
    tgt_ids.reserve(tgt_ids_.size() + created.size() * arity);
    tgt_counts.reserve(tgt_ids_.size() + created.size() * arity);
    std::vector<uint32_t> cellmap(tgt_ids_.size());
    // An edge is PLAIN when it maps to an old edge (not freshly spliced)
    // and gained no created postings — its cell run copies verbatim.
    // Nearly every edge is plain, and within a maximal run of plain
    // edges the old ids are consecutive (the splice preserves relative
    // order and fresh ids break the run), so the run's cells form one
    // contiguous old-array span shifted by a single delta: one bulk
    // copy, one vectorizable cellmap fill, and one offset-rebase loop
    // replace per-edge bookkeeping.
    const auto is_plain = [&](size_t e) {
      if (created_off[e + 1] > created_off[e]) return false;
      return num_fresh == 0 || old_of_new[e] != kDead;
    };
    size_t en = 0;
    while (en < num_edges) {
      if (is_plain(en)) {
        size_t block_end = en + 1;
        while (block_end < num_edges && is_plain(block_end)) ++block_end;
        const uint32_t eo0 =
            num_fresh > 0 ? old_of_new[en] : static_cast<uint32_t>(en);
        const size_t len = block_end - en;
        const uint32_t q0 = tgt_offsets_[eo0];
        const uint32_t q1 = tgt_offsets_[eo0 + len];
        const uint32_t out = static_cast<uint32_t>(tgt_ids.size());
        for (uint32_t qq = q0; qq < q1; ++qq) cellmap[qq] = out + (qq - q0);
        tgt_ids.insert(tgt_ids.end(), tgt_ids_.begin() + q0,
                       tgt_ids_.begin() + q1);
        tgt_counts.insert(tgt_counts.end(), tgt_counts_.begin() + q0,
                          tgt_counts_.begin() + q1);
        for (size_t i = 0; i < len; ++i) {
          tgt_offsets[en + i + 1] = out + (tgt_offsets_[eo0 + i + 1] - q0);
        }
        en = block_end;
        continue;
      }
      const uint32_t eo =
          num_fresh > 0 ? old_of_new[en] : static_cast<uint32_t>(en);
      uint32_t q = eo == kDead ? 0 : tgt_offsets_[eo];
      const uint32_t q_end = eo == kDead ? 0 : tgt_offsets_[eo + 1];
      uint32_t p = created_off[en];
      const uint32_t p_end = created_off[en + 1];
      while (q < q_end || p < p_end) {
        const uint32_t old_tgt = q < q_end ? tgt_ids_[q] : kDead;
        const uint32_t new_tgt =
            p < p_end ? maint[created_ids[p]].target : kDead;
        if (old_tgt <= new_tgt) {
          uint32_t count = tgt_counts_[q];
          while (p < p_end && maint[created_ids[p]].target == old_tgt) {
            ++count;
            ++p;
          }
          cellmap[q] = static_cast<uint32_t>(tgt_ids.size());
          tgt_ids.push_back(old_tgt);
          tgt_counts.push_back(count);
          ++q;
        } else {
          uint32_t count = 1;
          ++p;
          while (p < p_end && maint[created_ids[p]].target == new_tgt) {
            ++count;
            ++p;
          }
          tgt_ids.push_back(new_tgt);
          tgt_counts.push_back(count);
        }
      }
      tgt_offsets[en + 1] = static_cast<uint32_t>(tgt_ids.size());
      ++en;
    }
    for (size_t i = 0; i < num_survivors; ++i) {
      for (size_t j = 0; j < arity; ++j) {
        maint[i].slots[j] = cellmap[maint[i].slots[j]];
      }
    }
    for (size_t i = num_survivors; i < num_instances; ++i) {
      InstanceMaintenance& m = maint[i];
      for (size_t j = 0; j < arity; ++j) {
        const uint32_t e = m.edge_ids[j];
        const uint32_t* seg_begin = tgt_ids.data() + tgt_offsets[e];
        const uint32_t* seg_end = tgt_ids.data() + tgt_offsets[e + 1];
        const uint32_t* it = std::lower_bound(seg_begin, seg_end, m.target);
        TPP_CHECK(it != seg_end && *it == m.target);
        m.slots[j] = static_cast<uint32_t>(tgt_offsets[e] + (it - seg_begin));
      }
    }
    tgt_offsets_ = std::move(tgt_offsets);
    tgt_ids_ = std::move(tgt_ids);
    tgt_counts_ = std::move(tgt_counts);
  }
  // else: removal-only repair — every surviving cell keeps its flat
  // position (the phase-1 flush already updated the counts through the
  // existing slot tables), so the whole CSR-2 split and every survivor
  // slot are reused verbatim.

  // Alive-count cache over the (possibly grown) universe; zero rows
  // persist by design and FinishAliveState tallies alive_edges_ from
  // this array.
  alive_count_.resize(num_edges);  // every entry overwritten below
  for (size_t e = 0; e < num_edges; ++e) {
    alive_count_[e] = inst_offsets[e + 1] - inst_offsets[e];
  }

  instances_ = std::move(new_instances);
  inst_offsets_ = std::move(inst_offsets);
  instance_ids_ = std::move(instance_ids);
  maint_ = std::move(maint);
  FinishAliveState(targets.size());
  // The layout changed shape: drop the lazily sized dirty scratch and
  // force open round sessions (which alias PerEdgeAliveCounts and the
  // interned-key span) to restart instead of serving the old layout.
  dirty_stamp_.clear();
  dirty_epoch_ = 0;
  ++counts_flush_epoch_;
  return Status::Ok();
}

}  // namespace tpp::motif
