#include "motif/enumerate.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "common/check.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/thread_pool.h"

namespace tpp::motif {

using graph::Edge;
using graph::EdgeKey;
using graph::Graph;
using graph::MakeEdgeKey;
using graph::NodeId;

namespace {

// Hub-splitting policy for the parallel build: a Rectangle/Pentagon/RecTri
// target whose outer loop runs over more than kHubSplitDegree first
// neighbors is split into kHubChunk-wide tasks so one hub target cannot
// serialize a parallel enumeration. Triangles are never split — their
// whole per-target cost is one neighbor-list scan. The policy is a pure
// function of the graph and targets (never of a thread budget), so the
// task list, and therefore the merged output order, is the same on every
// run.
constexpr size_t kHubSplitDegree = 128;
constexpr size_t kHubChunk = 64;

// Shared enumeration core: calls `emit` for each instance's edge list
// whose outermost probe lies in positions [nbr_begin, nbr_end) of
// target.u's neighbor list. Membership probes (x in N(v), x in N(u)) are
// O(1) scratch-marker reads instead of per-probe binary searches; common
// neighbors are found by scanning u's (sub)list against the v-marks, which
// preserves the ascending order the serial merge produced. Passing a
// count-only sink lets Count and Append share one definition. The caller
// must have called scratch.MarkTarget(g, target, kind) already — the
// task loops below mark once per (worker, target), not once per chunk.
template <typename Emit2, typename Emit3, typename Emit4>
void ForEachInstancePremarked(const Graph& g, Edge target, MotifKind kind,
                              size_t nbr_begin, size_t nbr_end,
                              const EnumerateScratch& scratch, Emit2 emit2,
                              Emit3 emit3, Emit4 emit4) {
  const NodeId u = target.u;
  const NodeId v = target.v;
  TPP_CHECK_NE(u, v);
  if (nbr_begin >= nbr_end) return;
  const std::span<const NodeId> outer =
      g.Neighbors(u).subspan(nbr_begin, nbr_end - nbr_begin);
  switch (kind) {
    case MotifKind::kTriangle: {
      // Common neighbors of u and v: u's (sorted) neighbors that carry a
      // v-mark, visited in the same ascending order the old merge used.
      for (NodeId w : outer) {
        if (scratch.VMarked(w)) {
          emit2(MakeEdgeKey(u, w), MakeEdgeKey(w, v));
        }
      }
      break;
    }
    case MotifKind::kRectangle: {
      // Simple 3-paths u-a-b-v.
      for (NodeId a : outer) {
        if (a == v) continue;
        for (NodeId b : g.Neighbors(a)) {
          if (b == u || b == v) continue;
          if (scratch.VMarked(b)) {
            emit3(MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, v));
          }
        }
      }
      break;
    }
    case MotifKind::kPentagon: {
      // Simple 4-paths u-a-b-c-v with distinct intermediates.
      for (NodeId a : outer) {
        if (a == v) continue;
        for (NodeId b : g.Neighbors(a)) {
          if (b == u || b == v) continue;
          for (NodeId c : g.Neighbors(b)) {
            if (c == u || c == v || c == a) continue;
            if (scratch.VMarked(c)) {
              emit4(MakeEdgeKey(u, a), MakeEdgeKey(a, b), MakeEdgeKey(b, c),
                    MakeEdgeKey(c, v));
            }
          }
        }
      }
      break;
    }
    case MotifKind::kRecTri: {
      // 2-path u-w-v plus a 3-path sharing intermediate w.
      for (NodeId w : outer) {
        if (!scratch.VMarked(w)) continue;
        const EdgeKey uw = MakeEdgeKey(u, w);
        const EdgeKey wv = MakeEdgeKey(w, v);
        for (NodeId x : g.Neighbors(w)) {
          if (x == u || x == v) continue;
          // Type A: 3-path u-w-x-v.
          if (scratch.VMarked(x)) {
            emit4(uw, wv, MakeEdgeKey(w, x), MakeEdgeKey(x, v));
          }
          // Type B: 3-path u-x-w-v.
          if (scratch.UMarked(x)) {
            emit4(uw, wv, MakeEdgeKey(u, x), MakeEdgeKey(x, w));
          }
        }
      }
      break;
    }
  }
}

// Appends instances without re-marking (see ForEachInstancePremarked).
void AppendPremarked(const Graph& g, Edge target, MotifKind kind,
                     int32_t target_index, size_t nbr_begin, size_t nbr_end,
                     const EnumerateScratch& scratch,
                     std::vector<TargetSubgraph>& out) {
  ForEachInstancePremarked(
      g, target, kind, nbr_begin, nbr_end, scratch,
      [&](EdgeKey a, EdgeKey b) {
        out.push_back(TargetSubgraph(target_index, {a, b}));
      },
      [&](EdgeKey a, EdgeKey b, EdgeKey c) {
        out.push_back(TargetSubgraph(target_index, {a, b, c}));
      },
      [&](EdgeKey a, EdgeKey b, EdgeKey c, EdgeKey d) {
        out.push_back(TargetSubgraph(target_index, {a, b, c, d}));
      });
}

size_t CountPremarked(const Graph& g, Edge target, MotifKind kind,
                      size_t nbr_begin, size_t nbr_end,
                      const EnumerateScratch& scratch) {
  size_t count = 0;
  ForEachInstancePremarked(
      g, target, kind, nbr_begin, nbr_end, scratch,
      [&](EdgeKey, EdgeKey) { ++count; },
      [&](EdgeKey, EdgeKey, EdgeKey) { ++count; },
      [&](EdgeKey, EdgeKey, EdgeKey, EdgeKey) { ++count; });
  return count;
}

// Worker-local memo of the last target marked into the thread's scratch.
// The epoch is unique per task-sweep invocation, so a thread_local cache
// can never serve marks from an earlier sweep (or an earlier graph that
// happened to reuse the same address); within one sweep the graph and
// target list are fixed, so (epoch, target) fully identifies the marks.
// Consecutive hub chunks of one target claimed by the same worker then
// mark once, not once per 64-neighbor chunk.
std::atomic<uint64_t> g_sweep_epoch{0};

struct MarkMemo {
  uint64_t epoch = 0;
  uint32_t target = 0;
};

void EnsureMarked(const Graph& g, Edge target, MotifKind kind,
                  uint64_t epoch, uint32_t target_index,
                  EnumerateScratch& scratch, MarkMemo& memo) {
  if (memo.epoch == epoch && memo.target == target_index) return;
  scratch.MarkTarget(g, target, kind);
  memo.epoch = epoch;
  memo.target = target_index;
}

}  // namespace

void EnumerateScratch::Mark(std::span<const NodeId> nbrs, size_t num_nodes,
                            std::vector<uint32_t>& mark, uint32_t& stamp) {
  if (mark.size() < num_nodes) mark.resize(num_nodes, 0);
  if (++stamp == 0) {  // stamp wrapped: clear stale marks once per 2^32
    std::fill(mark.begin(), mark.end(), 0);
    stamp = 1;
  }
  for (NodeId w : nbrs) mark[w] = stamp;
}

void EnumerateScratch::MarkTarget(const Graph& g, Edge target,
                                  MotifKind kind) {
  Mark(g.Neighbors(target.v), g.NumNodes(), vmark_, vstamp_);
  if (kind == MotifKind::kRecTri) {
    Mark(g.Neighbors(target.u), g.NumNodes(), umark_, ustamp_);
  }
}

void AppendTargetSubgraphs(const Graph& g, Edge target, MotifKind kind,
                           int32_t target_index, size_t nbr_begin,
                           size_t nbr_end, EnumerateScratch& scratch,
                           std::vector<TargetSubgraph>& out) {
  if (nbr_begin >= nbr_end) return;
  scratch.MarkTarget(g, target, kind);
  AppendPremarked(g, target, kind, target_index, nbr_begin, nbr_end,
                  scratch, out);
}

std::vector<TargetSubgraph> EnumerateTargetSubgraphs(const Graph& g,
                                                     Edge target,
                                                     MotifKind kind,
                                                     int32_t target_index) {
  std::vector<TargetSubgraph> out;
  EnumerateScratch scratch;
  AppendTargetSubgraphs(g, target, kind, target_index, 0,
                        g.Degree(target.u), scratch, out);
  return out;
}

size_t CountTargetSubgraphs(const Graph& g, Edge target, MotifKind kind) {
  EnumerateScratch scratch;
  return CountTargetSubgraphs(g, target, kind, scratch);
}

size_t CountTargetSubgraphs(const Graph& g, Edge target, MotifKind kind,
                            EnumerateScratch& scratch) {
  const size_t deg = g.Degree(target.u);
  if (deg == 0) return 0;
  scratch.MarkTarget(g, target, kind);
  return CountPremarked(g, target, kind, 0, deg, scratch);
}

std::vector<EnumerationTask> PlanEnumerationTasks(
    const Graph& g, const std::vector<Edge>& targets, MotifKind kind) {
  std::vector<EnumerationTask> tasks;
  tasks.reserve(targets.size());
  for (uint32_t t = 0; t < targets.size(); ++t) {
    const size_t deg = g.Degree(targets[t].u);
    if (deg == 0) continue;  // no outer probes, no instances
    if (kind == MotifKind::kTriangle || deg <= kHubSplitDegree) {
      tasks.push_back({t, 0, static_cast<uint32_t>(deg)});
      continue;
    }
    for (size_t lo = 0; lo < deg; lo += kHubChunk) {
      tasks.push_back({t, static_cast<uint32_t>(lo),
                       static_cast<uint32_t>(std::min(lo + kHubChunk, deg))});
    }
  }
  return tasks;
}

size_t EstimateEnumerationWork(const Graph& g,
                               const std::vector<Edge>& targets,
                               MotifKind kind) {
  const size_t mean_degree =
      g.NumNodes() == 0 ? 0 : (2 * g.NumEdges()) / g.NumNodes() + 1;
  size_t work = 0;
  for (const Edge& t : targets) {
    if (kind == MotifKind::kTriangle) {
      work += g.Degree(t.u);
      continue;
    }
    size_t second = 0;
    for (NodeId a : g.Neighbors(t.u)) second += g.Degree(a);
    work += kind == MotifKind::kPentagon ? second * mean_degree : second;
  }
  return work;
}

std::vector<TargetSubgraph> EnumerateAllTargetSubgraphs(
    const Graph& g, const std::vector<Edge>& targets, MotifKind kind,
    int threads, size_t* num_tasks) {
  const std::vector<EnumerationTask> tasks =
      PlanEnumerationTasks(g, targets, kind);
  if (num_tasks) *num_tasks = tasks.size();
  const int workers = threads > 0 ? threads : GlobalThreadCount();
  const uint64_t epoch =
      g_sweep_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  if (workers <= 1 || tasks.size() <= 1) {
    // Serial: append straight into the result; task order == serial order.
    std::vector<TargetSubgraph> out;
    EnumerateScratch scratch;
    MarkMemo memo;
    for (const EnumerationTask& task : tasks) {
      EnsureMarked(g, targets[task.target], kind, epoch, task.target,
                   scratch, memo);
      AppendPremarked(g, targets[task.target], kind,
                      static_cast<int32_t>(task.target), task.nbr_begin,
                      task.nbr_end, scratch, out);
    }
    return out;
  }

  // Parallel: every task fills a private slot (dynamic claiming over the
  // shared pool balances hub chunks), then the slots are merged
  // count-then-fill in task order — the serial (target, emit) order.
  std::vector<std::vector<TargetSubgraph>> slots(tasks.size());
  ThreadPool& pool = GlobalThreadPool();
  pool.ParallelFor(tasks.size(), workers, /*grain=*/1,
                   [&](size_t begin, size_t end) {
                     thread_local EnumerateScratch scratch;
                     thread_local MarkMemo memo;
                     for (size_t k = begin; k < end; ++k) {
                       const EnumerationTask& task = tasks[k];
                       EnsureMarked(g, targets[task.target], kind, epoch,
                                    task.target, scratch, memo);
                       AppendPremarked(
                           g, targets[task.target], kind,
                           static_cast<int32_t>(task.target), task.nbr_begin,
                           task.nbr_end, scratch, slots[k]);
                     }
                   });
  std::vector<size_t> offsets(tasks.size() + 1, 0);
  for (size_t k = 0; k < slots.size(); ++k) {
    offsets[k + 1] = offsets[k] + slots[k].size();
  }
  std::vector<TargetSubgraph> out(offsets.back());
  pool.ParallelFor(slots.size(), workers, /*grain=*/1,
                   [&](size_t begin, size_t end) {
                     for (size_t k = begin; k < end; ++k) {
                       std::copy(slots[k].begin(), slots[k].end(),
                                 out.begin() + offsets[k]);
                     }
                   });
  return out;
}

size_t TotalSimilarity(const Graph& g, const std::vector<Edge>& targets,
                       MotifKind kind, int threads) {
  const int workers = threads > 0 ? threads : GlobalThreadCount();
  if (workers <= 1 || targets.size() <= 1) {
    EnumerateScratch scratch;
    size_t total = 0;
    for (const Edge& t : targets) {
      total += CountTargetSubgraphs(g, t, kind, scratch);
    }
    return total;
  }
  const std::vector<EnumerationTask> tasks =
      PlanEnumerationTasks(g, targets, kind);
  const uint64_t epoch =
      g_sweep_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  std::vector<size_t> partial(tasks.size(), 0);
  GlobalThreadPool().ParallelFor(
      tasks.size(), workers, /*grain=*/1, [&](size_t begin, size_t end) {
        thread_local EnumerateScratch scratch;
        thread_local MarkMemo memo;
        for (size_t k = begin; k < end; ++k) {
          const EnumerationTask& task = tasks[k];
          EnsureMarked(g, targets[task.target], kind, epoch, task.target,
                       scratch, memo);
          partial[k] = CountPremarked(g, targets[task.target], kind,
                                      task.nbr_begin, task.nbr_end, scratch);
        }
      });
  size_t total = 0;
  for (size_t p : partial) total += p;
  return total;
}

Status ValidateTargetLinks(const Graph& g, const std::vector<Edge>& targets) {
  std::unordered_set<EdgeKey> seen;
  seen.reserve(targets.size() * 2);
  for (const Edge& t : targets) {
    if (!seen.insert(t.Key()).second) {
      return Status::InvalidArgument(
          StrFormat("duplicate target (%u,%u)", t.u, t.v));
    }
    if (!g.HasEdge(t.u, t.v)) {
      return Status::InvalidArgument(
          StrFormat("target (%u,%u) is not an edge of the graph", t.u, t.v));
    }
  }
  return Status::Ok();
}

}  // namespace tpp::motif
