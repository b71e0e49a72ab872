// Target-subgraph enumeration: the similarity function s(P, t).
//
// These are the production enumerators used by the TPP engines. They assume
// phase-1 has already happened (the target links are absent from the graph);
// they do not modify the graph.
//
// Two tiers of API:
//   * EnumerateTargetSubgraphs / CountTargetSubgraphs — one target, the
//     historical convenience form.
//   * PlanEnumerationTasks + AppendTargetSubgraphs +
//     EnumerateAllTargetSubgraphs — the allocation-lean, parallelizable
//     build path. A target's enumeration is split into tasks over ranges
//     of u's neighbor list (hub targets become several tasks so one hub
//     cannot serialize a parallel build); concatenating task outputs in
//     task order reproduces the serial (target, emit) order exactly, which
//     is what makes the parallel IncidenceIndex build bit-identical to the
//     serial one.
//
// EnumerateScratch replaces the per-probe HasEdge binary searches of the
// Rectangle / Pentagon / RecTri inner loops with O(1) reads of a stamped
// neighbor-marker array, and replaces CommonNeighbors materialization with
// a marker test while scanning u's neighbor list. One scratch is reused
// across targets (and graphs); it grows to the largest node count seen and
// never shrinks.

#ifndef TPP_MOTIF_ENUMERATE_H_
#define TPP_MOTIF_ENUMERATE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"
#include "motif/motif.h"
#include "motif/target_subgraph.h"

namespace tpp::motif {

/// Reusable per-thread scratch for allocation-lean enumeration: stamped
/// marker arrays over node ids recording membership in N(v) (always) and
/// N(u) (RecTri only). Marking is O(deg); each subsequent membership probe
/// is one array read. Not thread-safe; use one scratch per worker.
class EnumerateScratch {
 public:
  /// Marks the neighbor sets the enumeration core probes for `target` on
  /// `g`: N(target.v) for every kind, N(target.u) additionally for RecTri.
  /// Grows the marker arrays to g.NumNodes() on demand.
  void MarkTarget(const graph::Graph& g, graph::Edge target, MotifKind kind);

  /// True iff w was a neighbor of target.u at the last MarkTarget (RecTri
  /// targets only; unspecified for other kinds).
  bool UMarked(graph::NodeId w) const { return umark_[w] == ustamp_; }

  /// True iff w was a neighbor of target.v at the last MarkTarget.
  bool VMarked(graph::NodeId w) const { return vmark_[w] == vstamp_; }

 private:
  static void Mark(std::span<const graph::NodeId> nbrs, size_t num_nodes,
                   std::vector<uint32_t>& mark, uint32_t& stamp);

  std::vector<uint32_t> umark_, vmark_;
  uint32_t ustamp_ = 0, vstamp_ = 0;
};

/// Enumerates every target subgraph of `kind` for the hidden link `target`
/// on graph `g`, labeling instances with `target_index`. Complexity:
///   Triangle  O(du + dv)
///   Rectangle O(sum of deg over Gamma(u))
///   RecTri    O(sum of deg over common neighbors)
std::vector<TargetSubgraph> EnumerateTargetSubgraphs(
    const graph::Graph& g, graph::Edge target, MotifKind kind,
    int32_t target_index = 0);

/// Appends the target subgraphs whose outermost probe lies in positions
/// [nbr_begin, nbr_end) of target.u's sorted neighbor list — the unit of
/// parallel enumeration work. The full range (0, Degree(u)) appends
/// exactly what EnumerateTargetSubgraphs returns, in the same order.
/// `scratch` must be dedicated to the calling thread; its marks are
/// (re)set here, so callers never pre-mark.
void AppendTargetSubgraphs(const graph::Graph& g, graph::Edge target,
                           MotifKind kind, int32_t target_index,
                           size_t nbr_begin, size_t nbr_end,
                           EnumerateScratch& scratch,
                           std::vector<TargetSubgraph>& out);

/// Counts target subgraphs without materializing them: s({}, t) on the
/// current graph. Same complexity as enumeration.
size_t CountTargetSubgraphs(const graph::Graph& g, graph::Edge target,
                            MotifKind kind);

/// Allocation-lean counting using a caller-provided scratch (the form the
/// parallel TotalSimilarity sweep uses per worker).
size_t CountTargetSubgraphs(const graph::Graph& g, graph::Edge target,
                            MotifKind kind, EnumerateScratch& scratch);

/// One unit of parallel enumeration work: target `target` restricted to
/// first-neighbor positions [nbr_begin, nbr_end) of N(target.u).
struct EnumerationTask {
  uint32_t target = 0;
  uint32_t nbr_begin = 0;
  uint32_t nbr_end = 0;
};

/// Splits `targets` into enumeration tasks. Triangle targets are one task
/// each (their per-target cost is O(du + dv), not worth splitting); for
/// the heavier kinds a target whose u-degree exceeds the hub threshold is
/// split by first-neighbor chunk so the task list has no single dominant
/// element. The task list depends only on (g, targets, kind) — never on a
/// thread budget — and concatenating task outputs in list order equals the
/// serial enumeration order.
std::vector<EnumerationTask> PlanEnumerationTasks(
    const graph::Graph& g, const std::vector<graph::Edge>& targets,
    MotifKind kind);

/// Work estimate of enumerating `targets` on `g`: the inner-loop probes
/// the enumeration core will run, counted exactly for Triangle (deg u) and
/// to two levels for the path motifs (sum of deg a over a in N(u)), with
/// Pentagon's third level approximated by the mean degree. A pure function
/// of (g, targets, kind) — never of a thread budget — costing O(sum of
/// deg u), so callers can decide whether a parallel fan-out pays before
/// running it without the decision (or the output) depending on how many
/// threads are available.
size_t EstimateEnumerationWork(const graph::Graph& g,
                               const std::vector<graph::Edge>& targets,
                               MotifKind kind);

/// EstimateEnumerationWork below which an enumeration runs on the calling
/// thread: under it the pool dispatch and per-task slot merge cost about
/// what they spread. On the index_build fixture (200 Arenas targets, a
/// 4-thread box) Rectangle's estimate of 0.1M enumerated in 0.33 ms at 1
/// thread and no faster at 4, while Pentagon's 1.0M took 6.7 ms at 1
/// thread and 3.2 ms at 4.
inline constexpr size_t kMinParallelEnumerationWork = size_t{1} << 18;

/// Enumerates all targets' subgraphs over the shared thread pool
/// (`threads` <= 0 resolves to tpp::GlobalThreadCount()) and returns them
/// in the serial (target, emit) order: the result is bit-identical to
/// concatenating EnumerateTargetSubgraphs(g, targets[t], kind, t) for t in
/// order, at any thread count. The instance array is assembled
/// count-then-fill from per-task slots, so it is sized exactly once.
std::vector<TargetSubgraph> EnumerateAllTargetSubgraphs(
    const graph::Graph& g, const std::vector<graph::Edge>& targets,
    MotifKind kind, int threads, size_t* num_tasks = nullptr);

/// Total similarity s({}, T) over all targets on the current graph.
/// Counts targets in parallel over the shared pool (`threads` <= 0
/// resolves to tpp::GlobalThreadCount()); the sum is exact integer
/// arithmetic, so the result is identical at any thread count.
size_t TotalSimilarity(const graph::Graph& g,
                       const std::vector<graph::Edge>& targets,
                       MotifKind kind, int threads = 0);

/// Checks that `targets` are distinct edges of `g` (the base graph, before
/// phase 1): the precondition of core::MakeInstance and of a repository
/// group build, checked before IncidenceIndex::BuildCached (which does not
/// check its targets). The error names the first target, in list
/// order, that repeats an earlier one ("duplicate target (u,v)") or is not
/// an edge ("target (u,v) is not an edge of the graph").
Status ValidateTargetLinks(const graph::Graph& g,
                           const std::vector<graph::Edge>& targets);

}  // namespace tpp::motif

#endif  // TPP_MOTIF_ENUMERATE_H_
