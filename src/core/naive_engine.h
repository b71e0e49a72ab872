// NaiveEngine: recount-based similarity oracle (paper-faithful cost model).

#ifndef TPP_CORE_NAIVE_ENGINE_H_
#define TPP_CORE_NAIVE_ENGINE_H_

#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/problem.h"

namespace tpp::core {

/// Engine that answers every gain query by temporarily removing the edge
/// and re-enumerating target subgraphs on the live graph, exactly the cost
/// profile the paper analyzes (O(n (log N)^2) per query). Used to reproduce
/// the running-time experiments (Figs. 5-6); for everything else prefer
/// IndexedEngine, which returns identical values faster.
class NaiveEngine : public Engine {
 public:
  /// Copies the released graph out of `instance`.
  explicit NaiveEngine(const TppInstance& instance);

  size_t NumTargets() const override { return targets_.size(); }
  size_t SimilarityOf(size_t t) override;
  size_t TotalSimilarity() override;
  size_t Gain(graph::EdgeKey e) override;
  std::vector<size_t> GainVector(graph::EdgeKey e) override;
  /// In-place recount: same temporary-deletion sweep as GainVector,
  /// written straight into `out` — the BeginRound fallback reuses one
  /// buffer instead of allocating a vector per (candidate, round).
  void GainVectorInto(graph::EdgeKey e, std::span<size_t> out) override;
  size_t DeleteEdge(graph::EdgeKey e) override;
  std::vector<graph::EdgeKey> Candidates(CandidateScope scope) override;
  // BeginRound is intentionally NOT overridden: the base class's trivial
  // always-dirty fallback re-enumerates every candidate's gain each round,
  // one serial recount query at a time, which is exactly the paper's cost
  // model — incremental callers get bit-identical picks and work
  // accounting, and the timing experiments stay honest (no threading).
  const graph::Graph& CurrentGraph() const override { return g_; }
  uint64_t GainEvaluations() const override { return gain_evals_; }

 private:
  // Recomputes the cached per-target similarity vector if dirty.
  void RefreshSimilarities();

  graph::Graph g_;
  std::vector<graph::Edge> targets_;
  motif::MotifKind motif_;
  std::vector<size_t> sims_;  // cached s(P, t), valid when !dirty_
  bool dirty_ = true;
  uint64_t gain_evals_ = 0;
};

}  // namespace tpp::core

#endif  // TPP_CORE_NAIVE_ENGINE_H_
