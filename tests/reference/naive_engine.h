// NaiveEngine: recount-based similarity oracle (paper-faithful cost model).
//
// Test-only (tpp_reference library): the differential oracle of
// IndexedEngine and the engine of the paper's running-time benches.

#ifndef TPP_REFERENCE_NAIVE_ENGINE_H_
#define TPP_REFERENCE_NAIVE_ENGINE_H_

#include <span>
#include <vector>

#include "core/engine.h"
#include "core/gain_table.h"
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
  /// Temporarily deletes `e` and recounts every target into `out`.
  void GainVectorInto(graph::EdgeKey e, std::span<size_t> out) override;
  size_t DeleteEdge(graph::EdgeKey e) override;
  void CandidatesInto(CandidateScope scope,
                      std::vector<graph::EdgeKey>* out) override;
  /// Trivial always-dirty rounds: rebuilds the candidate universe with
  /// CandidatesInto and re-evaluates every candidate each round with one
  /// Gain (or, for per-target cells, one GainVectorInto whose nonzero
  /// entries become the row's cells) in candidate order, one serial
  /// recount query at a time — exactly the paper's cost model. Returns
  /// all_dirty views: incremental callers get bit-identical picks and
  /// work accounting, and the timing experiments stay honest (no
  /// threading).
  const RoundGains& BeginRound(CandidateScope scope,
                               bool per_target) override;
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
  // Storage behind BeginRound's views, refilled every round.
  std::vector<graph::EdgeKey> edges_;
  std::vector<uint32_t> totals_;
  std::vector<uint32_t> cell_offsets_;
  std::vector<uint32_t> cell_targets_;
  std::vector<uint32_t> cell_gains_;
  RoundGains view_;
};

}  // namespace tpp::core

#endif  // TPP_REFERENCE_NAIVE_ENGINE_H_
