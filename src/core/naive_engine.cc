#include "core/naive_engine.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/check.h"
#include "motif/enumerate.h"

namespace tpp::core {

using graph::EdgeKey;
using graph::EdgeKeyU;
using graph::EdgeKeyV;

NaiveEngine::NaiveEngine(const TppInstance& instance)
    : g_(instance.released),
      targets_(instance.targets),
      motif_(instance.motif) {}

void NaiveEngine::RefreshSimilarities() {
  if (!dirty_) return;
  sims_.resize(targets_.size());
  for (size_t t = 0; t < targets_.size(); ++t) {
    sims_[t] = motif::CountTargetSubgraphs(g_, targets_[t], motif_);
  }
  dirty_ = false;
}

size_t NaiveEngine::SimilarityOf(size_t t) {
  TPP_CHECK_LT(t, targets_.size());
  RefreshSimilarities();
  return sims_[t];
}

size_t NaiveEngine::TotalSimilarity() {
  RefreshSimilarities();
  return std::accumulate(sims_.begin(), sims_.end(), size_t{0});
}

size_t NaiveEngine::Gain(EdgeKey e) {
  size_t total = 0;
  for (size_t diff : GainVector(e)) total += diff;
  return total;
}

std::vector<size_t> NaiveEngine::GainVector(EdgeKey e) {
  std::vector<size_t> diffs(targets_.size(), 0);
  GainVectorInto(e, diffs);
  return diffs;
}

void NaiveEngine::GainVectorInto(EdgeKey e, std::span<size_t> out) {
  std::fill(out.begin(), out.end(), size_t{0});
  if (!g_.HasEdgeKey(e)) return;
  RefreshSimilarities();
  ++gain_evals_;
  // Temporarily delete e and recount every target, as the paper's greedy
  // algorithms do at each estimate step.
  Status rs = g_.RemoveEdgeKey(e);
  TPP_CHECK(rs.ok());
  for (size_t i = 0; i < targets_.size(); ++i) {
    size_t after = motif::CountTargetSubgraphs(g_, targets_[i], motif_);
    TPP_CHECK_LE(after, sims_[i]);
    out[i] = sims_[i] - after;
  }
  Status as = g_.AddEdge(EdgeKeyU(e), EdgeKeyV(e));
  TPP_CHECK(as.ok());
}

size_t NaiveEngine::DeleteEdge(EdgeKey e) {
  if (!g_.HasEdgeKey(e)) return 0;
  size_t before = TotalSimilarity();
  Status s = g_.RemoveEdgeKey(e);
  TPP_CHECK(s.ok());
  dirty_ = true;
  size_t after = TotalSimilarity();
  return before - after;
}

std::vector<EdgeKey> NaiveEngine::Candidates(CandidateScope scope) {
  if (scope == CandidateScope::kAllEdges) {
    return g_.EdgeKeys();  // already sorted ascending
  }
  // Restricted scope (Lemma 5): collect the edges of all currently alive
  // target subgraphs by re-enumeration.
  std::unordered_set<EdgeKey> set;
  for (size_t t = 0; t < targets_.size(); ++t) {
    for (const motif::TargetSubgraph& inst : motif::EnumerateTargetSubgraphs(
             g_, targets_[t], motif_, static_cast<int32_t>(t))) {
      for (uint8_t j = 0; j < inst.num_edges; ++j) set.insert(inst.edges[j]);
    }
  }
  std::vector<EdgeKey> out(set.begin(), set.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace tpp::core
