#include "reference/naive_engine.h"

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

void NaiveEngine::CandidatesInto(CandidateScope scope,
                                 std::vector<EdgeKey>* out) {
  if (scope == CandidateScope::kAllEdges) {
    *out = g_.EdgeKeys();  // already sorted ascending
    return;
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
  out->assign(set.begin(), set.end());
  std::sort(out->begin(), out->end());
}

const RoundGains& NaiveEngine::BeginRound(CandidateScope scope,
                                          bool per_target) {
  // Trivial always-dirty rounds: rebuild the candidate universe and
  // re-evaluate every candidate in order through the counting queries, so
  // the work metric matches the cold sweep this stands in for (one
  // evaluation per live candidate).
  CandidatesInto(scope, &edges_);
  totals_.resize(edges_.size());
  cell_offsets_.clear();
  cell_targets_.clear();
  cell_gains_.clear();
  if (per_target) {
    std::vector<size_t> diffs(NumTargets());
    cell_offsets_.push_back(0);
    for (size_t i = 0; i < edges_.size(); ++i) {
      GainVectorInto(edges_[i], diffs);
      uint32_t total = 0;
      for (size_t t = 0; t < diffs.size(); ++t) {
        if (diffs[t] == 0) continue;
        cell_targets_.push_back(static_cast<uint32_t>(t));
        cell_gains_.push_back(static_cast<uint32_t>(diffs[t]));
        total += static_cast<uint32_t>(diffs[t]);
      }
      cell_offsets_.push_back(static_cast<uint32_t>(cell_targets_.size()));
      totals_[i] = total;
    }
  } else {
    for (size_t i = 0; i < edges_.size(); ++i) {
      totals_[i] = static_cast<uint32_t>(Gain(edges_[i]));
    }
  }
  view_.edges = edges_;
  view_.totals = totals_;
  view_.cell_offsets = cell_offsets_;
  view_.cell_targets = cell_targets_;
  view_.cell_gains = cell_gains_;
  view_.dirty = {};
  view_.all_dirty = true;
  view_.num_candidates = edges_.size();
  return view_;
}

}  // namespace tpp::core
