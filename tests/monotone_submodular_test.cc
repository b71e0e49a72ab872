// Property verification of Lemmas 1-4: the subgraph-count dissimilarity
// f(P,T) = C - s(P,T) is monotone and submodular in the deleted set P,
// for every motif, on randomized instances.

#include <gtest/gtest.h>

#include <tuple>

#include "core/indexed_engine.h"
#include "core/problem.h"
#include "graph/generators.h"
#include "motif/incidence_index.h"
#include "test_util.h"

namespace tpp::core {
namespace {

using ::tpp::testing::BuildFreshIndex;
using graph::Edge;
using graph::EdgeKey;
using graph::Graph;
using motif::IncidenceIndex;

// Applies a deletion set to a fresh index and returns s(P, T).
size_t SimilarityAfter(const TppInstance& inst,
                       const std::vector<EdgeKey>& deletions) {
  IncidenceIndex idx = *BuildFreshIndex(inst.released, inst.targets,
                                        inst.motif);
  for (EdgeKey e : deletions) idx.DeleteEdge(e);
  return idx.TotalAlive();
}

class MonotoneSubmodularTest
    : public ::testing::TestWithParam<std::tuple<motif::MotifKind,
                                                 uint64_t>> {};

TEST_P(MonotoneSubmodularTest, MonotonicityLemma1) {
  auto [kind, seed] = GetParam();
  Rng rng(seed);
  Graph g = *graph::ErdosRenyiGnp(22, 0.3, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 4);
  TppInstance inst = *MakeInstance(g, targets, kind);
  std::vector<EdgeKey> edges = inst.released.EdgeKeys();

  for (int trial = 0; trial < 20; ++trial) {
    // Random A subset of B: similarity must not increase with more
    // deletions (dissimilarity is monotone non-decreasing).
    size_t b_size = rng.UniformIndex(std::min<size_t>(edges.size(), 10) + 1);
    std::vector<EdgeKey> b_set = rng.SampleK(edges, b_size);
    size_t a_size = b_size == 0 ? 0 : rng.UniformIndex(b_size + 1);
    std::vector<EdgeKey> a_set(b_set.begin(), b_set.begin() + a_size);
    EXPECT_GE(SimilarityAfter(inst, a_set), SimilarityAfter(inst, b_set))
        << "monotonicity violated";
  }
}

TEST_P(MonotoneSubmodularTest, SubmodularityLemma2) {
  auto [kind, seed] = GetParam();
  Rng rng(seed + 31);
  Graph g = *graph::ErdosRenyiGnp(22, 0.3, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 4);
  TppInstance inst = *MakeInstance(g, targets, kind);
  std::vector<EdgeKey> edges = inst.released.EdgeKeys();
  if (edges.size() < 3) GTEST_SKIP();

  for (int trial = 0; trial < 20; ++trial) {
    // A subset of B, p not in B: marginal gain at A >= marginal gain at B.
    size_t b_size =
        1 + rng.UniformIndex(std::min<size_t>(edges.size() - 1, 8));
    std::vector<EdgeKey> b_set = rng.SampleK(edges, b_size);
    size_t a_size = rng.UniformIndex(b_size + 1);
    std::vector<EdgeKey> a_set(b_set.begin(), b_set.begin() + a_size);
    // Pick p outside B.
    EdgeKey p = 0;
    bool found = false;
    for (int attempt = 0; attempt < 50; ++attempt) {
      EdgeKey cand = edges[rng.UniformIndex(edges.size())];
      if (std::find(b_set.begin(), b_set.end(), cand) == b_set.end()) {
        p = cand;
        found = true;
        break;
      }
    }
    if (!found) continue;

    size_t s_a = SimilarityAfter(inst, a_set);
    std::vector<EdgeKey> a_plus = a_set;
    a_plus.push_back(p);
    size_t s_a_plus = SimilarityAfter(inst, a_plus);
    size_t s_b = SimilarityAfter(inst, b_set);
    std::vector<EdgeKey> b_plus = b_set;
    b_plus.push_back(p);
    size_t s_b_plus = SimilarityAfter(inst, b_plus);

    size_t gain_a = s_a - s_a_plus;  // delta f(A, T)
    size_t gain_b = s_b - s_b_plus;  // delta f(B, T)
    EXPECT_GE(gain_a, gain_b) << "submodularity violated";
  }
}

TEST_P(MonotoneSubmodularTest, GainMatchesDefinitionOfMarginal) {
  // Engine Gain(e) must equal f(P + e) - f(P) computed from scratch.
  auto [kind, seed] = GetParam();
  Rng rng(seed + 77);
  Graph g = *graph::BarabasiAlbert(25, 3, rng);
  std::vector<Edge> targets = rng.SampleK(g.Edges(), 3);
  TppInstance inst = *MakeInstance(g, targets, kind);
  IndexedEngine engine = *IndexedEngine::Create(inst);
  std::vector<EdgeKey> deleted;
  for (int step = 0; step < 6; ++step) {
    auto candidates = engine.Candidates(CandidateScope::kAllEdges);
    if (candidates.empty()) break;
    EdgeKey e = candidates[rng.UniformIndex(candidates.size())];
    size_t before = SimilarityAfter(inst, deleted);
    std::vector<EdgeKey> plus = deleted;
    plus.push_back(e);
    size_t after = SimilarityAfter(inst, plus);
    EXPECT_EQ(engine.Gain(e), before - after);
    engine.DeleteEdge(e);
    deleted.push_back(e);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MonotoneSubmodularTest,
    ::testing::Combine(::testing::ValuesIn(motif::kAllMotifs),
                       ::testing::Values(2, 13, 47)),
    [](const ::testing::TestParamInfo<std::tuple<motif::MotifKind,
                                                 uint64_t>>& info) {
      return std::string(motif::MotifName(std::get<0>(info.param))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace tpp::core
