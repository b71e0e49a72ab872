// Budget division strategies for the multi-local-budget problem (MLBT).

#ifndef TPP_CORE_BUDGET_H_
#define TPP_CORE_BUDGET_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/problem.h"

namespace tpp::core {

/// The two division strategies of paper §V-A.
enum class BudgetDivision {
  kTargetSubgraphBased,  ///< TBD: k_t proportional to |W_t|, capped at |W_t|
  kDegreeProductBased,   ///< DBD: k_t proportional to deg(u) * deg(v)
};

/// Stable display name: "TBD" / "DBD".
std::string_view BudgetDivisionName(BudgetDivision division);

/// Splits integer budget `k` across targets proportionally to `weights`
/// using the largest-remainder method, honoring optional per-target `caps`
/// (pass empty for uncapped). The result sums to min(k, sum of caps); all
/// ties are broken deterministically by target index. Zero-weight targets
/// receive budget only if every weight is zero (then the split is uniform).
std::vector<size_t> ProportionalDivision(const std::vector<double>& weights,
                                         size_t k,
                                         const std::vector<size_t>& caps);

/// TBD: weight_t = |W_t| (initial target-subgraph count), cap k_t <= |W_t|.
/// `initial_similarities` must be s({}, t) for each target.
std::vector<size_t> DivideBudgetTbd(
    const std::vector<size_t>& initial_similarities, size_t k);

/// DBD: weight_t = deg(u) * deg(v) in `released`, the phase-1 graph.
/// Uncapped; a target of high-degree ends gets a large share even when it
/// has few target subgraphs, which is exactly the weakness the paper's
/// evaluation observes for DBD.
std::vector<size_t> DivideBudgetDbd(const graph::Graph& released,
                                    const std::vector<graph::Edge>& targets,
                                    size_t k);

}  // namespace tpp::core

#endif  // TPP_CORE_BUDGET_H_
