// Exhaustive optimal protector selection for tiny instances.
//
// The greedy-bound oracle of the approximation-ratio tests: enumerates all
// candidate subsets of size <= k and returns the best achievable
// dissimilarity gain. Exponential — guarded by an explicit work limit.
// Lives in the test-only tpp_reference library.

#ifndef TPP_REFERENCE_EXHAUSTIVE_H_
#define TPP_REFERENCE_EXHAUSTIVE_H_

#include <vector>

#include "common/result.h"
#include "core/problem.h"

namespace tpp::core {

/// Result of exhaustive search.
struct ExhaustiveResult {
  std::vector<graph::Edge> best_set;  ///< an optimal protector set
  size_t best_gain = 0;               ///< max achievable gain with <= k
  size_t subsets_examined = 0;
};

/// Finds an optimal SGBT protector set of size <= k by exhaustive search
/// over the restricted candidate edges (optimal sets never benefit from
/// edges outside target subgraphs, by Lemma 5). Errors with OutOfRange if
/// the number of subsets would exceed `max_subsets`.
Result<ExhaustiveResult> ExhaustiveOptimal(const TppInstance& instance,
                                           size_t k,
                                           size_t max_subsets = 2'000'000);

}  // namespace tpp::core

#endif  // TPP_REFERENCE_EXHAUSTIVE_H_
