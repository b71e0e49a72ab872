#include "core/budget.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"

namespace tpp::core {

std::string_view BudgetDivisionName(BudgetDivision division) {
  switch (division) {
    case BudgetDivision::kTargetSubgraphBased:
      return "TBD";
    case BudgetDivision::kDegreeProductBased:
      return "DBD";
  }
  return "Unknown";
}

std::vector<size_t> ProportionalDivision(const std::vector<double>& weights,
                                         size_t k,
                                         const std::vector<size_t>& caps) {
  const size_t n = weights.size();
  std::vector<size_t> out(n, 0);
  if (n == 0 || k == 0) return out;
  TPP_CHECK(caps.empty() || caps.size() == n);

  auto cap_of = [&](size_t i) {
    return caps.empty() ? k : std::min(caps[i], k);
  };

  double total_weight = 0.0;
  for (double w : weights) {
    TPP_CHECK_GE(w, 0.0);
    total_weight += w;
  }
  std::vector<double> effective(n);
  if (total_weight <= 0.0) {
    // Degenerate: split uniformly.
    std::fill(effective.begin(), effective.end(), 1.0);
    total_weight = static_cast<double>(n);
  } else {
    for (size_t i = 0; i < n; ++i) effective[i] = weights[i];
  }

  // Largest-remainder apportionment with caps: floor the ideal shares, then
  // hand out remaining units by descending fractional part, then spill any
  // capped surplus to uncapped targets by descending weight.
  std::vector<double> ideal(n);
  size_t assigned = 0;
  for (size_t i = 0; i < n; ++i) {
    ideal[i] = static_cast<double>(k) * effective[i] / total_weight;
    out[i] = std::min(static_cast<size_t>(std::floor(ideal[i])), cap_of(i));
    assigned += out[i];
  }
  // Order targets by fractional remainder (desc), index asc for ties.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    double fa = ideal[a] - std::floor(ideal[a]);
    double fb = ideal[b] - std::floor(ideal[b]);
    return fa > fb;
  });
  // Distribute one unit at a time until k is reached or everyone is capped.
  bool progress = true;
  while (assigned < k && progress) {
    progress = false;
    for (size_t i : order) {
      if (assigned >= k) break;
      if (out[i] < cap_of(i) && effective[i] > 0.0) {
        ++out[i];
        ++assigned;
        progress = true;
      }
    }
    if (!progress) {
      // All positive-weight targets capped; allow zero-weight ones.
      for (size_t i : order) {
        if (assigned >= k) break;
        if (out[i] < cap_of(i)) {
          ++out[i];
          ++assigned;
          progress = true;
        }
      }
      if (!progress) break;  // every target at cap
    }
  }
  return out;
}

std::vector<size_t> DivideBudgetTbd(
    const std::vector<size_t>& initial_similarities, size_t k) {
  std::vector<double> weights(initial_similarities.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = static_cast<double>(initial_similarities[i]);
  }
  return ProportionalDivision(weights, k, initial_similarities);
}

std::vector<size_t> DivideBudgetDbd(const graph::Graph& released,
                                    const std::vector<graph::Edge>& targets,
                                    size_t k) {
  std::vector<double> weights(targets.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    const graph::Edge& t = targets[i];
    weights[i] = static_cast<double>(released.Degree(t.u)) *
                 static_cast<double>(released.Degree(t.v));
  }
  return ProportionalDivision(weights, k, /*caps=*/{});
}

}  // namespace tpp::core
