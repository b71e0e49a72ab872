// Cold-sweep reference loops of the paper's three greedy selectors.
//
// Each round re-evaluates every candidate from scratch (Engine::
// CandidatesInto, then one Gain or GainVectorInto per candidate) and takes
// the first strict maximum in ascending key order: the textbook form of
// Algorithms 1-3. Production
// (core/greedy.h) runs incremental rounds over Engine::BeginRound instead;
// these loops exist only as the differential baseline that production
// must match bit for bit in picks, traces and gain-evaluation counts.
// They live in the test-only tpp_reference library, which tests and
// benches link and libtpp does not compile.

#ifndef TPP_REFERENCE_GREEDY_REFERENCE_H_
#define TPP_REFERENCE_GREEDY_REFERENCE_H_

#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "core/greedy.h"

namespace tpp::core {

/// Cold SGB-Greedy: same contract as SgbGreedy.
Result<ProtectionResult> SgbGreedyCold(Engine& engine, size_t budget,
                                       const GreedyOptions& options = {});

/// Cold CT-Greedy: same contract as CtGreedy.
Result<ProtectionResult> CtGreedyCold(Engine& engine,
                                      const std::vector<size_t>& budgets,
                                      const GreedyOptions& options = {});

/// Cold WT-Greedy: same contract as WtGreedy.
Result<ProtectionResult> WtGreedyCold(Engine& engine,
                                      const std::vector<size_t>& budgets,
                                      const GreedyOptions& options = {});

}  // namespace tpp::core

#endif  // TPP_REFERENCE_GREEDY_REFERENCE_H_
