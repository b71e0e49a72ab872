// The cold one-request oracle of the plan service.
//
// RunOneCold samples (or takes) one request's targets, builds a fresh
// TppInstance and IndexedEngine, runs the spec'd solver and serializes
// the plan — no cache, no sharing, no repository, no cancellation, and no
// code shared with PlanService's pipeline beyond the public library
// calls. Every pipeline configuration (worker count, cache and store
// state, instance sharing, edits) must reproduce it byte for byte; the
// pipeline tests and the service benches check exactly that. Test-only
// (tpp_reference library).

#ifndef TPP_REFERENCE_RUN_ONE_COLD_H_
#define TPP_REFERENCE_RUN_ONE_COLD_H_

#include "graph/graph.h"
#include "service/plan_service.h"

namespace tpp::service {

/// Executes `request` cold against `base`. Ignores the request's
/// deadline_ms and cancel token.
PlanResponse RunOneCold(const graph::Graph& base, const PlanRequest& request);

}  // namespace tpp::service

#endif  // TPP_REFERENCE_RUN_ONE_COLD_H_
