#include "reference/run_one_cold.h"

#include <utility>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/indexed_engine.h"
#include "core/problem.h"
#include "core/report.h"
#include "core/solver.h"

namespace tpp::service {

PlanResponse RunOneCold(const graph::Graph& base, const PlanRequest& request) {
  WallTimer timer;
  PlanResponse response;
  Rng rng = RequestRng(request.seed);
  if (request.targets.empty()) {
    Result<std::vector<graph::Edge>> sampled =
        core::SampleTargets(base, request.sample, rng);
    if (!sampled.ok()) {
      response.status = sampled.status();
      return response;
    }
    response.targets = std::move(*sampled);
  } else {
    response.targets = request.targets;
  }
  Result<core::TppInstance> instance =
      core::MakeInstance(base, response.targets, request.motif);
  if (!instance.ok()) {
    response.status = instance.status();
    return response;
  }
  Result<core::IndexedEngine> engine = core::IndexedEngine::Create(*instance);
  if (!engine.ok()) {
    response.status = engine.status();
    return response;
  }
  Result<core::ProtectionResult> result =
      core::RunSolver(request.spec, *engine, *instance, rng);
  if (!result.ok()) {
    response.status = result.status();
    return response;
  }
  response.result = std::move(*result);
  response.plan_text = core::SerializeDeletionPlan(*instance, response.result);
  response.seconds = timer.Seconds();
  return response;
}

}  // namespace tpp::service
