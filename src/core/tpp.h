// Umbrella header for the TPP core library: the engine, solver and report
// headers of libtpp. Test oracles (tests/reference/) and the paper-
// evaluation modules (paper/) have their own headers.
//
// Typical use:
//
//   #include "core/tpp.h"
//
//   tpp::Rng rng(42);
//   auto targets = tpp::core::SampleTargets(g, 20, rng).value();
//   auto inst = tpp::core::MakeInstance(g, targets,
//                                       tpp::motif::MotifKind::kTriangle)
//                   .value();
//   auto engine = tpp::core::IndexedEngine::Create(inst).value();
//   auto result = tpp::core::SgbGreedy(engine, /*budget=*/10).value();
//   // result.protectors are the links to delete before release.

#ifndef TPP_CORE_TPP_H_
#define TPP_CORE_TPP_H_

#include "core/baselines.h"      // IWYU pragma: export
#include "core/budget.h"         // IWYU pragma: export
#include "core/engine.h"         // IWYU pragma: export
#include "core/greedy.h"         // IWYU pragma: export
#include "core/indexed_engine.h" // IWYU pragma: export
#include "core/katz_defense.h"   // IWYU pragma: export
#include "core/problem.h"        // IWYU pragma: export
#include "core/report.h"         // IWYU pragma: export
#include "core/solver.h"         // IWYU pragma: export

#endif  // TPP_CORE_TPP_H_
