// Protection-plan reporting and persistence.
//
// A deletion plan (the protector list) is the artifact a graph owner
// actually deploys; these helpers render it for audit and round-trip it
// through a stable on-disk format.

#ifndef TPP_CORE_REPORT_H_
#define TPP_CORE_REPORT_H_

#include <string>

#include "common/result.h"
#include "core/greedy.h"
#include "core/problem.h"

namespace tpp::core {

/// Renders a human-readable audit report: instance summary, per-pick
/// trace, and final protection state. `base` is the original graph;
/// the summary describes the released graph base - T without making it.
std::string FormatProtectionReport(const graph::Graph& base,
                                   const TppProblem& problem,
                                   const ProtectionResult& result);

/// Serializes the deletion plan (targets + protectors) to a text format:
///   # tpp deletion plan v1
///   target <u> <v>
///   protector <u> <v>
/// Applying a plan to the original graph (deleting every listed link)
/// produces the releasable graph.
std::string SerializeDeletionPlan(const TppProblem& problem,
                                  const ProtectionResult& result);

/// A parsed deletion plan.
struct DeletionPlan {
  std::vector<graph::Edge> targets;
  std::vector<graph::Edge> protectors;

  /// All links to delete before release, targets first.
  std::vector<graph::Edge> AllDeletions() const;
};

/// Parses a plan serialized by SerializeDeletionPlan. Errors on malformed
/// lines or an unknown header.
Result<DeletionPlan> ParseDeletionPlan(const std::string& text);

/// File round-trip helpers.
Status SaveDeletionPlan(const TppProblem& problem,
                        const ProtectionResult& result,
                        const std::string& path);
Result<DeletionPlan> LoadDeletionPlan(const std::string& path);

/// Applies a plan to a copy of `original`: deletes every target and
/// protector. Errors if a listed link is absent (plan/graph mismatch).
Result<graph::Graph> ApplyDeletionPlan(const graph::Graph& original,
                                       const DeletionPlan& plan);

}  // namespace tpp::core

#endif  // TPP_CORE_REPORT_H_
