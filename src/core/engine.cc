#include "core/engine.h"

namespace tpp::core {

const RoundGains& Engine::BeginRound(CandidateScope scope, bool per_target) {
  // Trivial always-dirty fallback: rebuild the candidate universe and
  // re-evaluate every candidate in order through the counting queries, so
  // the work metric matches the cold sweep this stands in for (one
  // evaluation per live candidate). NaiveEngine keeps the paper's recount
  // cost model this way; only engines with dirty tracking override.
  GainTable& table = fallback_table_;
  CandidatesInto(scope, &table.edges);
  const size_t num_targets = NumTargets();
  table.totals.resize(table.edges.size());
  if (per_target) {
    table.rows.resize(table.edges.size() * num_targets);
    std::vector<size_t> diffs(num_targets);
    for (size_t i = 0; i < table.edges.size(); ++i) {
      GainVectorInto(table.edges[i], diffs);
      uint32_t* row = table.rows.data() + i * num_targets;
      uint32_t total = 0;
      for (size_t t = 0; t < num_targets; ++t) {
        row[t] = static_cast<uint32_t>(diffs[t]);
        total += row[t];
      }
      table.totals[i] = total;
    }
  } else {
    table.rows.clear();
    for (size_t i = 0; i < table.edges.size(); ++i) {
      table.totals[i] = static_cast<uint32_t>(Gain(table.edges[i]));
    }
  }
  table.dirty.clear();
  table.active = true;
  table.scope = scope;
  table.per_target = per_target;
  table.view.edges = table.edges;
  table.view.totals = table.totals;
  table.view.rows = per_target ? std::span<const uint32_t>(table.rows)
                               : std::span<const uint32_t>();
  table.view.num_targets = per_target ? num_targets : 0;
  table.view.dirty = {};
  table.view.all_dirty = true;
  table.view.num_candidates = table.edges.size();
  return table.view;
}

}  // namespace tpp::core
