#include "service/instance_repository.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "graph/fingerprint.h"
#include "service/store/warm_store.h"

namespace tpp::service {

using core::IndexedEngine;

size_t InstanceRepository::Intern(const std::vector<graph::Edge>& targets,
                                  motif::MotifKind motif) {
  std::string key =
      StrFormat("%d|", static_cast<int>(motif));
  for (const graph::Edge& e : targets) {
    key += StrFormat("%u-%u;", e.u, e.v);
  }
  auto [it, inserted] = groups_.try_emplace(std::move(key));
  Group& group = it->second;
  if (inserted) {
    group.problem.targets = targets;
    group.problem.motif = motif;
    group.key_bytes = it->first.size() + targets.size() * sizeof(graph::Edge);
    // A key dropped after one use counts that use, so its second
    // acquisition keeps the group.
    if (!sightings_.empty()) {
      const size_t hash = std::hash<std::string>{}(it->first);
      if (sightings_[hash % kSightings] == hash) group.uses = 1;
    }
  }
  if (group.pin == kUnpinned) {
    group.pin = pins_.size();
    pins_.push_back(&*it);
  }
  return group.pin;
}

motif::IndexSnapshotMeta InstanceRepository::SnapshotMeta(
    const Group& group) const {
  const core::TppProblem& problem = group.problem;
  motif::IndexSnapshotMeta meta;
  meta.graph_fingerprint = base_fingerprint_;
  meta.target_hash = graph::TargetSetHash(problem.targets);
  meta.motif = problem.motif;
  meta.num_targets = static_cast<uint32_t>(problem.targets.size());
  return meta;
}

void InstanceRepository::WriteBack(const Group& group) {
  Status saved = store_->SaveIndex(*group.index, SnapshotMeta(group));
  if (!saved.ok()) {
    std::fprintf(stderr, "tpp: warm store snapshot write failed (%s)\n",
                 saved.ToString().c_str());
  }
}

Status InstanceRepository::BuildGroup(Group& group,
                                      const CancellationToken* cancel) {
  builds_.fetch_add(1, std::memory_order_relaxed);
  TPP_RETURN_IF_ERROR(PollCancellation(cancel, "repository:build"));
  const core::TppProblem& problem = group.problem;
  // The same check, and so the same status, as core::MakeInstance. It
  // runs before the store probe, which must not serve an invalid set.
  TPP_RETURN_IF_ERROR(motif::ValidateTargetLinks(*base_, problem.targets));

  if (store_ != nullptr) {
    Result<motif::IncidenceIndex> snapshot =
        store_->LoadIndex(SnapshotMeta(group));
    if (snapshot.ok()) {
      if (snapshot->NumTargets() == problem.targets.size()) {
        group.index.emplace(std::move(*snapshot));
        return Status::Ok();
      }
      std::fprintf(stderr,
                   "tpp: warm store snapshot rejected at adoption (index "
                   "was built over %zu targets, not %zu); cold-building\n",
                   snapshot->NumTargets(), problem.targets.size());
    } else if (snapshot.status().code() != StatusCode::kNotFound) {
      // Present but invalid (corrupt file, format/fingerprint mismatch)
      // or unreadable after retries: one rung down the degradation
      // ladder — warn (the store counts it), cold-build.
      std::fprintf(stderr,
                   "tpp: warm store snapshot rejected (%s); cold-building\n",
                   snapshot.status().ToString().c_str());
    }
  }

  motif::IncidenceIndex::BuildOptions build_options;
  build_options.threads = build_threads_;
  build_options.cancel = cancel;
  Result<motif::IncidenceIndex> index = motif::IncidenceIndex::BuildCached(
      *base_, problem.targets, problem.motif, link_instances_, build_options);
  if (!index.ok()) return index.status();
  group.index.emplace(std::move(*index));
  if (store_ != nullptr) WriteBack(group);
  return Status::Ok();
}

Result<IndexedEngine> InstanceRepository::AcquireEngine(
    size_t group_id, const CancellationToken* cancel) {
  Group& group = pins_[group_id]->second;
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(group.build_mu);
    group.last_use = use_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    ++group.uses;
    if (!group.index) {
      TPP_RETURN_IF_ERROR(BuildGroup(group, cancel));
      Recharge(group);
    }
  }
  // Past the gate the group and the base are immutable until the next
  // ApplyEdit (which never overlaps acquisitions), so the copies run
  // unlocked.
  return IndexedEngine::Adopt(*base_, group.problem, *group.index);
}

void InstanceRepository::Recharge(Group& group) {
  const size_t bytes =
      group.index ? group.index->MemoryBytes() + group.key_bytes : 0;
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  resident_bytes_.fetch_sub(group.bytes, std::memory_order_relaxed);
  group.bytes = bytes;
}

InstanceRepository::Table::iterator InstanceRepository::Erase(
    Table::iterator it) {
  resident_bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
  return groups_.erase(it);
}

void InstanceRepository::ReleasePins() {
  // Only Intern adds groups, and it pins them, so every unbuilt group and
  // every group on its first use is pinned.
  for (Table::value_type* entry : pins_) {
    Group& group = entry->second;
    group.pin = kUnpinned;
    if (group.index && group.uses >= 2) continue;  // kept
    if (group.index) {  // one acquisition: sight the key, drop the group
      if (sightings_.empty()) sightings_.assign(kSightings, 0);
      const size_t hash = std::hash<std::string>{}(entry->first);
      sightings_[hash % kSightings] = hash;
    }
    Erase(groups_.find(entry->first));
  }
  pins_.clear();
}

void InstanceRepository::Trim() {
  ReleasePins();
  if (ResidentBytes() <= max_bytes_) return;
  std::vector<Table::iterator> resident;
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    resident.push_back(it);
  }
  std::sort(resident.begin(), resident.end(),
            [](Table::iterator a, Table::iterator b) {
              return a->second.last_use < b->second.last_use;
            });
  for (Table::iterator it : resident) {
    if (ResidentBytes() <= max_bytes_) break;
    Erase(it);
    ++evictions_;
  }
}

void InstanceRepository::ApplyEdit(const graph::GraphDelta& delta,
                                   uint64_t new_fingerprint) {
  base_fingerprint_ = new_fingerprint;
  ReleasePins();
  if (delta.empty()) return;
  // Every cached list is a base-graph enumeration; the base just changed.
  link_instances_.Clear();
  std::vector<graph::EdgeKey> touched;
  touched.reserve(delta.size());
  for (const graph::Edge& e : delta.inserted) touched.push_back(e.Key());
  for (const graph::Edge& e : delta.removed) touched.push_back(e.Key());
  std::sort(touched.begin(), touched.end());
  for (auto it = groups_.begin(); it != groups_.end();) {
    Group& group = it->second;
    bool hits_target = false;
    for (const graph::Edge& t : group.problem.targets) {
      if (std::binary_search(touched.begin(), touched.end(), t.Key())) {
        hits_target = true;
        break;
      }
    }
    if (hits_target) {
      // The edit changed the problem: the next interning cold-builds.
      it = Erase(it);
      ++edit_resets_;
      continue;
    }
    // In-place repair around the delta neighborhood, on the post-edit
    // base: the repair drops created instances that hold a target link,
    // so the result is the index of the edited G - T. A failure resets
    // the group.
    Status repaired = group.index->ApplyGraphDelta(
        *base_, group.problem.targets, group.problem.motif, delta);
    if (!repaired.ok()) {
      std::fprintf(stderr,
                   "tpp: in-place instance repair failed (%s); group will "
                   "cold-rebuild\n",
                   repaired.ToString().c_str());
      it = Erase(it);
      ++edit_resets_;
      continue;
    }
    ++edit_repairs_;
    Recharge(group);
    // Re-home the snapshot under the post-edit fingerprint so the NEXT
    // process start warm-loads the repaired index.
    if (store_ != nullptr) WriteBack(group);
    ++it;
  }
}

}  // namespace tpp::service
