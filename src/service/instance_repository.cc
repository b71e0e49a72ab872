#include "service/instance_repository.h"

#include <algorithm>
#include <cstdio>
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
  auto [it, inserted] = ids_.try_emplace(std::move(key), groups_.size());
  if (inserted) {
    Group& group = groups_.emplace_back();
    group.problem.targets = targets;
    group.problem.motif = motif;
  }
  return it->second;
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

void InstanceRepository::BuildGroup(Group& group,
                                    const CancellationToken* cancel) {
  builds_.fetch_add(1, std::memory_order_relaxed);
  if (Status polled = PollCancellation(cancel, "repository:build");
      !polled.ok()) {
    group.status = std::move(polled);
    return;
  }
  const core::TppProblem& problem = group.problem;
  // The same check, and so the same status, as core::MakeInstance. It
  // runs before the store probe, which must not serve an invalid set.
  if (Status valid = motif::ValidateTargetLinks(*base_, problem.targets);
      !valid.ok()) {
    group.status = std::move(valid);
    return;
  }

  if (store_ != nullptr) {
    Result<motif::IncidenceIndex> snapshot =
        store_->LoadIndex(SnapshotMeta(group));
    if (snapshot.ok()) {
      if (snapshot->NumTargets() == problem.targets.size()) {
        group.index.emplace(std::move(*snapshot));
        return;
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
  if (!index.ok()) {
    group.status = index.status();
    return;
  }
  group.index.emplace(std::move(*index));
  if (store_ != nullptr) WriteBack(group);
}

Result<IndexedEngine> InstanceRepository::AcquireEngine(
    size_t group_id, const CancellationToken* cancel) {
  Group& group = groups_[group_id];
  {
    std::lock_guard<std::mutex> lock(group.build_mu);
    group.last_use = use_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (!group.built) {
      BuildGroup(group, cancel);
      group.built = true;
      Recharge(group);
    }
    const StatusCode code = group.status.code();
    if (code == StatusCode::kAborted || code == StatusCode::kDeadlineExceeded) {
      // The build died on THIS caller's clock, not on anything intrinsic
      // to the group — memoizing it would poison every later acquirer
      // (including ones with generous deadlines). Hand the failure to
      // this caller only and return the group to unbuilt so the next
      // acquirer rebuilds under its own token.
      Status failed = group.status;
      ResetGroup(group);
      acquisitions_.fetch_add(1, std::memory_order_relaxed);
      return failed;
    }
  }
  // Past the gate the group and the base are immutable until the next
  // ApplyEdit (which never overlaps acquisitions), so the copies run
  // unlocked.
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (!group.status.ok()) return group.status;
  return IndexedEngine::Adopt(*base_, group.problem, *group.index);
}

void InstanceRepository::ResetGroup(Group& group) {
  group.built = false;
  group.status = Status::Ok();
  group.index.reset();
  Recharge(group);
}

void InstanceRepository::Recharge(Group& group) {
  const size_t bytes = group.index ? group.index->MemoryBytes() : 0;
  resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  resident_bytes_.fetch_sub(group.bytes, std::memory_order_relaxed);
  group.bytes = bytes;
}

void InstanceRepository::Trim() {
  if (ResidentBytes() <= max_bytes_) return;
  std::vector<Group*> resident;
  for (Group& group : groups_) {
    if (group.bytes > 0) resident.push_back(&group);
  }
  std::sort(resident.begin(), resident.end(),
            [](const Group* a, const Group* b) {
              return a->last_use < b->last_use;
            });
  for (Group* group : resident) {
    if (ResidentBytes() <= max_bytes_) break;
    ResetGroup(*group);
    ++evictions_;
  }
}

void InstanceRepository::ApplyEdit(const graph::GraphDelta& delta,
                                   uint64_t new_fingerprint) {
  base_fingerprint_ = new_fingerprint;
  if (delta.empty()) return;
  // Every cached list is a base-graph enumeration; the base just changed.
  link_instances_.Clear();
  std::vector<graph::EdgeKey> touched;
  touched.reserve(delta.size());
  for (const graph::Edge& e : delta.inserted) touched.push_back(e.Key());
  for (const graph::Edge& e : delta.removed) touched.push_back(e.Key());
  std::sort(touched.begin(), touched.end());
  for (Group& group : groups_) {
    std::lock_guard<std::mutex> lock(group.build_mu);
    if (!group.built) continue;  // will build against the edited base
    bool hits_target = false;
    for (const graph::Edge& t : group.problem.targets) {
      if (std::binary_search(touched.begin(), touched.end(), t.Key())) {
        hits_target = true;
        break;
      }
    }
    if (hits_target || !group.status.ok()) {
      // The edit changed the problem (or may have cured a memoized build
      // failure): back to unbuilt, next acquisition cold-builds.
      ResetGroup(group);
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
      ResetGroup(group);
      ++edit_resets_;
      continue;
    }
    ++edit_repairs_;
    Recharge(group);
    // Re-home the snapshot under the post-edit fingerprint so the NEXT
    // process start warm-loads the repaired index.
    if (store_ != nullptr) WriteBack(group);
  }
}

}  // namespace tpp::service
