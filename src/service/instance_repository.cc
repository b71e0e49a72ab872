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
using core::TppInstance;

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
    group.targets = targets;
    group.motif = motif;
  }
  return it->second;
}

void InstanceRepository::BuildGroup(Group& group,
                                    const CancellationToken* cancel) {
  builds_.fetch_add(1, std::memory_order_relaxed);
  if (Status polled = PollCancellation(cancel, "repository:build");
      !polled.ok()) {
    group.status = std::move(polled);
    return;
  }
  Result<TppInstance> instance =
      core::MakeInstance(*base_, group.targets, group.motif);
  if (!instance.ok()) {
    group.status = instance.status();
    return;
  }
  group.instance.emplace(std::move(*instance));

  motif::IndexSnapshotMeta meta;
  if (store_ != nullptr) {
    meta.graph_fingerprint = base_fingerprint_;
    meta.target_hash = graph::TargetSetHash(group.instance->targets);
    meta.motif = group.motif;
    meta.num_targets = static_cast<uint32_t>(group.instance->targets.size());
    Result<motif::IncidenceIndex> snapshot = store_->LoadIndex(meta);
    if (snapshot.ok()) {
      Result<IndexedEngine> adopted =
          IndexedEngine::Adopt(*group.instance, std::move(*snapshot));
      if (adopted.ok()) {
        snapshot_hits_.fetch_add(1, std::memory_order_relaxed);
        group.engine.emplace(std::move(*adopted));
        return;
      }
      store_degradations_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "tpp: warm store snapshot rejected at adoption (%s); "
                   "cold-building\n",
                   adopted.status().ToString().c_str());
    } else if (snapshot.status().code() != StatusCode::kNotFound) {
      // Present but invalid (corrupt file, format/fingerprint mismatch)
      // or unreadable after retries: one rung down the degradation
      // ladder — warn, count, cold-build.
      store_degradations_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr,
                   "tpp: warm store snapshot rejected (%s); cold-building\n",
                   snapshot.status().ToString().c_str());
    }
  }

  motif::IncidenceIndex::BuildOptions build_options;
  build_options.threads = build_threads_;
  build_options.cancel = cancel;
  Result<motif::IncidenceIndex> index = motif::IncidenceIndex::BuildCached(
      group.instance->released, *base_, group.instance->targets, group.motif,
      link_instances_, build_options);
  Result<IndexedEngine> engine =
      index.ok() ? IndexedEngine::Adopt(*group.instance, std::move(*index))
                 : Result<IndexedEngine>(index.status());
  if (!engine.ok()) {
    group.status = engine.status();
    group.instance.reset();
    return;
  }
  group.engine.emplace(std::move(*engine));
  if (store_ != nullptr) {
    // Best-effort write-back: the warm start is an optimization, so a
    // full disk or I/O error must not fail the request.
    Status saved = store_->SaveIndex(group.engine->index(), meta);
    if (saved.ok()) {
      snapshot_stores_.fetch_add(1, std::memory_order_relaxed);
    } else {
      store_write_failures_.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "tpp: warm store snapshot write failed (%s)\n",
                   saved.ToString().c_str());
    }
  }
}

Result<IndexedEngine> InstanceRepository::AcquireEngine(
    size_t group_id, const CancellationToken* cancel) {
  return Acquire(group_id, cancel, /*take=*/false);
}

Result<IndexedEngine> InstanceRepository::TakeEngine(
    size_t group_id, const CancellationToken* cancel) {
  return Acquire(group_id, cancel, /*take=*/true);
}

Result<IndexedEngine> InstanceRepository::Acquire(
    size_t group_id, const CancellationToken* cancel, bool take) {
  Group& group = groups_[group_id];
  {
    std::lock_guard<std::mutex> lock(group.build_mu);
    if (!group.built) {
      BuildGroup(group, cancel);
      group.built = true;
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
    if (group.status.ok() && !group.engine) {
      return Status::FailedPrecondition(
          "instance group's prototype engine was already taken");
    }
    if (take && group.status.ok()) {
      acquisitions_.fetch_add(1, std::memory_order_relaxed);
      IndexedEngine engine = std::move(*group.engine);
      group.engine.reset();
      return engine;
    }
  }
  // Past the gate the group is immutable until the next ApplyEdit (which
  // never overlaps acquisitions), so the clone runs unlocked exactly as
  // the once_flag version did.
  acquisitions_.fetch_add(1, std::memory_order_relaxed);
  if (!group.status.ok()) return group.status;
  return group.engine->Clone();
}

void InstanceRepository::ResetGroup(Group& group) {
  group.built = false;
  group.status = Status::Ok();
  group.engine.reset();
  group.instance.reset();
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
    for (const graph::Edge& t : group.targets) {
      if (std::binary_search(touched.begin(), touched.end(), t.Key())) {
        hits_target = true;
        break;
      }
    }
    if (hits_target || !group.status.ok() || !group.engine) {
      // The edit changed the problem (or may have cured a memoized build
      // failure, or TakeEngine left no prototype to repair): back to
      // unbuilt, next acquisition cold-builds.
      ResetGroup(group);
      ++edit_resets_;
      continue;
    }
    // In-place repair: released graph first, then the engine (its own
    // graph copy + incidence-index repair around the delta neighborhood).
    Status repaired = group.instance->released.ApplyDelta(delta);
    if (repaired.ok()) repaired = group.engine->ApplyEdit(delta);
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
    if (store_ != nullptr) {
      // Re-home the snapshot under the post-edit fingerprint (best
      // effort, like the cold-build write-back) so the NEXT process
      // start warm-loads the repaired index.
      motif::IndexSnapshotMeta meta;
      meta.graph_fingerprint = base_fingerprint_;
      meta.target_hash = graph::TargetSetHash(group.instance->targets);
      meta.motif = group.motif;
      meta.num_targets = static_cast<uint32_t>(group.instance->targets.size());
      const motif::IncidenceIndex& index =
          std::as_const(*group.engine).index();
      Status saved = store_->SaveIndex(index, meta);
      if (saved.ok()) {
        snapshot_stores_.fetch_add(1, std::memory_order_relaxed);
      } else {
        store_write_failures_.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "tpp: warm store snapshot write failed (%s)\n",
                     saved.ToString().c_str());
      }
    }
  }
}

}  // namespace tpp::service
