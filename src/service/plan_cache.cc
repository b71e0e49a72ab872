#include "service/plan_cache.h"

#include <algorithm>
#include <vector>

#include "common/strings.h"
#include "core/engine_scope.h"
#include "service/store/plan_codec.h"
#include "service/store/warm_store.h"

namespace tpp::service {

namespace {

// The fingerprint field occupies a fixed-width slot right after the
// format tag, so rekeying a surviving entry is a constant-position
// splice. Kept in lockstep with CanonicalRequestKey below.
constexpr std::string_view kKeyTag = "tpp-plan-v1|fp=";
constexpr size_t kFingerprintHexDigits = 16;

// Extracts the value of `field` ("|alg=", ...) from a canonical key:
// everything up to the next '|' (or end of key). Empty view if absent.
std::string_view KeyField(std::string_view key, std::string_view field) {
  size_t pos = key.find(field);
  if (pos == std::string_view::npos) return {};
  pos += field.size();
  size_t end = key.find('|', pos);
  if (end == std::string_view::npos) end = key.size();
  return key.substr(pos, end - pos);
}

// The survival conditions of InvalidateForEdit (see plan_cache.h),
// evaluated on the canonical key alone — the key embeds every field the
// decision needs, so no request object has to be reconstructed.
bool SurvivesEdit(std::string_view key,
                  std::span<const graph::NodeId> affected) {
  // Deterministic, motif-local algorithms only: their plans are a pure
  // function of the targets' instance sets.
  std::string_view alg = KeyField(key, "|alg=");
  if (alg != "sgb" && alg != "ct-tbd" && alg != "ct-dbd" &&
      alg != "wt-tbd" && alg != "wt-dbd") {
    return false;
  }
  constexpr int kRestricted =
      static_cast<int>(core::CandidateScope::kTargetSubgraphEdges);
  if (KeyField(key, "|scope=") != StrFormat("%d", kRestricted)) return false;
  if (KeyField(key, "|rel=") != "0") return false;
  std::string_view links = KeyField(key, "|links=");
  if (links.empty()) return false;  // sampled targets, or malformed
  // Every endpoint must sit outside the edit's affected neighborhood.
  for (std::string_view pair : SplitNonEmpty(links, ";")) {
    size_t dash = pair.find('-');
    if (dash == std::string_view::npos) return false;
    Result<int64_t> u = ParseInt64(pair.substr(0, dash));
    Result<int64_t> v = ParseInt64(pair.substr(dash + 1));
    if (!u.ok() || !v.ok()) return false;
    if (std::binary_search(affected.begin(), affected.end(),
                           static_cast<graph::NodeId>(*u)) ||
        std::binary_search(affected.begin(), affected.end(),
                           static_cast<graph::NodeId>(*v))) {
      return false;
    }
  }
  return true;
}

// Whether a failed response's status depends on when (not what) was
// asked: a deadline that expired, a cancellation, or a transient store
// hiccup. Memoizing these — even with cache_failures on — would poison
// the cache: the same request retried with a fresh deadline would be
// served the stale failure instead of being solved.
bool IsTimingDependent(const Status& status) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kAborted:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string CanonicalRequestKey(uint64_t base_fingerprint,
                                const PlanRequest& request) {
  std::string key = StrFormat(
      "tpp-plan-v1|fp=%016llx|motif=%s|alg=%s|scope=%d|seed=%llu|rel=%d|",
      static_cast<unsigned long long>(base_fingerprint),
      std::string(motif::MotifName(request.motif)).c_str(),
      request.spec.algorithm.c_str(), static_cast<int>(request.spec.scope),
      static_cast<unsigned long long>(request.seed),
      request.want_released ? 1 : 0);
  if (request.spec.budget == core::SolverSpec::kFullProtection) {
    key += "budget=full|";
  } else {
    key += StrFormat("budget=%llu|",
                     static_cast<unsigned long long>(request.spec.budget));
  }
  if (request.targets.empty()) {
    key += StrFormat("sample=%llu",
                     static_cast<unsigned long long>(request.sample));
  } else {
    // Endpoint order is preserved: targets are carried through to plan
    // serialization as written, so (2,1) and (1,2) are distinct payloads.
    key += "links=";
    for (const graph::Edge& e : request.targets) {
      key += StrFormat("%u-%u;", e.u, e.v);
    }
  }
  return key;
}

bool PlanCache::Lookup(const std::string& key, PlanResponse* out) {
  Entry entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      entry = it->second->second;
    }
  }
  if (entry != nullptr) {
    // The deep copy (possibly a whole released graph) runs unlocked; the
    // shared_ptr keeps the payload alive past any concurrent eviction.
    *out = *entry;
    return true;
  }
  // Memory miss: probe the persistent tier. A disk record that fails its
  // checksum or decode is a miss — the pipeline re-solves and the fresh
  // OK response overwrites the bad record via write-through.
  if (backing_ != nullptr) {
    std::string payload;
    if (backing_->LoadPlan(key, &payload)) {
      Result<PlanResponse> decoded = store::DecodePlanResponse(payload);
      if (decoded.ok()) {
        entry = std::make_shared<const PlanResponse>(std::move(*decoded));
        Entry evicted;  // destroyed outside the lock
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++backing_hits_;
          InsertInMemory(key, entry, &evicted);
        }
        *out = *entry;
        return true;
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  return false;
}

void PlanCache::InsertInMemory(const std::string& key, Entry entry,
                               Entry* evicted) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    *evicted = std::exchange(it->second->second, std::move(entry));
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(entry));
  index_[key] = lru_.begin();
  if (capacity_ > 0 && lru_.size() > capacity_) {
    *evicted = std::move(lru_.back().second);
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
  }
}

void PlanCache::Insert(const std::string& key, PlanResponse response) {
  const bool ok_response = response.status.ok();
  if (!ok_response &&
      (!cache_failures_ || IsTimingDependent(response.status))) {
    return;  // never memoize (timing-dependent) failures
  }
  Entry entry = std::make_shared<const PlanResponse>(std::move(response));
  Entry evicted;  // destroyed outside the lock
  {
    std::lock_guard<std::mutex> lock(mu_);
    InsertInMemory(key, entry, &evicted);
  }
  // Write-through happens outside the lock (encode + append are the slow
  // half); failures are never persisted regardless of cache_failures_ —
  // a transient error must not outlive the process that saw it.
  if (backing_ != nullptr && ok_response) {
    Status appended = backing_->AppendPlan(key, store::EncodePlanResponse(*entry));
    if (!appended.ok()) {
      backing_write_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

PlanCache::EditOutcome PlanCache::InvalidateForEdit(
    uint64_t old_fingerprint, uint64_t new_fingerprint,
    std::span<const graph::NodeId> affected) {
  const std::string old_prefix =
      StrFormat("%s%016llx|", std::string(kKeyTag).c_str(),
                static_cast<unsigned long long>(old_fingerprint));
  const std::string new_hex = StrFormat(
      "%016llx", static_cast<unsigned long long>(new_fingerprint));
  EditOutcome outcome;
  // Survivors are re-persisted under their new key so the backing store
  // serves them across restarts too; dropped payloads (possibly large)
  // are destroyed outside the lock.
  std::vector<std::pair<std::string, Entry>> write_through;
  std::vector<Entry> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->first.compare(0, old_prefix.size(), old_prefix) != 0) {
        ++it;  // a different graph's entry; not this edit's concern
        continue;
      }
      index_.erase(it->first);
      if (SurvivesEdit(it->first, affected)) {
        // Rekey in place: same node, same LRU position, new fingerprint.
        it->first.replace(kKeyTag.size(), kFingerprintHexDigits, new_hex);
        index_[it->first] = it;
        ++outcome.rekeyed;
        if (backing_ != nullptr && it->second->status.ok()) {
          write_through.emplace_back(it->first, it->second);
        }
        ++it;
      } else {
        dropped.push_back(std::move(it->second));
        it = lru_.erase(it);
        ++outcome.invalidated;
      }
    }
    invalidated_by_edit_ += outcome.invalidated;
    rekeyed_by_edit_ += outcome.rekeyed;
  }
  for (const auto& [key, entry] : write_through) {
    Status appended = backing_->AppendPlan(key, store::EncodePlanResponse(*entry));
    if (!appended.ok()) {
      backing_write_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return outcome;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.backing_hits = backing_hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.invalidated_by_edit = invalidated_by_edit_;
  s.rekeyed_by_edit = rekeyed_by_edit_;
  s.backing_write_failures =
      backing_write_failures_.load(std::memory_order_relaxed);
  s.size = lru_.size();
  s.capacity = capacity_;
  return s;
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

}  // namespace tpp::service
