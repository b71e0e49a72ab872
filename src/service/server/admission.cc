#include "service/server/admission.h"

#include <algorithm>

namespace tpp::service::server {

const char* ShedReasonName(ShedReason reason) {
  switch (reason) {
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kQueuedBytes:
      return "queued_bytes";
    case ShedReason::kClientCap:
      return "client_cap";
    case ShedReason::kDeadlineHopeless:
      return "deadline_hopeless";
    case ShedReason::kDraining:
      return "draining";
  }
  return "unknown";
}

AdmissionDecision AdmissionQueue::Offer(QueuedItem item, bool draining) {
  std::lock_guard<std::mutex> lock(mu_);
  AdmissionDecision decision;
  auto shed = [&](ShedReason reason) {
    decision.admitted = false;
    decision.reason = reason;
    // Hint: time for the current backlog plus one slot to drain at the
    // planning estimate. Deliberately pessimistic so honest clients back
    // off past the overload rather than hammering its trailing edge.
    decision.retry_after_ms =
        options_.est_request_ms * static_cast<uint64_t>(depth_ + 1);
    shed_[static_cast<size_t>(reason)] += 1;
    return decision;
  };
  if (draining || stopped_) return shed(ShedReason::kDraining);
  if (depth_ >= options_.max_queue_depth) {
    return shed(ShedReason::kQueueFull);
  }
  if (queued_bytes_ + item.line.size() > options_.max_queued_bytes) {
    return shed(ShedReason::kQueuedBytes);
  }
  ClientState& client = clients_[item.client];
  if (options_.max_per_client != 0 &&
      LoadLocked(client) >= options_.max_per_client) {
    return shed(ShedReason::kClientCap);
  }
  if (item.deadline_ms != 0) {
    // Deadline-hopeless rule: with `depth_` requests ahead at
    // est_request_ms each, a deadline shorter than the projected wait
    // cannot be met — shed NOW, while the client's own clock still has
    // budget to retry against a less loaded server.
    const uint64_t projected_wait_ms =
        options_.est_request_ms * static_cast<uint64_t>(depth_);
    if (item.deadline_ms <= projected_wait_ms) {
      return shed(ShedReason::kDeadlineHopeless);
    }
  }
  item.sequence = next_sequence_++;
  queued_bytes_ += item.line.size();
  depth_ += 1;
  max_depth_ = std::max(max_depth_, depth_);
  if (client.queued.empty()) rotation_.push_back(item.client);
  client.queued.push_back(std::move(item));
  max_client_load_ = std::max(max_client_load_, LoadLocked(client));
  admitted_ += 1;
  decision.admitted = true;
  return decision;
}

void AdmissionQueue::StopAdmission() {
  std::lock_guard<std::mutex> lock(mu_);
  stopped_ = true;
}

std::vector<QueuedItem> AdmissionQueue::TakeRoundRobin(uint64_t epoch,
                                                       size_t limit) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueuedItem> taken;
  if (limit == 0 || rotation_.empty()) return taken;
  // One pass per rotation slot: pop a client, take its oldest eligible
  // item, requeue the client at the back if it still has queued work.
  // `misses` counts consecutive clients whose head item sits behind a
  // later epoch barrier — a full rotation of misses means nothing else
  // is eligible this epoch.
  size_t misses = 0;
  while (taken.size() < limit && misses < rotation_.size()) {
    const uint64_t id = rotation_.front();
    rotation_.pop_front();
    auto it = clients_.find(id);
    if (it == clients_.end() || it->second.queued.empty()) continue;
    ClientState& client = it->second;
    if (client.queued.front().epoch > epoch) {
      // Behind the barrier: leave queued, rotate past.
      rotation_.push_back(id);
      ++misses;
      continue;
    }
    misses = 0;
    QueuedItem item = std::move(client.queued.front());
    client.queued.pop_front();
    depth_ -= 1;
    queued_bytes_ -= item.line.size();
    client.in_flight += 1;
    if (!client.queued.empty()) rotation_.push_back(id);
    taken.push_back(std::move(item));
  }
  return taken;
}

void AdmissionQueue::Finish(uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  if (it != clients_.end() && it->second.in_flight > 0) {
    it->second.in_flight -= 1;
    // A disconnected client with nothing queued and nothing in flight is
    // fully retired.
    if (it->second.in_flight == 0 && it->second.queued.empty()) {
      clients_.erase(it);
    }
  }
}

size_t AdmissionQueue::DropClient(uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  if (it == clients_.end()) return 0;
  const size_t dropped = it->second.queued.size();
  for (const QueuedItem& item : it->second.queued) {
    depth_ -= 1;
    queued_bytes_ -= item.line.size();
  }
  it->second.queued.clear();
  // In-flight work still finishes (the solve loop holds the item); the
  // client record survives until Finish retires it. The rotation entry,
  // if any, is skipped lazily by TakeRoundRobin.
  if (it->second.in_flight == 0) clients_.erase(it);
  return dropped;
}

bool AdmissionQueue::MustWait(uint64_t client, size_t line_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_queue_depth == 0 ||
      line_bytes > options_.max_queued_bytes) {
    return false;  // no pickup can ever make room
  }
  // Past either global gate the queue is non-empty, so pickups free room.
  if (depth_ >= options_.max_queue_depth ||
      queued_bytes_ + line_bytes > options_.max_queued_bytes) {
    return true;
  }
  if (options_.max_per_client == 0) return false;
  auto it = clients_.find(client);
  return it != clients_.end() &&
         LoadLocked(it->second) >= options_.max_per_client;
}

bool AdmissionQueue::ClientIdle(uint64_t client) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = clients_.find(client);
  return it == clients_.end() ||
         (it->second.queued.empty() && it->second.in_flight == 0);
}

size_t AdmissionQueue::Depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depth_;
}

size_t AdmissionQueue::DepthAtOrBefore(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [id, client] : clients_) {
    for (const QueuedItem& item : client.queued) {
      if (item.epoch <= epoch) ++count;
    }
  }
  return count;
}

uint64_t AdmissionQueue::shed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (uint64_t count : shed_) total += count;
  return total;
}

}  // namespace tpp::service::server
