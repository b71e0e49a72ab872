// Bounded admission control for the plan server.
//
// Overload policy (docs/ROBUSTNESS.md, "overload ladder"): work the
// server cannot finish in bounded time must be refused AT THE DOOR, with
// a retryable status, rather than queued into an ever-growing backlog
// that times every request out. The queue enforces four admission rules
// — global depth, queued payload bytes, per-client in-flight, and the
// deadline-hopeless rule (a deadline-tagged request whose deadline will
// lapse before the backlog drains is shed IMMEDIATELY, when the client
// can still retry elsewhere, not after burning queue time) — and serves
// admitted work round-robin across clients so one firehose connection
// cannot starve trickle clients.
//
// Thread model: one mutex guards everything. The IO thread calls Offer /
// DropClient; the solve loop calls TakeRoundRobin. Both are O(clients)
// worst case and never block on solving.

#ifndef TPP_SERVICE_SERVER_ADMISSION_H_
#define TPP_SERVICE_SERVER_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace tpp::service::server {

struct AdmissionOptions {
  /// Global cap on queued (admitted, not yet picked up) requests. The
  /// high-water mark of the ladder: past it every Offer sheds.
  size_t max_queue_depth = 256;
  /// Cap on the sum of queued request-line bytes; a second gate so a few
  /// enormous scripts cannot monopolize memory under the depth cap.
  size_t max_queued_bytes = 4u << 20;
  /// Per-client cap on queued + in-flight requests. 0: unlimited.
  size_t max_per_client = 64;
  /// Planning estimate of one request's service time, used only by the
  /// deadline-hopeless rule and the retry-after hint. Deliberately
  /// coarse: the rule sheds requests that are hopeless by an order of
  /// magnitude, not a close call.
  uint64_t est_request_ms = 50;
};

enum class ShedReason : uint8_t {
  kQueueFull = 0,
  kQueuedBytes = 1,
  kClientCap = 2,
  kDeadlineHopeless = 3,
  kDraining = 4,
};

/// Wire token for a shed reason (stable; appears in shed lines and
/// counters).
const char* ShedReasonName(ShedReason reason);

/// One admitted request line, queued verbatim; parsing happens at pickup
/// on the solve loop so a malformed line costs the IO thread nothing.
struct QueuedItem {
  uint64_t client = 0;        // session id
  uint64_t sequence = 0;      // admission order, for deterministic tests
  uint64_t epoch = 0;         // admission epoch (edit barrier)
  uint64_t deadline_ms = 0;   // 0: untagged
  size_t request_index = 0;   // request number within the client's stream
  size_t line_number = 0;     // 1-based line number within the stream
  std::string line;           // the raw request line
};

struct AdmissionDecision {
  bool admitted = false;
  ShedReason reason = ShedReason::kQueueFull;  // valid when !admitted
  /// Client-facing hint: milliseconds after which a retry has a chance.
  uint64_t retry_after_ms = 0;
};

class AdmissionQueue {
 public:
  explicit AdmissionQueue(const AdmissionOptions& options)
      : options_(options) {}

  /// Applies the admission rules to `item` and queues it if they pass.
  /// Sheds unconditionally (reason kDraining) once StopAdmission has
  /// been called or when `draining` is passed (test convenience).
  AdmissionDecision Offer(QueuedItem item, bool draining);

  /// Closes the door: every later Offer sheds with kDraining. Taken
  /// under the queue mutex, so it strictly orders against concurrent
  /// Offers — after StopAdmission returns, the queue depth can only
  /// decrease, which is what lets the drain loop's exit check (drained
  /// when depth reaches 0) stay stable against racing admissions.
  void StopAdmission();

  /// Removes and returns up to `limit` queued items with epoch <= `epoch`
  /// in round-robin order across clients (one item per client per
  /// rotation, oldest first within a client). Items of a LATER epoch stay
  /// queued — they are behind an edit barrier the solve loop has not
  /// crossed yet. Returns an empty vector when nothing <= epoch is
  /// queued.
  std::vector<QueuedItem> TakeRoundRobin(uint64_t epoch, size_t limit);

  /// Marks one previously taken item finished (releases its per-client
  /// in-flight slot).
  void Finish(uint64_t client);

  /// Drops every queued item of a disconnected client and forgets its
  /// in-flight accounting. Returns how many queued items died with it.
  size_t DropClient(uint64_t client);

  /// True when an Offer of a `line_bytes`-byte line from `client` would
  /// shed for queue depth, queued bytes or the client cap, and work
  /// already queued or in flight will free the room it lacks. A line too
  /// large for even an empty queue is never held: its Offer sheds.
  bool MustWait(uint64_t client, size_t line_bytes) const;

  /// True when the client has nothing queued and nothing in flight —
  /// every response it will ever get has already been written. Used by
  /// the server to retire half-closed sessions.
  bool ClientIdle(uint64_t client) const;

  /// Queued items of ANY epoch (drain loop: exit when 0 and no edits
  /// pending).
  size_t Depth() const;

  /// Queued items with epoch <= `epoch` (the solve loop's pickup set).
  size_t DepthAtOrBefore(uint64_t epoch) const;

  // Counters (monotonic). Locked reads: the footer reads them after the
  // loops exit, but tests read them while the IO thread still offers.
  uint64_t admitted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return admitted_;
  }
  uint64_t shed(ShedReason reason) const {
    std::lock_guard<std::mutex> lock(mu_);
    return shed_[static_cast<size_t>(reason)];
  }
  uint64_t shed_total() const;
  /// Largest queued + in-flight count any single client reached.
  size_t max_client_load() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_client_load_;
  }
  /// High-water mark of the global queue depth.
  size_t max_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return max_depth_;
  }

 private:
  struct ClientState {
    std::deque<QueuedItem> queued;
    size_t in_flight = 0;
  };

  size_t LoadLocked(const ClientState& c) const {
    return c.queued.size() + c.in_flight;
  }

  AdmissionOptions options_;
  mutable std::mutex mu_;
  bool stopped_ = false;  // StopAdmission called; every Offer sheds
  std::unordered_map<uint64_t, ClientState> clients_;
  // Round-robin pickup order; a client appears once while it has queued
  // items. Rebuilt lazily as clients drain and refill.
  std::deque<uint64_t> rotation_;
  size_t depth_ = 0;
  size_t queued_bytes_ = 0;
  uint64_t next_sequence_ = 0;
  uint64_t admitted_ = 0;
  uint64_t shed_[5] = {0, 0, 0, 0, 0};
  size_t max_client_load_ = 0;
  size_t max_depth_ = 0;
};

}  // namespace tpp::service::server

#endif  // TPP_SERVICE_SERVER_ADMISSION_H_
