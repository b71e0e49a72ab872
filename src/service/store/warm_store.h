// WarmStore: the disk-backed warm-start store behind --store.
//
// One directory holds two kinds of entries:
//
//   index/<fingerprint>-<motif>-<targethash>.idx
//       One mmap-able IncidenceIndex snapshot per built instance
//       (motif/index_snapshot.h), addressed by (graph fingerprint,
//       motif, target-set hash). A warm process start loads the built
//       index in one mmap instead of re-running enumeration + CSR
//       construction.
//
//   plans/seg-<NNNNNN>.log
//       A log-structured record stream of serialized PlanResponses
//       (plan_codec.h) keyed by the canonical PlanCache key. Records
//       append to the ACTIVE segment, the highest-numbered one; once it
//       passes StoreOptions::plan_segment_bytes it is CLOSED (takes no
//       more appends) and the next append starts a fresh segment. Every
//       open recovers every segment by one forward scan. In the active
//       segment the scan stops at the first torn record and truncates it
//       away, so a crash mid-append loses at most the tail record. A
//       closed segment is never rewritten: its scan skips a bad range and
//       resumes at the next record that parses. Within and across
//       segments, the LAST record for a key wins.
//
// Capacity: `capacity_bytes` caps the sum of all entry files. Entries
// larger than the cap are not admitted at all; when the total exceeds
// the cap, whole files are evicted oldest-mtime-first (reads bump the
// file mtime, making this LRU at file/segment granularity). The active
// plan segment is never evicted.
//
// Integrity: every reader validates checksums (snapshot header/payload
// checksums; per-record checksums in plan logs) and treats any
// violation as a miss — the caller falls back to a cold build/solve and
// the store never serves corrupt bytes as a plan.
//
// Thread-safe behind one mutex; the expensive payloads (snapshot load,
// record read) are file-granular and cheap relative to the work they
// save, so coarse locking suffices for the pipeline's access pattern
// (one probe per instance group / request).

#ifndef TPP_SERVICE_STORE_WARM_STORE_H_
#define TPP_SERVICE_STORE_WARM_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "motif/index_snapshot.h"
#include "service/store/retry_policy.h"

namespace tpp::service::store {

struct StoreOptions {
  /// Total on-disk byte budget across snapshots and plan segments;
  /// 0 = unbounded (no admission limit, no eviction).
  uint64_t capacity_bytes = 0;
  /// A plan segment closes (takes no more appends) once it exceeds this
  /// many bytes of records.
  uint64_t plan_segment_bytes = 4ull << 20;
  /// Backoff schedule for transient I/O errors (kUnavailable): every
  /// store read/write retries through this before giving up. The
  /// defaults absorb EINTR-class hiccups in well under a millisecond;
  /// set max_attempts = 1 to fail fast.
  RetryPolicy retry;
};

/// One store entry as listed by Scan() — the row format of
/// `tpp store ls`.
struct StoreEntry {
  enum class Kind { kIndexSnapshot, kPlanSegment };
  Kind kind = Kind::kIndexSnapshot;
  std::string name;  ///< file name within the store directory
  std::string path;  ///< full path
  uint64_t bytes = 0;
  double age_seconds = 0;  ///< now - mtime (LRU age)
  // Index snapshots only:
  uint64_t graph_fingerprint = 0;
  uint64_t target_hash = 0;
  std::string motif;  ///< display name; empty for plan segments
  // Plan segments only:
  size_t plan_records = 0;  ///< live (last-write-wins) keys in the segment
  bool closed = false;      ///< takes no more appends (not the active one)
};

class WarmStore {
 public:
  /// Running hit/miss accounting across both entry kinds.
  struct Stats {
    uint64_t index_hits = 0;
    uint64_t index_misses = 0;   ///< no snapshot file for the key
    uint64_t index_rejects = 0;  ///< snapshot present but failed validation
    uint64_t index_writes = 0;   ///< snapshot files SaveIndex wrote
    uint64_t plan_hits = 0;
    uint64_t plan_misses = 0;
    uint64_t evicted_files = 0;
    uint64_t admission_rejects = 0;  ///< entries larger than the capacity
    /// Transient I/O errors absorbed by the retry schedule (each retry
    /// attempt counts once; a fault the first retry fixes adds 1).
    uint64_t io_retries = 0;
    /// Writes (snapshot save, plan append) that failed
    /// even after retries. The store stays serving: a failed write
    /// degrades to "not persisted", never to a failed request.
    uint64_t write_failures = 0;
    /// Reads that failed with a real I/O error (not a clean miss) and
    /// degraded to a miss — the caller cold-builds or re-solves.
    uint64_t read_degradations = 0;
    /// Byte ranges of closed plan segments that recovery skipped because
    /// no record parsed there, and their total bytes. The records around
    /// a range still serve; `tpp store verify` reports each range.
    uint64_t skipped_ranges = 0;
    uint64_t skipped_bytes = 0;

    /// Every event where the store fell short of full service — the
    /// number the batch footer and `tpp store verify` surface.
    uint64_t degradations() const {
      return write_failures + read_degradations + index_rejects +
             skipped_ranges;
    }
  };

  /// Opens (creating directories as needed) the store at `dir` and
  /// recovers the plan-key table by a forward scan of every segment.
  static Result<std::unique_ptr<WarmStore>> Open(
      const std::string& dir, const StoreOptions& options = {});

  WarmStore(const WarmStore&) = delete;
  WarmStore& operator=(const WarmStore&) = delete;

  /// Loads the snapshot for `meta`, zero-copy (motif/index_snapshot.h).
  /// NotFound when no snapshot exists for the key; other errors mean a
  /// file was present but failed validation (corrupt, version/fingerprint
  /// mismatch) — callers warn and cold-build either way. A hit bumps the
  /// file's LRU clock.
  Result<motif::IncidenceIndex> LoadIndex(
      const motif::IndexSnapshotMeta& meta);

  /// Writes the snapshot for `meta` atomically (complete file or
  /// nothing), then enforces the capacity. Oversized snapshots are not
  /// admitted (OK is still returned; the store just declines, and only
  /// a written file counts in index_writes).
  Status SaveIndex(const motif::IncidenceIndex& index,
                   const motif::IndexSnapshotMeta& meta);

  /// Copies the stored payload for `key` into `*payload`. Returns false
  /// on a miss — unknown key OR a record that fails its checksum (the
  /// store never serves corrupt bytes). A hit bumps the segment's LRU
  /// clock.
  bool LoadPlan(const std::string& key, std::string* payload);

  /// Appends a (key, payload) record to the active segment, closing it
  /// when it outgrows the segment budget, then enforces the capacity.
  /// Oversized records are not admitted.
  Status AppendPlan(const std::string& key, std::string_view payload);

  /// Everything currently on disk, index snapshots first, then plan
  /// segments in segment order.
  Result<std::vector<StoreEntry>> Scan();

  /// Full-store integrity check: snapshot checksums and every plan
  /// record. Appends one human-readable line per problem (per skipped
  /// range of a closed segment, each range recovery skipped); OK with an
  /// empty `problems` means the store is clean.
  Status VerifyAll(std::vector<std::string>* problems);

  /// Deletes the entry file named `name` (as printed by Scan/ls).
  /// Evicting a plan segment drops all its keys. NotFound if no such
  /// entry exists.
  Status EvictByName(const std::string& name);

  /// Deletes every entry file older (by mtime) than `seconds`. The
  /// active plan segment is exempt. Returns the number of files removed.
  Result<size_t> EvictOlderThan(double seconds);

  /// Deletes entries no caller serving `live_fingerprint` can ever match:
  /// index snapshots whose header is unreadable, carries a superseded
  /// format version (IndexSnapshotCodec::kFormatVersion — e.g. v1 files
  /// written under the old order-dependent fingerprint scheme), or names
  /// a different graph fingerprint; and CLOSED plan segments none of
  /// whose live keys embed the live fingerprint. Keys in an unrecognized
  /// format are conservatively treated as live; the active segment is
  /// exempt. The workhorse of `tpp store evict --stale`.
  /// Returns the number of files removed.
  Result<size_t> EvictStale(uint64_t live_fingerprint);

  const std::string& dir() const { return dir_; }
  Stats stats() const;

 private:
  struct PlanLocation {
    uint64_t segment_number = 0;  ///< stable across segment eviction
    uint64_t offset = 0;          ///< record start within the segment file
    uint64_t bytes = 0;           ///< record size, header included
  };
  struct Segment {
    uint64_t number = 0;
    std::string path;
    uint64_t bytes = 0;  ///< committed record bytes
    size_t live_keys = 0;
    /// Takes no more appends: every segment but the last, and the last
    /// once it passes plan_segment_bytes or when recovery could not read
    /// it or truncate its torn tail. At most one segment is open, and it
    /// is the active one: appends go to it, and of the evictors only
    /// EvictByName removes it.
    bool closed = false;
  };

  WarmStore(std::string dir, const StoreOptions& options);

  Status RecoverSegments();  // runs in Open, before the store is shared
  std::string IndexPath(const motif::IndexSnapshotMeta& meta) const;

  // The helpers below require mu_ held.
  void EnforceCapacity();
  Segment* FindSegment(uint64_t number);
  /// Points `key` at the `bytes`-byte record at `offset` of `seg`, moving
  /// its live count off the segment that held the key before.
  void PublishKey(std::string key, Segment& seg, uint64_t offset,
                  uint64_t bytes);
  /// Deletes the entry file at `path` (a plan segment's keys and row go
  /// with it) and counts the eviction. False when the file could not be
  /// removed.
  bool RemoveEntry(const std::string& path);

  const std::string dir_;
  const StoreOptions options_;

  mutable std::mutex mu_;
  std::vector<Segment> segments_;  // ascending segment number
  std::unordered_map<std::string, PlanLocation> plans_;
  Stats stats_;
};

}  // namespace tpp::service::store

#endif  // TPP_SERVICE_STORE_WARM_STORE_H_
