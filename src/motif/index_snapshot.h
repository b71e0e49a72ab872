// IndexSnapshotCodec: single-file serialization of a built IncidenceIndex.
//
// A snapshot holds the complete post-build layout — the instance table,
// the interned edge keys, the EdgeIdOf probe table, both CSR structures,
// the slot/maintenance records, and the fresh count caches — as flat
// trivially-copyable sections behind a fixed header, each section aligned
// to 64 bytes so a loaded file can be ADOPTED in place: LoadIndex mmaps
// the file (common/blob_io.h) and points the index's immutable FlatArray
// members straight into the mapping, copying only the small mutable count
// arrays. Warm-starting a service therefore skips enumeration, interning,
// and every CSR pass; the load cost is one mmap plus two memcpys.
//
// Layout (all integers host-endian; the format is an on-machine cache,
// not an interchange format):
//
//   SnapshotHeader              (fixed size, checksummed separately)
//   SectionRecord[kNumSections] ({offset, size} per section)
//   ... 64-byte-aligned sections, zero-padded gaps ...
//
// Integrity: `header_checksum` covers the header bytes before it;
// `payload_checksum` covers everything after the header (section table
// included). A reader rejects — and the caller falls back to a cold
// build — on short files, bad magic, a version it does not understand,
// checksum mismatches, and meta mismatches (graph fingerprint, motif,
// target-set hash), in that order. Writers only ever publish complete
// files: SaveIndex serializes to memory and hands the bytes to
// AtomicWriteFile (tmp + fsync + rename).
//
// Only FRESH indexes snapshot: every instance alive, no deferred
// maintenance. That is exactly the state a cold build produces and the
// only state a warm start wants; Serialize refuses anything else.

#ifndef TPP_MOTIF_INDEX_SNAPSHOT_H_
#define TPP_MOTIF_INDEX_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "motif/incidence_index.h"
#include "motif/motif.h"

namespace tpp::motif {

/// Identity of one built index: which graph (structural fingerprint),
/// which targets (order-sensitive hash — targets index count arrays
/// positionally), which motif. Stored in the snapshot header and checked
/// on load; a mismatch means the snapshot answers a different question
/// and must not be served.
struct IndexSnapshotMeta {
  uint64_t graph_fingerprint = 0;
  uint64_t target_hash = 0;
  MotifKind motif = MotifKind::kTriangle;
  uint32_t num_targets = 0;
};

class IndexSnapshotCodec {
 public:
  /// Bumped whenever the header or section layout changes — or the
  /// meaning of a header field: version 2 switched the graph fingerprint
  /// to the edit-commutative XOR scheme (graph/fingerprint.h), so version
  /// 1 files carry fingerprints no current caller can ever match; version
  /// 3 dropped the per-node edge bucket section (the header's node count
  /// stays). A reader rejects any other value (falling back to a cold
  /// build) rather than guessing at an old layout; `tpp store evict
  /// --stale` garbage-collects the superseded files.
  static constexpr uint32_t kFormatVersion = 3;

  /// Header metadata of a snapshot file, as read back by Inspect —
  /// everything `tpp store ls` prints without touching the payload.
  struct FileInfo {
    IndexSnapshotMeta meta;
    uint32_t format_version = 0;
    uint64_t num_instances = 0;
    uint64_t num_edges = 0;  ///< interned participating edges
    uint64_t file_size = 0;
  };

  /// Serializes `index` (which must be fresh — all instances alive, no
  /// deferred maintenance) into the single-file snapshot format.
  static Result<std::string> Serialize(const IncidenceIndex& index,
                                       const IndexSnapshotMeta& meta);

  /// Serialize + AtomicWriteFile: publishes the snapshot at `path` with
  /// the complete-file-or-nothing guarantee.
  static Status Save(const IncidenceIndex& index,
                     const IndexSnapshotMeta& meta, const std::string& path);

  /// Maps `path` and reconstitutes the index, adopting the immutable
  /// sections zero-copy out of the mapping (the returned index, and every
  /// clone of it, keeps the mapping alive). Fails — callers fall back to
  /// a cold build — on any integrity violation or when the file's meta
  /// differs from `expected`.
  static Result<IncidenceIndex> Load(const std::string& path,
                                     const IndexSnapshotMeta& expected);

  /// Reads and validates only the header (magic, version, header
  /// checksum) and returns its metadata. Cheap: no payload verification.
  static Result<FileInfo> Inspect(const std::string& path);

  /// Full integrity check: header plus payload checksum over the whole
  /// file. The workhorse of `tpp store verify`.
  static Status Verify(const std::string& path);
};

}  // namespace tpp::motif

#endif  // TPP_MOTIF_INDEX_SNAPSHOT_H_
