#include "motif/index_snapshot.h"

#include <bit>
#include <cstddef>
#include <cstring>

#include "common/blob_io.h"
#include "common/strings.h"

namespace tpp::motif {

namespace {

constexpr char kMagic[8] = {'T', 'P', 'P', 'I', 'D', 'X', '1', '\0'};
constexpr size_t kSectionAlign = 64;

// Section order is part of the format; bump kFormatVersion to change it.
enum Section : uint32_t {
  kInstances = 0,
  kEdgeKeys,
  kProbeKeys,
  kProbeIds,
  kInstOffsets,
  kInstanceIds,
  kTgtOffsets,
  kTgtIds,
  kTgtCounts,
  kAliveCount,
  kMaint,
  kNumSections,
};

struct SnapshotHeader {
  char magic[8];
  uint32_t format_version;
  uint32_t motif;
  uint64_t graph_fingerprint;
  uint64_t target_hash;
  uint32_t num_targets;
  uint32_t arity;
  uint64_t num_instances;
  uint64_t num_edges;          // interned participating edges
  uint64_t num_nodes;          // NumNodes() of the graph at build time
  uint64_t probe_capacity;
  uint64_t num_cells;          // CSR-2 (target, count) pairs
  uint64_t num_instance_refs;  // CSR-1 posting-list entries
  uint64_t file_size;          // total snapshot size, truncation guard
  uint64_t payload_checksum;   // HashBytes64 of everything after the header
  uint64_t header_checksum;    // HashBytes64 of the header before this field
};
static_assert(std::is_trivially_copyable_v<SnapshotHeader>);
static_assert(sizeof(SnapshotHeader) == 112);

struct SectionRecord {
  uint64_t offset = 0;
  uint64_t size = 0;
};
static_assert(sizeof(SectionRecord) == 16);

// The adopted sections reinterpret file bytes as these structs; their
// layout is therefore part of the format.
static_assert(std::is_trivially_copyable_v<TargetSubgraph>);
static_assert(sizeof(TargetSubgraph) == 40);

constexpr size_t kTableOffset = sizeof(SnapshotHeader);
constexpr size_t kTableSize = kNumSections * sizeof(SectionRecord);

size_t Align64(size_t offset) {
  return (offset + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

uint64_t HeaderChecksum(const SnapshotHeader& h) {
  return HashBytes64(&h, offsetof(SnapshotHeader, header_checksum));
}

Status CorruptError(const std::string& path, const char* what) {
  return Status::IoError(StrFormat("snapshot %s: %s", path.c_str(), what));
}

// Reads and validates the fixed header: length, magic, header checksum,
// version. Meta and payload validation are the caller's concern.
Result<SnapshotHeader> ReadHeader(const MappedBlob& blob,
                                  const std::string& path) {
  if (blob.size() < kTableOffset + kTableSize) {
    return CorruptError(path, "file shorter than header");
  }
  SnapshotHeader h;
  std::memcpy(&h, blob.data(), sizeof h);
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    return CorruptError(path, "bad magic");
  }
  if (h.header_checksum != HeaderChecksum(h)) {
    return CorruptError(path, "header checksum mismatch");
  }
  if (h.format_version != IndexSnapshotCodec::kFormatVersion) {
    return CorruptError(path, "unsupported format version");
  }
  return h;
}

}  // namespace

Result<std::string> IndexSnapshotCodec::Serialize(
    const IncidenceIndex& index, const IndexSnapshotMeta& meta) {
  if (index.HasDeferredMaintenance() ||
      index.total_alive_ != index.instances_.size()) {
    return Status::FailedPrecondition(
        "only fresh indexes snapshot: all instances alive, nothing queued");
  }
  if (meta.num_targets != index.NumTargets()) {
    return Status::InvalidArgument("meta.num_targets != index.NumTargets()");
  }

  SnapshotHeader h{};
  std::memcpy(h.magic, kMagic, sizeof kMagic);
  h.format_version = kFormatVersion;
  h.motif = static_cast<uint32_t>(meta.motif);
  h.graph_fingerprint = meta.graph_fingerprint;
  h.target_hash = meta.target_hash;
  h.num_targets = meta.num_targets;
  h.arity = index.arity_;
  h.num_instances = index.instances_.size();
  h.num_edges = index.edge_keys_.size();
  h.num_nodes = index.num_nodes_;
  h.probe_capacity = index.probe_keys_.size();
  h.num_cells = index.tgt_ids_.size();
  h.num_instance_refs = index.instance_ids_.size();

  SectionRecord table[kNumSections];
  const size_t section_bytes[kNumSections] = {
      h.num_instances * sizeof(TargetSubgraph),
      h.num_edges * sizeof(graph::EdgeKey),
      h.probe_capacity * sizeof(graph::EdgeKey),
      h.probe_capacity * sizeof(uint32_t),
      (h.num_edges + 1) * sizeof(uint32_t),
      h.num_instance_refs * sizeof(uint32_t),
      (h.num_edges + 1) * sizeof(uint32_t),
      h.num_cells * sizeof(uint32_t),
      h.num_cells * sizeof(uint32_t),
      h.num_edges * sizeof(uint32_t),
      h.num_instances * sizeof(IncidenceIndex::InstanceMaintenance),
  };
  size_t cursor = Align64(kTableOffset + kTableSize);
  for (uint32_t s = 0; s < kNumSections; ++s) {
    table[s].offset = cursor;
    table[s].size = section_bytes[s];
    cursor = Align64(cursor + section_bytes[s]);
  }
  h.file_size = cursor;

  // One zero-initialized buffer: alignment gaps — and struct padding, see
  // the instance normalization below — serialize as deterministic zeros.
  std::string out(h.file_size, '\0');
  const auto put = [&out, &table](Section s, const void* src, size_t size) {
    if (size > 0) std::memcpy(out.data() + table[s].offset, src, size);
  };
  // TargetSubgraph carries 3 padding bytes after num_edges; copying the
  // raw array would write whatever the build left there. Normalize via
  // field-wise copies into the pre-zeroed buffer so snapshot bytes are a
  // pure function of the index content.
  for (size_t i = 0; i < index.instances_.size(); ++i) {
    const TargetSubgraph& src = index.instances_[i];
    char* dst =
        out.data() + table[kInstances].offset + i * sizeof(TargetSubgraph);
    std::memcpy(dst + offsetof(TargetSubgraph, target), &src.target,
                sizeof src.target);
    std::memcpy(dst + offsetof(TargetSubgraph, num_edges), &src.num_edges,
                sizeof src.num_edges);
    std::memcpy(dst + offsetof(TargetSubgraph, edges), src.edges.data(),
                sizeof src.edges);
  }
  put(kEdgeKeys, index.edge_keys_.data(), section_bytes[kEdgeKeys]);
  put(kProbeKeys, index.probe_keys_.data(), section_bytes[kProbeKeys]);
  put(kProbeIds, index.probe_ids_.data(), section_bytes[kProbeIds]);
  put(kInstOffsets, index.inst_offsets_.data(), section_bytes[kInstOffsets]);
  put(kInstanceIds, index.instance_ids_.data(),
      section_bytes[kInstanceIds]);
  put(kTgtOffsets, index.tgt_offsets_.data(), section_bytes[kTgtOffsets]);
  put(kTgtIds, index.tgt_ids_.data(), section_bytes[kTgtIds]);
  put(kTgtCounts, index.tgt_counts_.data(), section_bytes[kTgtCounts]);
  put(kAliveCount, index.alive_count_.data(), section_bytes[kAliveCount]);
  put(kMaint, index.maint_.data(), section_bytes[kMaint]);
  std::memcpy(out.data() + kTableOffset, table, kTableSize);

  h.payload_checksum = HashBytes64(out.data() + sizeof h,
                                   out.size() - sizeof h);
  h.header_checksum = HeaderChecksum(h);
  std::memcpy(out.data(), &h, sizeof h);
  return out;
}

Status IndexSnapshotCodec::Save(const IncidenceIndex& index,
                                const IndexSnapshotMeta& meta,
                                const std::string& path) {
  TPP_ASSIGN_OR_RETURN(std::string bytes, Serialize(index, meta));
  return AtomicWriteFile(path, bytes);
}

Result<IncidenceIndex> IndexSnapshotCodec::Load(
    const std::string& path, const IndexSnapshotMeta& expected) {
  TPP_ASSIGN_OR_RETURN(std::shared_ptr<const MappedBlob> blob,
                       MappedBlob::Open(path));
  TPP_ASSIGN_OR_RETURN(SnapshotHeader h, ReadHeader(*blob, path));
  if (h.file_size != blob->size()) {
    return CorruptError(path, "truncated or oversized file");
  }
  if (h.payload_checksum !=
      HashBytes64(blob->data() + sizeof h, blob->size() - sizeof h)) {
    return CorruptError(path, "payload checksum mismatch");
  }
  if (h.graph_fingerprint != expected.graph_fingerprint) {
    return CorruptError(path, "graph fingerprint mismatch");
  }
  if (h.target_hash != expected.target_hash) {
    return CorruptError(path, "target set mismatch");
  }
  if (h.motif != static_cast<uint32_t>(expected.motif)) {
    return CorruptError(path, "motif mismatch");
  }
  if (h.num_targets != expected.num_targets) {
    return CorruptError(path, "target count mismatch");
  }
  if (h.arity != MotifEdgeCount(expected.motif)) {
    return CorruptError(path, "arity inconsistent with motif");
  }
  if (h.probe_capacity < 16 || !std::has_single_bit(h.probe_capacity)) {
    return CorruptError(path, "probe capacity not a power of two");
  }

  SectionRecord table[kNumSections];
  std::memcpy(table, blob->data() + kTableOffset, kTableSize);
  const size_t section_bytes[kNumSections] = {
      h.num_instances * sizeof(TargetSubgraph),
      h.num_edges * sizeof(graph::EdgeKey),
      h.probe_capacity * sizeof(graph::EdgeKey),
      h.probe_capacity * sizeof(uint32_t),
      (h.num_edges + 1) * sizeof(uint32_t),
      h.num_instance_refs * sizeof(uint32_t),
      (h.num_edges + 1) * sizeof(uint32_t),
      h.num_cells * sizeof(uint32_t),
      h.num_cells * sizeof(uint32_t),
      h.num_edges * sizeof(uint32_t),
      h.num_instances * sizeof(IncidenceIndex::InstanceMaintenance),
  };
  for (uint32_t s = 0; s < kNumSections; ++s) {
    if (table[s].size != section_bytes[s] ||
        table[s].offset % kSectionAlign != 0 ||
        table[s].offset > blob->size() ||
        table[s].size > blob->size() - table[s].offset) {
      return CorruptError(path, "section table inconsistent with header");
    }
  }

  // Adopt the immutable sections straight out of the mapping: the blob
  // handle rides along as the FlatArray owner, so the mapping outlives
  // the index and every clone of it.
  const auto adopt = [&blob, &table](auto* tag, Section s) {
    using T = std::remove_pointer_t<decltype(tag)>;
    const T* data = reinterpret_cast<const T*>(blob->data() + table[s].offset);
    return FlatArray<T>::Adopt(data, table[s].size / sizeof(T), blob);
  };
  IncidenceIndex idx;
  idx.instances_ = adopt(static_cast<TargetSubgraph*>(nullptr), kInstances);
  idx.edge_keys_ = adopt(static_cast<graph::EdgeKey*>(nullptr), kEdgeKeys);
  idx.probe_keys_ = adopt(static_cast<graph::EdgeKey*>(nullptr), kProbeKeys);
  idx.probe_ids_ = adopt(static_cast<uint32_t*>(nullptr), kProbeIds);
  idx.inst_offsets_ = adopt(static_cast<uint32_t*>(nullptr), kInstOffsets);
  idx.instance_ids_ = adopt(static_cast<uint32_t*>(nullptr), kInstanceIds);
  idx.tgt_offsets_ = adopt(static_cast<uint32_t*>(nullptr), kTgtOffsets);
  idx.tgt_ids_ = adopt(static_cast<uint32_t*>(nullptr), kTgtIds);
  idx.maint_ =
      adopt(static_cast<IncidenceIndex::InstanceMaintenance*>(nullptr),
            kMaint);

  // The mutable count caches copy out of the snapshot (they decay as
  // edges are deleted; the file stays pristine).
  const uint32_t* tgt_counts =
      reinterpret_cast<const uint32_t*>(blob->data() +
                                        table[kTgtCounts].offset);
  idx.tgt_counts_.assign(tgt_counts, tgt_counts + h.num_cells);
  const uint32_t* alive_count =
      reinterpret_cast<const uint32_t*>(blob->data() +
                                        table[kAliveCount].offset);
  idx.alive_count_.assign(alive_count, alive_count + h.num_edges);

  idx.arity_ = static_cast<uint8_t>(h.arity);
  idx.num_nodes_ = h.num_nodes;
  idx.probe_mask_ = h.probe_capacity - 1;
  idx.probe_shift_ =
      64 - std::countr_zero(static_cast<size_t>(h.probe_capacity));
  // Snapshots are fresh by construction (Serialize enforces it), so the
  // shared build tail reconstitutes all alive state and the deferral
  // queues exactly as a cold build would.
  idx.FinishAliveState(h.num_targets);
  return idx;
}

Result<IndexSnapshotCodec::FileInfo> IndexSnapshotCodec::Inspect(
    const std::string& path) {
  TPP_ASSIGN_OR_RETURN(std::shared_ptr<const MappedBlob> blob,
                       MappedBlob::Open(path));
  TPP_ASSIGN_OR_RETURN(SnapshotHeader h, ReadHeader(*blob, path));
  FileInfo info;
  info.meta.graph_fingerprint = h.graph_fingerprint;
  info.meta.target_hash = h.target_hash;
  info.meta.motif = static_cast<MotifKind>(h.motif);
  info.meta.num_targets = h.num_targets;
  info.format_version = h.format_version;
  info.num_instances = h.num_instances;
  info.num_edges = h.num_edges;
  info.file_size = blob->size();
  return info;
}

Status IndexSnapshotCodec::Verify(const std::string& path) {
  TPP_ASSIGN_OR_RETURN(std::shared_ptr<const MappedBlob> blob,
                       MappedBlob::Open(path));
  TPP_ASSIGN_OR_RETURN(SnapshotHeader h, ReadHeader(*blob, path));
  if (h.file_size != blob->size()) {
    return CorruptError(path, "truncated or oversized file");
  }
  if (h.payload_checksum !=
      HashBytes64(blob->data() + sizeof h, blob->size() - sizeof h)) {
    return CorruptError(path, "payload checksum mismatch");
  }
  return Status::Ok();
}

}  // namespace tpp::motif
