#include "service/store/warm_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/blob_io.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/strings.h"
#include "service/plan_cache.h"

namespace tpp::service::store {

namespace fs = std::filesystem;

namespace {

constexpr uint32_t kRecordMagic = 0x4C505054u;  // "TPPL"
constexpr uint32_t kFooterMagic = 0x46505054u;  // "TPPF"

struct RecordHeader {
  uint32_t magic = kRecordMagic;
  uint32_t key_size = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
};
static_assert(sizeof(RecordHeader) == 24);

struct FooterTrailer {
  uint64_t footer_offset = 0;
  uint64_t entry_count = 0;
  uint64_t footer_checksum = 0;
  uint32_t magic = kFooterMagic;
};
static_assert(sizeof(FooterTrailer) == 32);  // 4 bytes tail padding

uint64_t RecordChecksum(std::string_view key, std::string_view payload) {
  return SplitMix64(HashBytes64(key.data(), key.size()) ^
                    HashBytes64(payload.data(), payload.size()));
}

uint64_t RecordSize(size_t key_size, size_t payload_size) {
  return sizeof(RecordHeader) + key_size + payload_size;
}

double FileAgeSeconds(const fs::path& p) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(p, ec);
  if (ec) return 0;
  const auto now = fs::file_time_type::clock::now();
  return std::chrono::duration<double>(now - mtime).count();
}

void BumpMtime(const fs::path& p) {
  std::error_code ec;
  fs::last_write_time(p, fs::file_time_type::clock::now(), ec);
  // Best effort: a failed bump only weakens LRU ordering.
}

uint64_t FileBytes(const fs::path& p) {
  std::error_code ec;
  const uint64_t size = fs::file_size(p, ec);
  return ec ? 0 : size;
}

// Jitter seed for the retry schedule of operations on `path`: stable per
// file so retry timing is reproducible, distinct across files so
// concurrent retries do not march in lockstep.
uint64_t RetrySeed(const std::string& path) {
  return HashBytes64(path.data(), path.size());
}

// Runs `attempt`, an append to `path`, through RetryTransient. Appends
// land in place, so before every retry, and after a final failure, the
// file is truncated back to its `committed` bytes: a retry must not
// append after its own torn prefix, and recovery's forward scan stops at
// exactly this boundary if the process dies before the truncate.
template <typename Attempt>
Status RetryAppend(const RetryPolicy& policy, const std::string& path,
                   uint64_t committed, uint64_t* retries, Attempt attempt) {
  auto truncate_to_committed = [&] {
    std::error_code ec;
    fs::resize_file(path, committed, ec);  // best effort
  };
  bool retrying = false;
  Status status = RetryTransient(
      policy, RetrySeed(path),
      [&] {
        if (retrying) truncate_to_committed();
        retrying = true;
        return attempt();
      },
      retries);
  if (!status.ok()) truncate_to_committed();
  return status;
}

}  // namespace

WarmStore::WarmStore(std::string dir, const StoreOptions& options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<WarmStore>> WarmStore::Open(
    const std::string& dir, const StoreOptions& options) {
  std::error_code ec;
  fs::create_directories(fs::path(dir) / "index", ec);
  if (ec) return Status::IoError("cannot create " + dir + "/index");
  fs::create_directories(fs::path(dir) / "plans", ec);
  if (ec) return Status::IoError("cannot create " + dir + "/plans");
  std::unique_ptr<WarmStore> store(new WarmStore(dir, options));
  TPP_RETURN_IF_ERROR(store->RecoverSegments());
  return store;
}

Status WarmStore::RecoverSegments() {
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir_) / "plans", ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 14 || name.rfind("seg-", 0) != 0 ||
        name.substr(10) != ".log") {
      continue;
    }
    Result<int64_t> number = ParseInt64(name.substr(4, 6));
    if (!number.ok()) continue;
    Segment seg;
    seg.number = static_cast<uint64_t>(*number);
    seg.path = entry.path().string();
    segments_.push_back(std::move(seg));
  }
  if (ec) return Status::IoError("cannot list " + dir_ + "/plans");
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) {
              return a.number < b.number;
            });

  // Rebuild the key table in segment order so later segments overwrite
  // earlier ones (last write wins).
  for (Segment& seg : segments_) {
    // Injection site "store.recover": a transient fault here models a
    // flaky read during startup recovery; retries absorb it, and a
    // persistent failure degrades the segment to empty (its records are
    // simply not served) instead of failing the open.
    Result<std::shared_ptr<const MappedBlob>> blob_or =
        Status::Internal("unset");
    Status opened = RetryTransient(
        options_.retry, RetrySeed(seg.path),
        [&] {
          if (fault::FaultDecision f = fault::Hit("store.recover"); f.fire) {
            return f.ToStatus("store.recover(" + seg.path + ")");
          }
          blob_or = MappedBlob::Open(seg.path);
          return blob_or.status();
        },
        &stats_.io_retries);
    if (!opened.ok()) {
      ++stats_.read_degradations;
      continue;  // unreadable: treat as empty
    }
    const MappedBlob& blob = **blob_or;
    const uint8_t* data = blob.data();
    const uint64_t size = blob.size();

    // Sealed path: a valid trailer names the footer; no record scan.
    bool recovered = false;
    if (size >= sizeof(FooterTrailer)) {
      FooterTrailer trailer;
      std::memcpy(&trailer, data + size - sizeof trailer, sizeof trailer);
      const uint64_t footer_end = size - sizeof trailer;
      if (trailer.magic == kFooterMagic &&
          trailer.footer_offset <= footer_end &&
          trailer.footer_checksum ==
              HashBytes64(data + trailer.footer_offset,
                          footer_end - trailer.footer_offset)) {
        uint64_t off = trailer.footer_offset;
        bool ok = true;
        std::vector<std::pair<std::string, uint64_t>> entries;
        for (uint64_t i = 0; i < trailer.entry_count && ok; ++i) {
          uint32_t key_size = 0;
          uint64_t rec_offset = 0;
          if (off + 12 > footer_end) {
            ok = false;
            break;
          }
          std::memcpy(&key_size, data + off, 4);
          std::memcpy(&rec_offset, data + off + 4, 8);
          off += 12;
          if (off + key_size > footer_end) {
            ok = false;
            break;
          }
          entries.emplace_back(
              std::string(reinterpret_cast<const char*>(data + off),
                          key_size),
              rec_offset);
          off += key_size;
        }
        if (ok) {
          for (auto& [key, rec_offset] : entries) {
            auto it = plans_.find(key);
            if (it != plans_.end()) {
              for (Segment& prev : segments_) {
                if (prev.number == it->second.segment_number) {
                  --prev.live_keys;
                }
              }
            }
            plans_[std::move(key)] =
                PlanLocation{seg.number, rec_offset};
            ++seg.live_keys;
          }
          seg.bytes = trailer.footer_offset;
          seg.sealed = true;
          recovered = true;
        }
      }
    }
    if (recovered) continue;

    // Unsealed (or torn-seal) path: forward scan, stopping at the first
    // record that fails its bounds or checksum — a crash mid-append
    // loses at most the tail.
    uint64_t off = 0;
    while (off + sizeof(RecordHeader) <= size) {
      RecordHeader header;
      std::memcpy(&header, data + off, sizeof header);
      if (header.magic != kRecordMagic) break;
      const uint64_t body = off + sizeof header;
      if (header.key_size > size - body ||
          header.payload_size > size - body - header.key_size) {
        break;
      }
      const char* key_ptr = reinterpret_cast<const char*>(data + body);
      const char* payload_ptr = key_ptr + header.key_size;
      if (header.checksum !=
          RecordChecksum({key_ptr, header.key_size},
                         {payload_ptr, header.payload_size})) {
        break;
      }
      std::string key(key_ptr, header.key_size);
      auto it = plans_.find(key);
      if (it != plans_.end()) {
        for (Segment& prev : segments_) {
          if (prev.number == it->second.segment_number) --prev.live_keys;
        }
        if (it->second.segment_number == seg.number) --seg.live_keys;
      }
      plans_[std::move(key)] = PlanLocation{seg.number, off};
      ++seg.live_keys;
      off = body + header.key_size + header.payload_size;
    }
    seg.bytes = off;
    seg.sealed = false;
    if (off < size) {
      // Physically drop the torn tail: appends write at the file end, so
      // the end must BE the committed boundary the key table records. If
      // the truncate fails, freeze the segment instead — its recovered
      // records still serve (their offsets precede the tail), but new
      // appends go to a fresh segment rather than landing after garbage.
      std::error_code trunc_ec;
      fs::resize_file(seg.path, off, trunc_ec);
      if (trunc_ec) seg.sealed = true;
    }
  }
  return Status::Ok();
}

std::string WarmStore::IndexPath(const motif::IndexSnapshotMeta& meta) const {
  return (fs::path(dir_) / "index" /
          StrFormat("%016llx-%s-%016llx.idx",
                    static_cast<unsigned long long>(meta.graph_fingerprint),
                    std::string(motif::MotifName(meta.motif)).c_str(),
                    static_cast<unsigned long long>(meta.target_hash)))
      .string();
}

Result<motif::IncidenceIndex> WarmStore::LoadIndex(
    const motif::IndexSnapshotMeta& meta) {
  const std::string path = IndexPath(meta);
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::error_code ec;
    if (!fs::exists(path, ec)) {
      ++stats_.index_misses;
      return Status::NotFound("no snapshot for this instance");
    }
  }
  // Injection site "snapshot.load". Transient read faults retry; a
  // persistent failure (or a corrupt/mismatched snapshot) reports as a
  // reject and the caller cold-builds — degradation, never a wrong index.
  Result<motif::IncidenceIndex> index = Status::Internal("unset");
  uint64_t retries = 0;
  (void)RetryTransient(
      options_.retry, RetrySeed(path),
      [&] {
        if (fault::FaultDecision f = fault::Hit("snapshot.load"); f.fire) {
          index = f.ToStatus("snapshot.load(" + path + ")");
          return index.status();
        }
        index = motif::IndexSnapshotCodec::Load(path, meta);
        return index.status();
      },
      &retries);
  std::lock_guard<std::mutex> lock(mu_);
  stats_.io_retries += retries;
  if (!index.ok()) {
    // Transient-I/O failures that outlived the retries count as read
    // degradations; everything else — corrupt bytes, version/fingerprint
    // mismatch, permanent I/O errors — is a validation reject. Exactly
    // one counter per failed load, so degradations() never double-counts.
    if (index.status().code() == StatusCode::kUnavailable) {
      ++stats_.read_degradations;
    } else {
      ++stats_.index_rejects;
    }
    return index;
  }
  ++stats_.index_hits;
  BumpMtime(path);
  return index;
}

Status WarmStore::SaveIndex(const motif::IncidenceIndex& index,
                            const motif::IndexSnapshotMeta& meta) {
  TPP_ASSIGN_OR_RETURN(std::string bytes,
                       motif::IndexSnapshotCodec::Serialize(index, meta));
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.capacity_bytes > 0 &&
      bytes.size() > options_.capacity_bytes) {
    ++stats_.admission_rejects;
    return Status::Ok();  // declined, not failed
  }
  // Injection site "snapshot.save" plus whatever "blob.write" injects
  // underneath. Transient faults retry; AtomicWriteFile guarantees the
  // final path is all-or-nothing on every attempt, so retrying after a
  // torn write is safe.
  const std::string path = IndexPath(meta);
  Status written = RetryTransient(
      options_.retry, RetrySeed(path),
      [&] {
        if (fault::FaultDecision f = fault::Hit("snapshot.save"); f.fire) {
          return f.ToStatus("snapshot.save(" + path + ")");
        }
        return AtomicWriteFile(path, bytes);
      },
      &stats_.io_retries);
  if (!written.ok()) {
    ++stats_.write_failures;
    return written;
  }
  ++stats_.index_writes;
  EnforceCapacity();
  return Status::Ok();
}

bool WarmStore::LoadPlan(const std::string& key, std::string* payload) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = plans_.find(key);
  if (it == plans_.end()) {
    ++stats_.plan_misses;
    return false;
  }
  const Segment* seg = nullptr;
  for (const Segment& s : segments_) {
    if (s.number == it->second.segment_number) {
      seg = &s;
      break;
    }
  }
  if (seg == nullptr) {
    ++stats_.plan_misses;
    return false;
  }
  // Injection site "plan.load". Transient faults retry through the
  // policy; any persistent failure — injected, unreadable stream, or a
  // record that fails validation — degrades to a miss (the pipeline
  // re-solves), never to served corruption.
  auto attempt = [&]() -> Status {
    if (fault::FaultDecision f = fault::Hit("plan.load"); f.fire) {
      return f.ToStatus("plan.load(" + seg->path + ")");
    }
    std::ifstream f(seg->path, std::ios::binary);
    RecordHeader header;
    if (!f.seekg(static_cast<std::streamoff>(it->second.offset)) ||
        !f.read(reinterpret_cast<char*>(&header), sizeof header) ||
        header.magic != kRecordMagic || header.key_size != key.size()) {
      return Status::IoError("unreadable plan record in " + seg->path);
    }
    std::string stored_key(header.key_size, '\0');
    payload->assign(header.payload_size, '\0');
    if (!f.read(stored_key.data(),
                static_cast<std::streamsize>(stored_key.size())) ||
        !f.read(payload->data(),
                static_cast<std::streamsize>(payload->size())) ||
        stored_key != key ||
        header.checksum != RecordChecksum(stored_key, *payload)) {
      // Never serve bytes that fail validation.
      payload->clear();
      return Status::IoError("corrupt plan record in " + seg->path);
    }
    return Status::Ok();
  };
  Status read = RetryTransient(options_.retry, RetrySeed(seg->path), attempt,
                               &stats_.io_retries);
  if (!read.ok()) {
    payload->clear();
    ++stats_.read_degradations;
    ++stats_.plan_misses;
    return false;
  }
  ++stats_.plan_hits;
  BumpMtime(seg->path);
  return true;
}

Status WarmStore::AppendPlan(const std::string& key,
                             std::string_view payload) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t record_size = RecordSize(key.size(), payload.size());
  if (options_.capacity_bytes > 0 &&
      record_size > options_.capacity_bytes) {
    ++stats_.admission_rejects;
    return Status::Ok();  // declined, not failed
  }
  if (segments_.empty() || segments_.back().sealed) {
    Segment seg;
    seg.number = segments_.empty() ? 1 : segments_.back().number + 1;
    seg.path = (fs::path(dir_) / "plans" /
                StrFormat("seg-%06llu.log",
                          static_cast<unsigned long long>(seg.number)))
                   .string();
    segments_.push_back(std::move(seg));
  }
  Segment& seg = segments_.back();

  RecordHeader header;
  header.key_size = static_cast<uint32_t>(key.size());
  header.payload_size = payload.size();
  header.checksum = RecordChecksum(key, payload);
  std::string record;
  record.reserve(record_size);
  record.append(reinterpret_cast<const char*>(&header), sizeof header);
  record.append(key);
  record.append(payload.data(), payload.size());

  // Injection site "store.append". Unlike AtomicWriteFile, appends land
  // in place, so a torn write leaves a prefix of the record in the live
  // segment, which RetryAppend truncates back to the committed record
  // boundary.
  auto attempt = [&]() -> Status {
    fault::FaultDecision f = fault::Hit("store.append", record.size());
    if (f.fire && f.kind != fault::FaultKind::kTorn) {
      return f.ToStatus("store.append(" + seg.path + ")");
    }
    const size_t limit =
        f.fire ? static_cast<size_t>(f.torn_bytes) : record.size();
    std::ofstream out(seg.path, std::ios::binary | std::ios::app);
    if (!out) return Status::IoError("cannot append to " + seg.path);
    out.write(record.data(), static_cast<std::streamsize>(limit));
    out.flush();
    if (f.fire) {  // simulated crash: the prefix is on disk, then death
      return f.ToStatus("store.append(" + seg.path + ")");
    }
    if (!out.good()) return Status::IoError("short append to " + seg.path);
    return Status::Ok();
  };
  Status written = RetryAppend(options_.retry, seg.path, seg.bytes,
                               &stats_.io_retries, attempt);
  if (!written.ok()) {
    ++stats_.write_failures;
    return written;
  }
  auto it = plans_.find(key);
  if (it != plans_.end()) {
    for (Segment& prev : segments_) {
      if (prev.number == it->second.segment_number) --prev.live_keys;
    }
  }
  plans_[key] = PlanLocation{seg.number, seg.bytes};
  ++seg.live_keys;
  seg.bytes += record_size;
  if (seg.bytes > options_.plan_segment_bytes) {
    // Sealing is an optimization (footer-indexed opens); a seal that
    // fails even after retries degrades to "stay unsealed" — recovery
    // falls back to the forward scan — and must not fail the append,
    // whose record is already durable.
    Status sealed = SealActiveSegment();
    if (!sealed.ok()) ++stats_.write_failures;
  }
  EnforceCapacity();
  return Status::Ok();
}

Status WarmStore::SealActiveSegment() {
  Segment& seg = segments_.back();
  // Footer: the live key -> record-offset table of this segment, then a
  // fixed trailer naming it. Appending the footer is the commit; a crash
  // before the trailer lands leaves a scannable unsealed segment.
  std::string footer;
  uint64_t entry_count = 0;
  for (const auto& [key, loc] : plans_) {
    if (loc.segment_number != seg.number) continue;
    const uint32_t key_size = static_cast<uint32_t>(key.size());
    footer.append(reinterpret_cast<const char*>(&key_size), 4);
    footer.append(reinterpret_cast<const char*>(&loc.offset), 8);
    footer.append(key);
    ++entry_count;
  }
  FooterTrailer trailer;
  trailer.footer_offset = seg.bytes;
  trailer.entry_count = entry_count;
  trailer.footer_checksum = HashBytes64(footer.data(), footer.size());
  footer.append(reinterpret_cast<const char*>(&trailer), sizeof trailer);

  // Injection site "store.seal". The footer is append-only commit data:
  // between attempts the file truncates back to the record boundary so a
  // retried footer never lands after a torn one, and a crash at any
  // point leaves a scannable unsealed segment.
  auto attempt = [&]() -> Status {
    fault::FaultDecision f = fault::Hit("store.seal", footer.size());
    if (f.fire && f.kind != fault::FaultKind::kTorn) {
      return f.ToStatus("store.seal(" + seg.path + ")");
    }
    const size_t limit =
        f.fire ? static_cast<size_t>(f.torn_bytes) : footer.size();
    std::ofstream out(seg.path, std::ios::binary | std::ios::app);
    if (!out) return Status::IoError("cannot seal " + seg.path);
    out.write(footer.data(), static_cast<std::streamsize>(limit));
    out.flush();
    if (f.fire) return f.ToStatus("store.seal(" + seg.path + ")");
    if (!out.good()) {
      return Status::IoError("short footer write to " + seg.path);
    }
    return Status::Ok();
  };
  TPP_RETURN_IF_ERROR(RetryAppend(options_.retry, seg.path, seg.bytes,
                                  &stats_.io_retries, attempt));
  seg.sealed = true;
  return Status::Ok();
}

void WarmStore::DropSegmentKeys(uint64_t segment_number) {
  for (auto it = plans_.begin(); it != plans_.end();) {
    if (it->second.segment_number == segment_number) {
      it = plans_.erase(it);
    } else {
      ++it;
    }
  }
}

void WarmStore::EnforceCapacity() {
  if (options_.capacity_bytes == 0) return;
  struct Candidate {
    std::string path;
    uint64_t bytes = 0;
    double age = 0;
    bool is_segment = false;
    uint64_t segment_number = 0;
  };
  for (;;) {
    std::vector<Candidate> candidates;
    uint64_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(fs::path(dir_) / "index", ec)) {
      Candidate c;
      c.path = entry.path().string();
      c.bytes = FileBytes(entry.path());
      c.age = FileAgeSeconds(entry.path());
      total += c.bytes;
      candidates.push_back(std::move(c));
    }
    for (size_t s = 0; s < segments_.size(); ++s) {
      const uint64_t bytes = FileBytes(segments_[s].path);
      total += bytes;
      if (s + 1 == segments_.size()) continue;  // active segment is exempt
      Candidate c;
      c.path = segments_[s].path;
      c.bytes = bytes;
      c.age = FileAgeSeconds(segments_[s].path);
      c.is_segment = true;
      c.segment_number = segments_[s].number;
      candidates.push_back(std::move(c));
    }
    if (total <= options_.capacity_bytes || candidates.empty()) return;
    // Oldest mtime goes first: reads bump mtimes, so this is LRU at file
    // granularity.
    auto victim = std::max_element(
        candidates.begin(), candidates.end(),
        [](const Candidate& a, const Candidate& b) { return a.age < b.age; });
    std::error_code rm;
    fs::remove(victim->path, rm);
    if (rm) return;  // cannot evict; stop rather than loop forever
    ++stats_.evicted_files;
    if (victim->is_segment) {
      DropSegmentKeys(victim->segment_number);
      segments_.erase(
          std::remove_if(segments_.begin(), segments_.end(),
                         [&](const Segment& s) {
                           return s.number == victim->segment_number;
                         }),
          segments_.end());
    }
  }
}

Result<std::vector<StoreEntry>> WarmStore::Scan() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StoreEntry> entries;
  std::error_code ec;
  std::vector<fs::path> index_files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir_) / "index", ec)) {
    index_files.push_back(entry.path());
  }
  std::sort(index_files.begin(), index_files.end());
  for (const fs::path& path : index_files) {
    StoreEntry e;
    e.kind = StoreEntry::Kind::kIndexSnapshot;
    e.name = (fs::path("index") / path.filename()).string();
    e.path = path.string();
    e.bytes = FileBytes(path);
    e.age_seconds = FileAgeSeconds(path);
    Result<motif::IndexSnapshotCodec::FileInfo> info =
        motif::IndexSnapshotCodec::Inspect(path.string());
    if (info.ok()) {
      e.graph_fingerprint = info->meta.graph_fingerprint;
      e.target_hash = info->meta.target_hash;
      e.motif = std::string(motif::MotifName(info->meta.motif));
    } else {
      e.motif = "<unreadable>";
    }
    entries.push_back(std::move(e));
  }
  for (const Segment& seg : segments_) {
    StoreEntry e;
    e.kind = StoreEntry::Kind::kPlanSegment;
    e.name = (fs::path("plans") / fs::path(seg.path).filename()).string();
    e.path = seg.path;
    e.bytes = FileBytes(seg.path);
    e.age_seconds = FileAgeSeconds(seg.path);
    e.plan_records = seg.live_keys;
    e.sealed = seg.sealed;
    entries.push_back(std::move(e));
  }
  return entries;
}

Status WarmStore::VerifyAll(std::vector<std::string>* problems) {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir_) / "index", ec)) {
    Status status = motif::IndexSnapshotCodec::Verify(entry.path().string());
    if (!status.ok()) problems->push_back(status.ToString());
  }
  for (const Segment& seg : segments_) {
    Result<std::shared_ptr<const MappedBlob>> blob_or =
        MappedBlob::Open(seg.path);
    if (!blob_or.ok()) {
      problems->push_back(blob_or.status().ToString());
      continue;
    }
    const MappedBlob& blob = **blob_or;
    uint64_t off = 0;
    while (off < seg.bytes) {
      if (off + sizeof(RecordHeader) > blob.size()) {
        problems->push_back(seg.path + ": record past end of file");
        break;
      }
      RecordHeader header;
      std::memcpy(&header, blob.data() + off, sizeof header);
      const uint64_t body = off + sizeof header;
      if (header.magic != kRecordMagic ||
          header.key_size > blob.size() - body ||
          header.payload_size > blob.size() - body - header.key_size) {
        problems->push_back(seg.path + ": malformed record");
        break;
      }
      const char* key_ptr =
          reinterpret_cast<const char*>(blob.data() + body);
      if (header.checksum !=
          RecordChecksum({key_ptr, header.key_size},
                         {key_ptr + header.key_size,
                          header.payload_size})) {
        problems->push_back(seg.path + ": record checksum mismatch");
        break;
      }
      off = body + header.key_size + header.payload_size;
    }
  }
  return Status::Ok();
}

Status WarmStore::EvictByName(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const fs::path path = fs::path(dir_) / name;
  std::error_code ec;
  if (!fs::exists(path, ec)) {
    return Status::NotFound("no store entry named " + name);
  }
  std::error_code rm;
  fs::remove(path, rm);
  if (rm) return Status::IoError("cannot remove " + path.string());
  for (size_t s = 0; s < segments_.size(); ++s) {
    if (segments_[s].path == path.string()) {
      DropSegmentKeys(segments_[s].number);
      segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(s));
      break;
    }
  }
  ++stats_.evicted_files;
  return Status::Ok();
}

Result<size_t> WarmStore::EvictOlderThan(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  std::error_code ec;
  std::vector<fs::path> victims;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir_) / "index", ec)) {
    if (FileAgeSeconds(entry.path()) > seconds) {
      victims.push_back(entry.path());
    }
  }
  for (size_t s = 0; s < segments_.size(); ++s) {
    if (s + 1 == segments_.size() && !segments_[s].sealed) {
      continue;  // active segment is exempt
    }
    if (FileAgeSeconds(segments_[s].path) > seconds) {
      victims.push_back(segments_[s].path);
    }
  }
  for (const fs::path& path : victims) {
    std::error_code rm;
    fs::remove(path, rm);
    if (rm) continue;
    ++removed;
    ++stats_.evicted_files;
    for (size_t s = 0; s < segments_.size(); ++s) {
      if (segments_[s].path == path.string()) {
        DropSegmentKeys(segments_[s].number);
        segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(s));
        break;
      }
    }
  }
  return removed;
}

Result<size_t> WarmStore::EvictStale(uint64_t live_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t removed = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir_) / "index", ec)) {
    Result<motif::IndexSnapshotCodec::FileInfo> info =
        motif::IndexSnapshotCodec::Inspect(entry.path().string());
    // Inspect already rejects bad magic, foreign format versions, and
    // header corruption — all states no live caller can load.
    const bool stale =
        !info.ok() || info->meta.graph_fingerprint != live_fingerprint;
    if (!stale) continue;
    std::error_code rm;
    fs::remove(entry.path(), rm);
    if (rm) continue;
    ++removed;
    ++stats_.evicted_files;
  }
  std::vector<uint64_t> stale_segments;
  for (size_t s = 0; s < segments_.size(); ++s) {
    if (!segments_[s].sealed) continue;  // active segment is exempt
    bool live = false;
    for (const auto& [key, loc] : plans_) {
      if (loc.segment_number != segments_[s].number) continue;
      // A key not in the canonical shape is conservatively live.
      const std::optional<uint64_t> fingerprint = KeyFingerprint(key);
      if (!fingerprint || *fingerprint == live_fingerprint) {
        live = true;
        break;
      }
    }
    if (!live) stale_segments.push_back(segments_[s].number);
  }
  for (uint64_t number : stale_segments) {
    for (size_t s = 0; s < segments_.size(); ++s) {
      if (segments_[s].number != number) continue;
      std::error_code rm;
      fs::remove(segments_[s].path, rm);
      if (rm) break;
      ++removed;
      ++stats_.evicted_files;
      DropSegmentKeys(number);
      segments_.erase(segments_.begin() + static_cast<ptrdiff_t>(s));
      break;
    }
  }
  return removed;
}

WarmStore::Stats WarmStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tpp::service::store
