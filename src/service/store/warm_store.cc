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

struct RecordHeader {
  uint32_t magic = kRecordMagic;
  uint32_t key_size = 0;
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
};
static_assert(sizeof(RecordHeader) == 24);

uint64_t RecordChecksum(std::string_view key, std::string_view payload) {
  return SplitMix64(HashBytes64(key.data(), key.size()) ^
                    HashBytes64(payload.data(), payload.size()));
}

// One plan record, viewed in the bytes it was parsed from.
struct Record {
  std::string_view key;
  std::string_view payload;
  uint64_t end = 0;  ///< offset just past the record
};

// Parses the record at `off` of the `size` bytes at `data`. Every reader
// of segment bytes (recovery, LoadPlan, VerifyAll) goes through here, and
// the bytes come from disk, so every size is checked against the bytes
// before it is used.
Result<Record> ParseRecord(const uint8_t* data, uint64_t size, uint64_t off) {
  RecordHeader header;
  if (off > size || size - off < sizeof header) {
    return Status::IoError("record header past end of file");
  }
  std::memcpy(&header, data + off, sizeof header);
  if (header.magic != kRecordMagic) return Status::IoError("bad record magic");
  const uint64_t body = off + sizeof header;
  if (header.key_size > size - body ||
      header.payload_size > size - body - header.key_size) {
    return Status::IoError("record past end of file");
  }
  const char* key = reinterpret_cast<const char*>(data + body);
  Record record{{key, header.key_size},
                {key + header.key_size, header.payload_size},
                body + header.key_size + header.payload_size};
  if (header.checksum != RecordChecksum(record.key, record.payload)) {
    return Status::IoError("record checksum mismatch");
  }
  return record;
}

// True iff bytes [off, size) are the key -> offset footer older builds
// appended to a closed segment: the footer, then a 32-byte trailer
// {footer offset, entry count, footer checksum, "TPPF", padding} naming
// `off`, whose checksum matches. It holds no records.
bool IsLegacyFooter(const uint8_t* data, uint64_t size, uint64_t off) {
  struct { uint64_t offset, entries, checksum; uint32_t magic, pad; } t;
  if (off > size || size - off < sizeof t) return false;
  std::memcpy(&t, data + size - sizeof t, sizeof t);
  return t.magic == 0x46505054u && t.offset == off &&
         t.checksum == HashBytes64(data + off, size - sizeof t - off);
}

// Walks the records of segment bytes [0, size) in order, calling
// on_record(offset, record) for each. At a record that fails to parse it
// stops and returns that offset unless `resync` is set; then, unless the
// rest is an older build's footer (no damage: it returns `size`), it
// calls on_skip(offset, next, status) and resumes at `next`, the first
// later offset holding kRecordMagic whose record parses (the record
// checksum guards against a false match), or `size` when none does.
// Returns `size` when every byte was walked.
template <typename OnRecord, typename OnSkip>
uint64_t ScanRecords(const uint8_t* data, uint64_t size, bool resync,
                     OnRecord on_record, OnSkip on_skip) {
  uint64_t off = 0;
  while (off < size) {
    Result<Record> record = ParseRecord(data, size, off);
    if (record.ok()) {
      on_record(off, *record);
      off = record->end;
      continue;
    }
    if (!resync) return off;
    if (IsLegacyFooter(data, size, off)) return size;
    uint64_t next = off + 1;
    while (next + sizeof(RecordHeader) <= size &&
           (std::memcmp(data + next, &kRecordMagic, sizeof kRecordMagic) != 0 ||
            !ParseRecord(data, size, next).ok())) {
      ++next;
    }
    if (next + sizeof(RecordHeader) > size) next = size;
    on_skip(off, next, record.status());
    off = next;
  }
  return size;
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

  // Rebuild the key table in segment order, so a later record of a key
  // replaces an earlier one (last write wins).
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
      // Unreadable: it serves nothing, and since its end is unknown it
      // takes no appends either.
      ++stats_.read_degradations;
      seg.closed = true;
      continue;
    }
    const MappedBlob& blob = **blob_or;

    // Forward scan. Only the last segment takes appends, so only its scan
    // stops at the first record that fails to parse: a crash mid-append
    // loses at most that tail. A closed segment is never rewritten; its
    // scan skips a bad range and resumes at the next record that parses,
    // so a corrupt byte costs at most the record that holds it. (The key
    // -> offset footer older builds appended to a full segment is walked
    // past, not counted.)
    const bool last = &seg == &segments_.back();
    const uint64_t off = ScanRecords(
        blob.data(), blob.size(), /*resync=*/!last,
        [&](uint64_t at, const Record& record) {
          PublishKey(std::string(record.key), seg, at, record.end - at);
        },
        [&](uint64_t from, uint64_t to, const Status&) {
          ++stats_.skipped_ranges;
          stats_.skipped_bytes += to - from;
        });
    seg.bytes = off;
    if (off < blob.size()) {
      // Physically drop the tail: appends write at the file end, so the
      // end must BE the committed boundary the key table records. If the
      // truncate fails, close the segment instead: its recovered records
      // still serve (their offsets precede the tail), but new appends go
      // to a fresh segment rather than landing after garbage.
      std::error_code trunc_ec;
      fs::resize_file(seg.path, off, trunc_ec);
      if (trunc_ec) seg.closed = true;
    }
    if (seg.bytes > options_.plan_segment_bytes) seg.closed = true;
  }
  // Appends only ever go to the last segment.
  for (size_t s = 0; s + 1 < segments_.size(); ++s) segments_[s].closed = true;
  return Status::Ok();
}

WarmStore::Segment* WarmStore::FindSegment(uint64_t number) {
  for (Segment& seg : segments_) {
    if (seg.number == number) return &seg;
  }
  return nullptr;
}

void WarmStore::PublishKey(std::string key, Segment& seg, uint64_t offset,
                           uint64_t bytes) {
  auto [it, inserted] = plans_.try_emplace(std::move(key));
  if (!inserted) {
    if (Segment* prev = FindSegment(it->second.segment_number)) {
      --prev->live_keys;
    }
  }
  it->second = PlanLocation{seg.number, offset, bytes};
  ++seg.live_keys;
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
  const Segment* seg =
      it == plans_.end() ? nullptr : FindSegment(it->second.segment_number);
  if (seg == nullptr) {
    ++stats_.plan_misses;
    return false;
  }
  const PlanLocation& loc = it->second;
  // Injection site "plan.load". Transient faults retry through the
  // policy; any persistent failure — injected, unreadable stream, or a
  // record that fails validation — degrades to a miss (the pipeline
  // re-solves), never to served corruption.
  auto attempt = [&]() -> Status {
    if (fault::FaultDecision f = fault::Hit("plan.load"); f.fire) {
      return f.ToStatus("plan.load(" + seg->path + ")");
    }
    std::ifstream f(seg->path, std::ios::binary);
    std::string bytes(loc.bytes, '\0');
    if (!f.seekg(static_cast<std::streamoff>(loc.offset)) ||
        !f.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
      return Status::IoError("unreadable plan record in " + seg->path);
    }
    Result<Record> record = ParseRecord(
        reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size(), 0);
    // Never serve bytes that fail validation.
    if (!record.ok() || record->end != bytes.size() || record->key != key) {
      return Status::IoError("corrupt plan record in " + seg->path);
    }
    payload->assign(record->payload);
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
  if (segments_.empty() || segments_.back().closed) {
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
  PublishKey(key, seg, seg.bytes, record_size);
  seg.bytes += record_size;
  if (seg.bytes > options_.plan_segment_bytes) seg.closed = true;
  EnforceCapacity();
  return Status::Ok();
}

bool WarmStore::RemoveEntry(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) return false;
  ++stats_.evicted_files;
  auto seg = std::find_if(segments_.begin(), segments_.end(),
                          [&](const Segment& s) { return s.path == path; });
  if (seg != segments_.end()) {
    std::erase_if(plans_, [&](const auto& entry) {
      return entry.second.segment_number == seg->number;
    });
    segments_.erase(seg);
  }
  return true;
}

void WarmStore::EnforceCapacity() {
  if (options_.capacity_bytes == 0) return;
  struct Candidate {
    std::string path;
    double age = 0;
  };
  for (;;) {
    std::vector<Candidate> candidates;
    uint64_t total = 0;
    std::error_code ec;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(fs::path(dir_) / "index", ec)) {
      total += FileBytes(entry.path());
      candidates.push_back(
          {entry.path().string(), FileAgeSeconds(entry.path())});
    }
    for (const Segment& seg : segments_) {
      total += FileBytes(seg.path);
      if (!seg.closed) continue;  // the active segment is exempt
      candidates.push_back({seg.path, FileAgeSeconds(seg.path)});
    }
    if (total <= options_.capacity_bytes || candidates.empty()) return;
    // Oldest mtime goes first: reads bump mtimes, so this is LRU at file
    // granularity.
    auto victim = std::max_element(
        candidates.begin(), candidates.end(),
        [](const Candidate& a, const Candidate& b) { return a.age < b.age; });
    // A file that cannot be removed stops the loop rather than spinning.
    if (!RemoveEntry(victim->path)) return;
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
    e.closed = seg.closed;
    entries.push_back(std::move(e));
  }
  return entries;
}

Status WarmStore::VerifyAll(std::vector<std::string>* problems) {
  std::lock_guard<std::mutex> lock(mu_);
  // Reads retry transient failures like every other store read, so a
  // problem line is the bytes' fault, not a flaky read's.
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir_) / "index", ec)) {
    const std::string path = entry.path().string();
    Status status = RetryTransient(
        options_.retry, RetrySeed(path),
        [&] { return motif::IndexSnapshotCodec::Verify(path); },
        &stats_.io_retries);
    if (!status.ok()) problems->push_back(status.ToString());
  }
  for (const Segment& seg : segments_) {
    Result<std::shared_ptr<const MappedBlob>> blob_or =
        Status::Internal("unset");
    Status opened = RetryTransient(
        options_.retry, RetrySeed(seg.path),
        [&] {
          blob_or = MappedBlob::Open(seg.path);
          return blob_or.status();
        },
        &stats_.io_retries);
    if (!opened.ok()) {
      problems->push_back(opened.ToString());
      continue;
    }
    const MappedBlob& blob = **blob_or;
    // The same scan recovery ran, reporting each range it skipped.
    const uint64_t end = ScanRecords(
        blob.data(), std::min<uint64_t>(seg.bytes, blob.size()),
        /*resync=*/true, [](uint64_t, const Record&) {},
        [&](uint64_t from, uint64_t to, const Status& status) {
          problems->push_back(StrFormat(
              "%s: %s at offset %llu, %llu bytes skipped", seg.path.c_str(),
              status.message().c_str(), static_cast<unsigned long long>(from),
              static_cast<unsigned long long>(to - from)));
        });
    if (end < seg.bytes) {
      problems->push_back(StrFormat(
          "%s: %llu committed bytes past end of file", seg.path.c_str(),
          static_cast<unsigned long long>(seg.bytes - end)));
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
  if (!RemoveEntry(path.string())) {
    return Status::IoError("cannot remove " + path.string());
  }
  return Status::Ok();
}

Result<size_t> WarmStore::EvictOlderThan(double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> victims;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir_) / "index", ec)) {
    if (FileAgeSeconds(entry.path()) > seconds) {
      victims.push_back(entry.path().string());
    }
  }
  for (const Segment& seg : segments_) {
    // The active segment is exempt.
    if (seg.closed && FileAgeSeconds(seg.path) > seconds) {
      victims.push_back(seg.path);
    }
  }
  size_t removed = 0;
  for (const std::string& path : victims) removed += RemoveEntry(path);
  return removed;
}

Result<size_t> WarmStore::EvictStale(uint64_t live_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> victims;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir_) / "index", ec)) {
    Result<motif::IndexSnapshotCodec::FileInfo> info =
        motif::IndexSnapshotCodec::Inspect(entry.path().string());
    // Inspect already rejects bad magic, foreign format versions, and
    // header corruption — all states no live caller can load.
    if (!info.ok() || info->meta.graph_fingerprint != live_fingerprint) {
      victims.push_back(entry.path().string());
    }
  }
  for (const Segment& seg : segments_) {
    if (!seg.closed) continue;  // the active segment is exempt
    bool live = false;
    for (const auto& [key, loc] : plans_) {
      if (loc.segment_number != seg.number) continue;
      // A key not in the canonical shape is conservatively live.
      const std::optional<uint64_t> fingerprint = KeyFingerprint(key);
      if (!fingerprint || *fingerprint == live_fingerprint) {
        live = true;
        break;
      }
    }
    if (!live) victims.push_back(seg.path);
  }
  size_t removed = 0;
  for (const std::string& path : victims) removed += RemoveEntry(path);
  return removed;
}

WarmStore::Stats WarmStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace tpp::service::store
