// Tests for the disk-backed warm-start store (service/store/warm_store.h):
// snapshot round-trips, every corruption class falling back to a cold
// build (no crash, no wrong plan), plan-log persistence across reopen,
// segment rollover and torn-tail recovery, LRU eviction, and the
// failure-memoization semantics of the two-tier PlanCache.

#include "service/store/warm_store.h"

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/blob_io.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/problem.h"
#include "graph/datasets.h"
#include "graph/fingerprint.h"
#include "gtest/gtest.h"
#include "motif/incidence_index.h"
#include "reference/run_one_cold.h"
#include "service/instance_repository.h"
#include "service/plan_cache.h"
#include "service/plan_service.h"
#include "service/store/plan_codec.h"
#include "test_util.h"

namespace tpp::service::store {
namespace {

using ::tpp::testing::BuildFreshIndex;
namespace fs = std::filesystem;

using core::TppInstance;
using graph::Graph;
using motif::IncidenceIndex;
using motif::IndexSnapshotCodec;
using motif::IndexSnapshotMeta;
using motif::MotifKind;

std::string TempStoreDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/tpp_store_test_" + name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  return dir;
}

const Graph& ArenasBase() {
  static const Graph g = *graph::MakeArenasEmailLike(1);
  return g;
}

TppInstance MakeArenasInstance(MotifKind kind, size_t num_targets = 20) {
  Rng rng(7);
  auto targets = *core::SampleTargets(ArenasBase(), num_targets, rng);
  return *core::MakeInstance(ArenasBase(), targets, kind);
}

IndexSnapshotMeta MetaFor(const TppInstance& inst) {
  IndexSnapshotMeta meta;
  meta.graph_fingerprint = graph::Fingerprint(inst.released);
  meta.target_hash = graph::TargetSetHash(inst.targets);
  meta.motif = inst.motif;
  meta.num_targets = static_cast<uint32_t>(inst.targets.size());
  return meta;
}

std::unique_ptr<WarmStore> OpenStore(const std::string& dir,
                                     StoreOptions options = {}) {
  Result<std::unique_ptr<WarmStore>> store = WarmStore::Open(dir, options);
  EXPECT_TRUE(store.ok()) << store.status();
  return std::move(*store);
}

// The single snapshot file under <dir>/index (tests write exactly one).
std::string OnlySnapshotPath(const std::string& dir) {
  for (const fs::directory_entry& entry :
       fs::directory_iterator(fs::path(dir) / "index")) {
    return entry.path().string();
  }
  ADD_FAILURE() << "no snapshot file in " << dir;
  return "";
}

TEST(IndexSnapshotTest, RoundTripIsBitIdentical) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  const IndexSnapshotMeta meta = MetaFor(inst);
  IncidenceIndex built =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);

  std::unique_ptr<WarmStore> store = OpenStore(TempStoreDir("roundtrip"));
  ASSERT_TRUE(store->SaveIndex(built, meta).ok());
  Result<IncidenceIndex> loaded = store->LoadIndex(meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->BitIdentical(built));
  EXPECT_EQ(store->stats().index_hits, 1u);

  // The adopted index is fully live: deletions and gain queries behave
  // exactly like the built one's.
  IncidenceIndex mutated = std::move(*loaded);
  const auto edges = mutated.AliveCandidateEdges();
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(mutated.Gain(edges[0]), built.Gain(edges[0]));
  mutated.DeleteEdge(edges[0]);
  IncidenceIndex built_copy = built;
  built_copy.DeleteEdge(edges[0]);
  EXPECT_TRUE(mutated.BitIdentical(built_copy));
}

TEST(IndexSnapshotTest, MissingSnapshotIsNotFound) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  std::unique_ptr<WarmStore> store = OpenStore(TempStoreDir("missing"));
  Result<IncidenceIndex> loaded = store->LoadIndex(MetaFor(inst));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store->stats().index_misses, 1u);
}

// One snapshot corruption scenario: mutate the file, then check that (a)
// the direct load fails cleanly and (b) the repository still serves a
// correct engine by falling back to the cold build.
void ExpectCorruptionFallsBack(const std::string& dir_name,
                               void (*corrupt)(const std::string& path)) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  const IndexSnapshotMeta meta = MetaFor(inst);
  IncidenceIndex built =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  const std::string dir = TempStoreDir(dir_name);
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    ASSERT_TRUE(store->SaveIndex(built, meta).ok());
  }
  corrupt(OnlySnapshotPath(dir));

  std::unique_ptr<WarmStore> store = OpenStore(dir);
  Result<IncidenceIndex> loaded = store->LoadIndex(meta);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().code(), StatusCode::kNotFound)
      << "corruption must be a reject, not a silent miss";
  EXPECT_EQ(store->stats().index_rejects, 1u);

  // The serving path: a corrupt snapshot is a warning plus a cold build,
  // never an error or a wrong index.
  InstanceRepository repository(&ArenasBase());
  repository.set_store(store.get(), meta.graph_fingerprint);
  const size_t group = repository.Intern(inst.targets, inst.motif);
  Result<core::IndexedEngine> engine = repository.AcquireEngine(group);
  ASSERT_TRUE(engine.ok()) << engine.status();
  EXPECT_TRUE(engine->index().BitIdentical(built));
  EXPECT_EQ(store->stats().index_hits, 0u);
  // The cold build re-wrote a good snapshot over the corrupt one.
  EXPECT_EQ(store->stats().index_writes, 1u);
  Result<IncidenceIndex> healed = store->LoadIndex(meta);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_TRUE(healed->BitIdentical(built));
}

TEST(IndexSnapshotCorruptionTest, TruncatedFile) {
  ExpectCorruptionFallsBack("truncated", +[](const std::string& path) {
    fs::resize_file(path, fs::file_size(path) / 2);
  });
}

TEST(IndexSnapshotCorruptionTest, BadMagic) {
  ExpectCorruptionFallsBack("badmagic", +[](const std::string& path) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(0);
    f.write("XXXXXXXX", 8);
  });
}

TEST(IndexSnapshotCorruptionTest, FutureFormatVersion) {
  ExpectCorruptionFallsBack("version", +[](const std::string& path) {
    // Bump the version and re-seal the header checksum so the version
    // check itself (not the checksum) is what rejects the file — this is
    // exactly what a snapshot from a newer build looks like.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    std::string header(112, '\0');
    f.read(header.data(), 112);
    uint32_t version = 0;
    std::memcpy(&version, header.data() + 8, 4);
    ++version;
    std::memcpy(header.data() + 8, &version, 4);
    const uint64_t checksum = HashBytes64(header.data(), 104);
    std::memcpy(header.data() + 104, &checksum, 8);
    f.seekp(0);
    f.write(header.data(), 112);
  });
}

TEST(IndexSnapshotCorruptionTest, FlippedPayloadByte) {
  ExpectCorruptionFallsBack("payload", +[](const std::string& path) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(-1, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    f.seekp(-1, std::ios::end);
    f.write(&byte, 1);
  });
}

TEST(IndexSnapshotCorruptionTest, FingerprintMismatchRejects) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  IndexSnapshotMeta meta = MetaFor(inst);
  IncidenceIndex built =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  const std::string dir = TempStoreDir("fingerprint");
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  ASSERT_TRUE(store->SaveIndex(built, meta).ok());
  // A snapshot of a DIFFERENT base graph at this key's path (the
  // file-swap / fingerprint-collision case): the embedded fingerprint
  // must reject it even though checksums pass.
  IndexSnapshotMeta wrong = meta;
  wrong.graph_fingerprint ^= 1;
  Result<IncidenceIndex> loaded =
      IndexSnapshotCodec::Load(OnlySnapshotPath(dir), wrong);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().code(), StatusCode::kNotFound);

  wrong = meta;
  wrong.target_hash ^= 1;
  loaded = IndexSnapshotCodec::Load(OnlySnapshotPath(dir), wrong);
  EXPECT_FALSE(loaded.ok());

  wrong = meta;
  wrong.motif = MotifKind::kRectangle;
  loaded = IndexSnapshotCodec::Load(OnlySnapshotPath(dir), wrong);
  EXPECT_FALSE(loaded.ok());
}

TEST(WarmStoreRepositoryTest, ColdBuildWritesBackAndSecondRunAdopts) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kRectangle);
  const IndexSnapshotMeta meta = MetaFor(inst);
  const std::string dir = TempStoreDir("writeback");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    InstanceRepository repository(&ArenasBase());
    repository.set_store(store.get(), meta.graph_fingerprint);
    const size_t group = repository.Intern(inst.targets, inst.motif);
    ASSERT_TRUE(repository.AcquireEngine(group).ok());
    EXPECT_EQ(store->stats().index_hits, 0u);
    EXPECT_EQ(store->stats().index_writes, 1u);
  }
  // "Restart": a fresh store handle and repository adopt the snapshot.
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  InstanceRepository repository(&ArenasBase());
  repository.set_store(store.get(), meta.graph_fingerprint);
  const size_t group = repository.Intern(inst.targets, inst.motif);
  Result<core::IndexedEngine> engine = repository.AcquireEngine(group);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(store->stats().index_hits, 1u);
  EXPECT_EQ(store->stats().index_writes, 0u);
  IncidenceIndex built =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  EXPECT_TRUE(engine->index().BitIdentical(built));
}

TEST(PlanLogTest, RecordsPersistAcrossReopen) {
  const std::string dir = TempStoreDir("plans");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    ASSERT_TRUE(store->AppendPlan("key-a", "payload-a").ok());
    ASSERT_TRUE(store->AppendPlan("key-b", "payload-b").ok());
    // Last write wins within a segment.
    ASSERT_TRUE(store->AppendPlan("key-a", "payload-a2").ok());
    std::string payload;
    ASSERT_TRUE(store->LoadPlan("key-a", &payload));
    EXPECT_EQ(payload, "payload-a2");
  }
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  std::string payload;
  ASSERT_TRUE(store->LoadPlan("key-a", &payload));
  EXPECT_EQ(payload, "payload-a2");
  ASSERT_TRUE(store->LoadPlan("key-b", &payload));
  EXPECT_EQ(payload, "payload-b");
  EXPECT_FALSE(store->LoadPlan("key-c", &payload));
  EXPECT_EQ(store->stats().plan_hits, 2u);
  EXPECT_EQ(store->stats().plan_misses, 1u);
}

TEST(PlanLogTest, TornTailIsDroppedNotFatal) {
  const std::string dir = TempStoreDir("torn");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    ASSERT_TRUE(store->AppendPlan("intact", "payload").ok());
  }
  {
    // Simulate a crash mid-append: garbage after the last valid record.
    std::ofstream f((fs::path(dir) / "plans" / "seg-000001.log").string(),
                    std::ios::binary | std::ios::app);
    f.write("partial-record-garbage", 22);
  }
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  std::string payload;
  ASSERT_TRUE(store->LoadPlan("intact", &payload));
  EXPECT_EQ(payload, "payload");
  // New appends land after the recovered prefix and survive the next
  // reopen (the torn tail is logically truncated, then overwritten).
  ASSERT_TRUE(store->AppendPlan("after-crash", "payload2").ok());
}

// The plan-log segments of `store`, in segment order.
std::vector<StoreEntry> PlanSegments(WarmStore& store) {
  Result<std::vector<StoreEntry>> entries = store.Scan();
  EXPECT_TRUE(entries.ok());
  std::vector<StoreEntry> segments;
  for (const StoreEntry& e : *entries) {
    if (e.kind == StoreEntry::Kind::kPlanSegment) segments.push_back(e);
  }
  return segments;
}

TEST(PlanLogTest, SegmentsCloseAtTheSizeLimitAndRecoverByScan) {
  const std::string dir = TempStoreDir("rollover");
  StoreOptions options;
  options.plan_segment_bytes = 128;  // a few records per segment
  std::vector<StoreEntry> before;
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir, options);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store
                      ->AppendPlan("key-" + std::to_string(i),
                                   "payload-" + std::to_string(i))
                      .ok());
    }
    // A later segment's record of key-0 replaces the first one.
    ASSERT_TRUE(store->AppendPlan("key-0", "payload-0-again").ok());
    before = PlanSegments(*store);
  }
  ASSERT_GT(before.size(), 2u);
  for (size_t s = 0; s + 1 < before.size(); ++s) {
    EXPECT_TRUE(before[s].closed) << before[s].name;
    EXPECT_GT(before[s].bytes, options.plan_segment_bytes);
  }
  EXPECT_FALSE(before.back().closed);
  EXPECT_EQ(before.front().plan_records, 3u);  // key-0 moved on

  // A reopen serves every key by scan and lists the same segments.
  std::unique_ptr<WarmStore> store = OpenStore(dir, options);
  std::string payload;
  ASSERT_TRUE(store->LoadPlan("key-0", &payload));
  EXPECT_EQ(payload, "payload-0-again");
  for (int i = 1; i < 10; ++i) {
    ASSERT_TRUE(store->LoadPlan("key-" + std::to_string(i), &payload)) << i;
    EXPECT_EQ(payload, "payload-" + std::to_string(i));
  }
  const std::vector<StoreEntry> after = PlanSegments(*store);
  ASSERT_EQ(after.size(), before.size());
  for (size_t s = 0; s < after.size(); ++s) {
    EXPECT_EQ(after[s].name, before[s].name);
    EXPECT_EQ(after[s].bytes, before[s].bytes);
    EXPECT_EQ(after[s].plan_records, before[s].plan_records);
    EXPECT_EQ(after[s].closed, before[s].closed);
  }
  std::vector<std::string> problems;
  ASSERT_TRUE(store->VerifyAll(&problems).ok());
  EXPECT_TRUE(problems.empty());
  // The open last segment still takes appends.
  ASSERT_TRUE(store->AppendPlan("key-10", "payload-10").ok());
  EXPECT_EQ(PlanSegments(*store).size(), before.size());
}

TEST(PlanLogTest, RewrittenKeyCountsOnceAcrossReopen) {
  const std::string dir = TempStoreDir("livekeys");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    ASSERT_TRUE(store->AppendPlan("k1", "payload-one").ok());
    ASSERT_TRUE(store->AppendPlan("k1", "payload-one-again").ok());
    ASSERT_TRUE(store->AppendPlan("k2", "payload-two").ok());
    const std::vector<StoreEntry> segments = PlanSegments(*store);
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].plan_records, 2u);
  }
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  const std::vector<StoreEntry> segments = PlanSegments(*store);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].plan_records, 2u);
}

// A segment as older builds closed it, byte for byte: the records of
// `appends`, then a key -> offset footer of the live keys and a 32-byte
// trailer naming it. `records_bytes` receives the records' size.
std::string LegacyClosedSegment(
    const std::vector<std::pair<std::string, std::string>>& appends,
    uint64_t* records_bytes) {
  std::string records;
  std::vector<std::pair<std::string, uint64_t>> live;  // key, offset
  auto append = [&](const void* bytes, size_t size, std::string* out) {
    out->append(static_cast<const char*>(bytes), size);
  };
  for (const auto& [key, payload] : appends) {
    const uint32_t magic = 0x4C505054u;  // "TPPL"
    const uint32_t key_size = static_cast<uint32_t>(key.size());
    const uint64_t payload_size = payload.size();
    const uint64_t checksum =
        SplitMix64(HashBytes64(key.data(), key.size()) ^
                   HashBytes64(payload.data(), payload.size()));
    std::erase_if(live, [&](const auto& e) { return e.first == key; });
    live.emplace_back(key, records.size());
    append(&magic, 4, &records);
    append(&key_size, 4, &records);
    append(&payload_size, 8, &records);
    append(&checksum, 8, &records);
    records += key + payload;
  }
  std::string footer;
  for (const auto& [key, offset] : live) {
    const uint32_t key_size = static_cast<uint32_t>(key.size());
    append(&key_size, 4, &footer);
    append(&offset, 8, &footer);
    footer += key;
  }
  const uint64_t footer_offset = records.size();
  const uint64_t entry_count = live.size();
  const uint64_t footer_checksum = HashBytes64(footer.data(), footer.size());
  const uint32_t footer_magic = 0x46505054u;  // "TPPF"
  const uint32_t padding = 0;
  std::string segment = records + footer;
  append(&footer_offset, 8, &segment);
  append(&entry_count, 8, &segment);
  append(&footer_checksum, 8, &segment);
  append(&footer_magic, 4, &segment);
  append(&padding, 4, &segment);
  EXPECT_EQ(segment.size(), records.size() + footer.size() + 32);
  *records_bytes = records.size();
  return segment;
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  fs::create_directories(path.parent_path());
  std::ofstream f(path.string(), std::ios::binary);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

const std::vector<std::pair<std::string, std::string>> kLegacyAppends = {
    {"k1", std::string(40, 'a')},
    {"k2", std::string(40, 'b')},
    {"k1", std::string(40, 'c')},
    {"k3", std::string(40, 'd')},
};

// A legacy segment as the LAST segment recovers every key by scan (the
// footer reads as a torn tail and is truncated away), verifies clean, and
// takes no more appends.
TEST(PlanLogTest, SegmentWithAnIndexFooterRecoversByScan) {
  uint64_t records_bytes = 0;
  const std::string segment = LegacyClosedSegment(kLegacyAppends,
                                                  &records_bytes);
  StoreOptions options;
  options.plan_segment_bytes = 200;  // the records end past it: closed
  ASSERT_GT(records_bytes, options.plan_segment_bytes);
  const std::string dir = TempStoreDir("footer");
  const fs::path first = fs::path(dir) / "plans" / "seg-000001.log";
  WriteFile(first, segment);

  std::unique_ptr<WarmStore> store = OpenStore(dir, options);
  std::string payload;
  for (const auto& [key, expected] :
       std::vector<std::pair<std::string, std::string>>{
           {"k1", std::string(40, 'c')},
           {"k2", std::string(40, 'b')},
           {"k3", std::string(40, 'd')}}) {
    ASSERT_TRUE(store->LoadPlan(key, &payload)) << key;
    EXPECT_EQ(payload, expected);
  }
  EXPECT_EQ(fs::file_size(first), records_bytes);
  std::vector<std::string> problems;
  ASSERT_TRUE(store->VerifyAll(&problems).ok());
  EXPECT_TRUE(problems.empty());
  std::vector<StoreEntry> segments = PlanSegments(*store);
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].plan_records, 3u);
  EXPECT_TRUE(segments[0].closed);

  ASSERT_TRUE(store->AppendPlan("k4", "payload-four").ok());
  EXPECT_EQ(fs::file_size(first), records_bytes);
  EXPECT_TRUE(fs::exists(fs::path(dir) / "plans" / "seg-000002.log"));
  store = OpenStore(dir, options);
  ASSERT_TRUE(store->LoadPlan("k4", &payload));
  EXPECT_EQ(payload, "payload-four");
  ASSERT_TRUE(store->LoadPlan("k1", &payload));
  EXPECT_EQ(payload, std::string(40, 'c'));
}

// A legacy segment before the last one is a closed segment: its footer is
// no damage, so every open serves its keys without a skipped range or a
// degradation, and verify reports nothing.
TEST(PlanLogTest, IndexFooterInAnEarlierSegmentIsNoDamage) {
  uint64_t records_bytes = 0;
  const std::string segment = LegacyClosedSegment(kLegacyAppends,
                                                  &records_bytes);
  const std::string dir = TempStoreDir("footer-closed");
  const fs::path first = fs::path(dir) / "plans" / "seg-000001.log";
  WriteFile(first, segment);
  {
    // The second segment, written by this build in a store of its own (an
    // open of `dir` now would truncate the footer of its last segment).
    const std::string other = TempStoreDir("footer-second");
    ASSERT_TRUE(OpenStore(other)->AppendPlan("k4", "payload-four").ok());
    fs::copy_file(fs::path(other) / "plans" / "seg-000001.log",
                  fs::path(dir) / "plans" / "seg-000002.log");
  }
  for (int open = 0; open < 2; ++open) {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    EXPECT_EQ(store->stats().skipped_ranges, 0u);
    EXPECT_EQ(store->stats().skipped_bytes, 0u);
    EXPECT_EQ(store->stats().degradations(), 0u);
    std::string payload;
    for (const auto& [key, expected] :
         std::vector<std::pair<std::string, std::string>>{
             {"k1", std::string(40, 'c')},
             {"k2", std::string(40, 'b')},
             {"k3", std::string(40, 'd')},
             {"k4", "payload-four"}}) {
      ASSERT_TRUE(store->LoadPlan(key, &payload)) << key;
      EXPECT_EQ(payload, expected);
    }
    std::vector<std::string> problems;
    ASSERT_TRUE(store->VerifyAll(&problems).ok());
    EXPECT_TRUE(problems.empty()) << problems.front();
    EXPECT_EQ(fs::file_size(first), segment.size());  // never rewritten
  }
}

TEST(PlanLogTest, CorruptRecordIsAMissAndVerifyReportsIt) {
  const std::string dir = TempStoreDir("flip");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    ASSERT_TRUE(store->AppendPlan("key", "payload-payload-payload").ok());
  }
  const std::string seg =
      (fs::path(dir) / "plans" / "seg-000001.log").string();
  {
    std::fstream f(seg, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-2, std::ios::end);  // inside the payload bytes
    f.write("!", 1);
  }
  // Reopen: the forward scan drops the record whose checksum now fails.
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  std::string payload;
  EXPECT_FALSE(store->LoadPlan("key", &payload));
}

// A closed segment is never rewritten at recovery: with any one byte of a
// closed three-record segment flipped, a reopen loses exactly the record
// that holds the byte, serves the other two and the later segment, counts
// one skipped range of that record's bytes, leaves the file as it found it,
// and verify reports the range at the record's offset.
TEST(PlanLogTest, FlippedByteInAClosedSegmentLosesOnlyItsRecord) {
  const std::string dir = TempStoreDir("closed_flip");
  StoreOptions options;
  options.plan_segment_bytes = 150;  // the third record closes segment 1
  const std::vector<std::string> keys = {"k1", "k2", "k3"};
  auto payload_of = [](size_t r) { return std::string(30, 'a' + r); };
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir, options);
    for (size_t r = 0; r < keys.size(); ++r) {
      ASSERT_TRUE(store->AppendPlan(keys[r], payload_of(r)).ok());
    }
    ASSERT_TRUE(store->AppendPlan("k4", "in-the-open-segment").ok());
    const std::vector<StoreEntry> segments = PlanSegments(*store);
    ASSERT_EQ(segments.size(), 2u);
    ASSERT_TRUE(segments[0].closed);
    ASSERT_EQ(segments[0].plan_records, 3u);
  }
  const std::string seg =
      (fs::path(dir) / "plans" / "seg-000001.log").string();
  std::string original;
  {
    std::ifstream f(seg, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(f), {});
  }
  const uint64_t record_bytes = 24 + 2 + 30;  // header, key, payload
  ASSERT_EQ(original.size(), 3 * record_bytes);
  for (size_t b = 0; b < original.size(); ++b) {
    SCOPED_TRACE("byte " + std::to_string(b));
    std::string flipped = original;
    flipped[b] = static_cast<char>(flipped[b] ^ 0x5A);
    {
      std::ofstream f(seg, std::ios::binary | std::ios::trunc);
      f.write(flipped.data(), static_cast<std::streamsize>(flipped.size()));
    }
    const size_t lost = b / record_bytes;
    std::unique_ptr<WarmStore> store = OpenStore(dir, options);
    std::string payload;
    for (size_t r = 0; r < keys.size(); ++r) {
      ASSERT_EQ(store->LoadPlan(keys[r], &payload), r != lost) << keys[r];
      if (r != lost) EXPECT_EQ(payload, payload_of(r));
    }
    ASSERT_TRUE(store->LoadPlan("k4", &payload));
    EXPECT_EQ(store->stats().skipped_ranges, 1u);
    EXPECT_EQ(store->stats().skipped_bytes, record_bytes);
    std::vector<std::string> problems;
    ASSERT_TRUE(store->VerifyAll(&problems).ok());
    ASSERT_EQ(problems.size(), 1u) << ::testing::PrintToString(problems);
    const std::string range = StrFormat(
        "at offset %llu, %llu bytes skipped",
        static_cast<unsigned long long>(lost * record_bytes),
        static_cast<unsigned long long>(record_bytes));
    EXPECT_NE(problems[0].find(range), std::string::npos) << problems[0];
    std::ifstream f(seg, std::ios::binary);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(f), {}), flipped);
  }
}

TEST(WarmStoreTest, CapacityEvictsOldestFirstAndSkipsOversized) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  const IndexSnapshotMeta meta = MetaFor(inst);
  IncidenceIndex built =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  Result<std::string> bytes = IndexSnapshotCodec::Serialize(built, meta);
  ASSERT_TRUE(bytes.ok());

  // Capacity below one snapshot: the save is declined outright, and a
  // declined snapshot is not a write.
  {
    StoreOptions options;
    options.capacity_bytes = bytes->size() / 2;
    std::unique_ptr<WarmStore> store =
        OpenStore(TempStoreDir("oversized"), options);
    ASSERT_TRUE(store->SaveIndex(built, meta).ok());
    EXPECT_EQ(store->stats().admission_rejects, 1u);
    EXPECT_EQ(store->stats().index_writes, 0u);
    EXPECT_EQ(store->LoadIndex(meta).status().code(), StatusCode::kNotFound);
  }

  // Capacity for one snapshot but not a snapshot plus plan segments: the
  // oldest files are evicted until the total fits.
  {
    StoreOptions options;
    options.capacity_bytes = bytes->size() + 256;
    options.plan_segment_bytes = 64;
    std::unique_ptr<WarmStore> store =
        OpenStore(TempStoreDir("evict"), options);
    ASSERT_TRUE(store->SaveIndex(built, meta).ok());
    EXPECT_EQ(store->stats().index_writes, 1u);
    ASSERT_TRUE(store->LoadIndex(meta).ok());  // bump the snapshot's LRU
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store
                      ->AppendPlan("key-" + std::to_string(i),
                                   std::string(64, 'p'))
                      .ok());
    }
    EXPECT_GT(store->stats().evicted_files, 0u);
    uint64_t total = 0;
    const Result<std::vector<StoreEntry>> entries = store->Scan();
    ASSERT_TRUE(entries.ok());
    for (const StoreEntry& e : *entries) total += e.bytes;
    // The active segment is exempt, so the total can exceed the cap by at
    // most one open segment's bytes.
    EXPECT_LE(total, options.capacity_bytes + options.plan_segment_bytes +
                         256);
  }
}

TEST(WarmStoreTest, EvictByNameAndOlderThan) {
  const std::string dir = TempStoreDir("evictcli");
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  ASSERT_TRUE(store->AppendPlan("key", "payload").ok());
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  ASSERT_TRUE(
      store
          ->SaveIndex(*BuildFreshIndex(inst.released, inst.targets, inst.motif),
                      MetaFor(inst))
          .ok());
  Result<std::vector<StoreEntry>> entries = store->Scan();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 2u);

  EXPECT_EQ(store->EvictByName("index/no-such-entry.idx").code(),
            StatusCode::kNotFound);
  std::string snapshot_name;
  for (const StoreEntry& e : *entries) {
    if (e.kind == StoreEntry::Kind::kIndexSnapshot) snapshot_name = e.name;
  }
  ASSERT_TRUE(store->EvictByName(snapshot_name).ok());
  EXPECT_EQ(store->Scan()->size(), 1u);

  // Nothing is older than an hour; everything is older than -1s, but the
  // active segment is exempt.
  EXPECT_EQ(*store->EvictOlderThan(3600), 0u);
  EXPECT_EQ(*store->EvictOlderThan(-1), 0u);
  std::string payload;
  EXPECT_TRUE(store->LoadPlan("key", &payload));
}

TEST(PlanCodecTest, ResponseRoundTrips) {
  PlanRequest request;
  request.sample = 5;
  request.seed = 3;
  request.spec.algorithm = "sgb";
  request.spec.budget = 4;
  PlanResponse response = RunOneCold(ArenasBase(), request);
  ASSERT_TRUE(response.status.ok());

  const std::string payload = EncodePlanResponse(response);
  Result<PlanResponse> decoded = DecodePlanResponse(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->targets, response.targets);
  EXPECT_EQ(decoded->plan_text, response.plan_text);
  EXPECT_EQ(decoded->result.protectors, response.result.protectors);
  EXPECT_EQ(decoded->result.initial_similarity,
            response.result.initial_similarity);
  EXPECT_EQ(decoded->result.final_similarity,
            response.result.final_similarity);
  EXPECT_EQ(decoded->result.picks.size(), response.result.picks.size());
  EXPECT_FALSE(decoded->from_cache);
  // Re-encoding the decoded response reproduces the payload byte for
  // byte — the codec is a bijection over its field set.
  EXPECT_EQ(EncodePlanResponse(*decoded), payload);
}

TEST(PlanCodecTest, MalformedPayloadsAreRejectedNotCrashes) {
  PlanRequest request;
  request.sample = 3;
  request.spec.algorithm = "sgb";
  request.spec.budget = 2;
  PlanResponse response = RunOneCold(ArenasBase(), request);
  ASSERT_TRUE(response.status.ok());
  const std::string payload = EncodePlanResponse(response);

  EXPECT_FALSE(DecodePlanResponse("").ok());
  EXPECT_FALSE(DecodePlanResponse("abc").ok());
  // Every truncation point must fail cleanly, never read past the end.
  for (size_t cut = 0; cut < payload.size();
       cut += 1 + payload.size() / 64) {
    EXPECT_FALSE(DecodePlanResponse(payload.substr(0, cut)).ok());
  }
  std::string trailing = payload + "x";
  EXPECT_FALSE(DecodePlanResponse(trailing).ok());
}

// A version-1 payload as the previous codec wrote it for a response that
// carried no released graph: the version-2 layout with the version word
// set to 1 and a zero "has released graph" byte before the trailing solve
// time.
std::string VersionOnePayload(const PlanResponse& response) {
  std::string payload = EncodePlanResponse(response);
  const uint32_t version = 1;
  std::memcpy(payload.data(), &version, sizeof version);
  payload.insert(payload.size() - sizeof(double), 1, '\0');
  return payload;
}

// The codec rejects a version-1 payload, so a store holding one under a
// live key answers a miss; the pipeline re-solves byte-identically to a
// cold run and writes the fresh record through, which a restarted cache
// then serves from disk.
TEST(PlanCacheStoreTest, VersionOneRecordIsAMissAndReSolves) {
  const std::string dir = TempStoreDir("v1record");
  PlanRequest request;
  request.sample = 4;
  request.seed = 5;
  request.spec.algorithm = "sgb";
  request.spec.budget = 3;
  PlanService plan_service(ArenasBase());
  const PlanResponse cold = RunOneCold(plan_service.base(), request);
  ASSERT_TRUE(cold.status.ok());
  const std::string key =
      CanonicalRequestKey(plan_service.fingerprint(), request);
  Result<PlanResponse> decoded = DecodePlanResponse(VersionOnePayload(cold));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().message(), "unsupported plan payload version");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    ASSERT_TRUE(store->AppendPlan(key, VersionOnePayload(cold)).ok());
  }
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    PlanCache cache(8);
    cache.set_backing_store(store.get());
    BatchStats stats;
    BatchOptions options;
    options.cache = &cache;
    options.stats = &stats;
    PlanResponse response =
        plan_service.RunBatch({&request, 1}, options).front();
    ASSERT_TRUE(response.status.ok());
    EXPECT_FALSE(response.from_cache);
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.solved, 1u);
    EXPECT_EQ(response.plan_text, cold.plan_text);
    EXPECT_EQ(cache.stats().backing_hits, 0u);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  PlanCache cache(8);
  cache.set_backing_store(store.get());
  PlanResponse out;
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(cache.stats().backing_hits, 1u);
  EXPECT_EQ(out.plan_text, cold.plan_text);
}

TEST(PlanCacheStoreTest, FailuresAreNeverPersistedOrServedAcrossRuns) {
  const std::string dir = TempStoreDir("failures");
  const std::string key = "failure-key";
  PlanResponse failed;
  failed.status = Status::InvalidArgument("transient failure");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    PlanCache cache(8);
    cache.set_backing_store(store.get());
    // The failure memoizes in memory only.
    cache.Insert(key, failed);
    PlanResponse out;
    EXPECT_TRUE(cache.Lookup(key, &out));
    EXPECT_FALSE(out.status.ok());
    std::string payload;
    EXPECT_FALSE(store->LoadPlan(key, &payload))
        << "failures must never reach the disk store";
  }
  {
    // A "restarted" cache over the same store: the failure is gone.
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    PlanCache cache(8);
    cache.set_backing_store(store.get());
    PlanResponse out;
    EXPECT_FALSE(cache.Lookup(key, &out));
  }
}

TEST(PlanCacheStoreTest, OkResponsesServeFromDiskAfterRestart) {
  const std::string dir = TempStoreDir("twotier");
  PlanRequest request;
  request.sample = 4;
  request.seed = 9;
  request.spec.algorithm = "sgb";
  request.spec.budget = 3;
  PlanService plan_service(ArenasBase());
  PlanResponse response = RunOneCold(plan_service.base(), request);
  ASSERT_TRUE(response.status.ok());
  const std::string key =
      CanonicalRequestKey(plan_service.fingerprint(), request);
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    PlanCache cache(8);
    cache.set_backing_store(store.get());
    cache.Insert(key, response);
  }
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  PlanCache cache(8);
  cache.set_backing_store(store.get());
  PlanResponse out;
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(out.plan_text, response.plan_text);
  EXPECT_EQ(cache.stats().backing_hits, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  // The disk hit refilled the memory tier: the second lookup is a pure
  // memory hit.
  ASSERT_TRUE(cache.Lookup(key, &out));
  EXPECT_EQ(cache.stats().hits, 1u);
}

// ----------------------------------------------------- fault injection
//
// Every test below arms the process-global fault registry, so each one
// disarms on teardown. These tests pin the degradation ladder: transient
// faults are absorbed by retries (invisible), persistent write failures
// degrade to "not persisted" (counted, never a failed request), and torn
// writes never surface a partial record to any reader.

class FaultInjectedStoreTest : public ::testing::Test {
 protected:
  // Disarm on both ends: the registry self-arms from TPP_FAULTS, and
  // these tests assert exact counter values, so a CI-injected profile
  // must not stack on top of the spec each test arms itself.
  void SetUp() override { fault::FaultInjector::Global().Disarm(); }
  void TearDown() override { fault::FaultInjector::Global().Disarm(); }

  static Status Arm(const std::string& spec, uint64_t seed = 1) {
    return fault::FaultInjector::Global().Arm(spec, seed);
  }
};

TEST_F(FaultInjectedStoreTest, TransientAppendIsAbsorbedByRetries) {
  std::unique_ptr<WarmStore> store = OpenStore(TempStoreDir("ft_append"));
  ASSERT_TRUE(Arm("store.append:n=1:transient").ok());
  ASSERT_TRUE(store->AppendPlan("key", "payload").ok());
  EXPECT_GE(store->stats().io_retries, 1u);
  EXPECT_EQ(store->stats().degradations(), 0u);
  std::string payload;
  ASSERT_TRUE(store->LoadPlan("key", &payload));
  EXPECT_EQ(payload, "payload");
}

TEST_F(FaultInjectedStoreTest, TransientSnapshotIoIsAbsorbedByRetries) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  const IndexSnapshotMeta meta = MetaFor(inst);
  IncidenceIndex built =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  std::unique_ptr<WarmStore> store = OpenStore(TempStoreDir("ft_snap"));
  ASSERT_TRUE(Arm("snapshot.save:n=1:transient;snapshot.load:n=1").ok());
  ASSERT_TRUE(store->SaveIndex(built, meta).ok());
  Result<IncidenceIndex> loaded = store->LoadIndex(meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(loaded->BitIdentical(built));
  EXPECT_GE(store->stats().io_retries, 2u);
  EXPECT_EQ(store->stats().degradations(), 0u);
}

TEST_F(FaultInjectedStoreTest, PermanentAppendFailureDegradesNotCrashes) {
  std::unique_ptr<WarmStore> store = OpenStore(TempStoreDir("ft_perm"));
  ASSERT_TRUE(Arm("store.append:p=1:permanent").ok());
  Status appended = store->AppendPlan("key", "payload");
  EXPECT_EQ(appended.code(), StatusCode::kIoError);
  EXPECT_EQ(store->stats().write_failures, 1u);
  EXPECT_EQ(store->stats().io_retries, 0u)
      << "permanent failures must not burn the retry budget";
  EXPECT_GT(store->stats().degradations(), 0u);
  // The store keeps serving: the failed key is simply absent, and once
  // the fault clears, writes work again.
  std::string payload;
  EXPECT_FALSE(store->LoadPlan("key", &payload));
  fault::FaultInjector::Global().Disarm();
  ASSERT_TRUE(store->AppendPlan("key", "payload").ok());
  ASSERT_TRUE(store->LoadPlan("key", &payload));
}

TEST_F(FaultInjectedStoreTest, PermanentSnapshotSaveDegradesToUnpersisted) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  const IndexSnapshotMeta meta = MetaFor(inst);
  IncidenceIndex built =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  std::unique_ptr<WarmStore> store = OpenStore(TempStoreDir("ft_permsnap"));
  ASSERT_TRUE(Arm("snapshot.save:p=1:permanent").ok());
  EXPECT_FALSE(store->SaveIndex(built, meta).ok());
  EXPECT_EQ(store->stats().write_failures, 1u);
  // Nothing half-written: the miss is clean.
  EXPECT_EQ(store->LoadIndex(meta).status().code(), StatusCode::kNotFound);
  fault::FaultInjector::Global().Disarm();
  ASSERT_TRUE(store->SaveIndex(built, meta).ok());
  EXPECT_TRUE(store->LoadIndex(meta)->BitIdentical(built));
}

TEST_F(FaultInjectedStoreTest, TransientRecoveryIsAbsorbedByRetries) {
  const std::string dir = TempStoreDir("ft_recover");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    ASSERT_TRUE(store->AppendPlan("key", "payload").ok());
  }
  ASSERT_TRUE(Arm("store.recover:n=1:transient").ok());
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  std::string payload;
  ASSERT_TRUE(store->LoadPlan("key", &payload));
  EXPECT_EQ(payload, "payload");
  EXPECT_GE(store->stats().io_retries, 1u);
  EXPECT_EQ(store->stats().degradations(), 0u);
}

TEST_F(FaultInjectedStoreTest, PersistentRecoveryFailureDegradesToEmpty) {
  const std::string dir = TempStoreDir("ft_norecover");
  {
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    ASSERT_TRUE(store->AppendPlan("key", "payload").ok());
  }
  ASSERT_TRUE(Arm("store.recover:p=1:permanent").ok());
  // The open itself must survive: the unreadable segment degrades to
  // "serves nothing", it does not fail the process start.
  std::unique_ptr<WarmStore> store = OpenStore(dir);
  std::string payload;
  EXPECT_FALSE(store->LoadPlan("key", &payload));
  EXPECT_GE(store->stats().read_degradations, 1u);
  // Its end is unknown, so the next append starts a fresh segment and
  // both records serve once the fault clears.
  fault::FaultInjector::Global().Disarm();
  ASSERT_TRUE(store->AppendPlan("key2", "payload2").ok());
  ASSERT_TRUE(store->LoadPlan("key2", &payload));
  EXPECT_EQ(payload, "payload2");
  store = OpenStore(dir);
  ASSERT_TRUE(store->LoadPlan("key", &payload));
  EXPECT_EQ(payload, "payload");
  ASSERT_TRUE(store->LoadPlan("key2", &payload));
  EXPECT_EQ(payload, "payload2");
}

TEST_F(FaultInjectedStoreTest, TornAppendTruncatesBackToCommittedBoundary) {
  StoreOptions options;
  options.retry.max_attempts = 1;  // fail fast: the tear must not linger
  const std::string dir = TempStoreDir("ft_tornappend");
  const std::string seg = (fs::path(dir) / "plans" / "seg-000001.log").string();
  std::unique_ptr<WarmStore> store = OpenStore(dir, options);
  ASSERT_TRUE(store->AppendPlan("intact", "payload-one").ok());
  const uint64_t committed = fs::file_size(seg);

  ASSERT_TRUE(Arm("store.append:torn=10:n=1").ok());
  EXPECT_EQ(store->AppendPlan("torn", "payload-two").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(store->stats().write_failures, 1u);
  EXPECT_EQ(fs::file_size(seg), committed)
      << "a failed append must truncate its own torn prefix";
  // The fault is gone; the same key appends cleanly and both records
  // survive a reopen.
  fault::FaultInjector::Global().Disarm();
  ASSERT_TRUE(store->AppendPlan("torn", "payload-two").ok());
  store = OpenStore(dir, options);
  std::string payload;
  ASSERT_TRUE(store->LoadPlan("intact", &payload));
  EXPECT_EQ(payload, "payload-one");
  ASSERT_TRUE(store->LoadPlan("torn", &payload));
  EXPECT_EQ(payload, "payload-two");
}

TEST_F(FaultInjectedStoreTest, TornAppendWithRetriesIsInvisible) {
  std::unique_ptr<WarmStore> store = OpenStore(TempStoreDir("ft_tornretry"));
  ASSERT_TRUE(Arm("store.append:torn:n=1").ok());
  ASSERT_TRUE(store->AppendPlan("key", "payload").ok());
  EXPECT_GE(store->stats().io_retries, 1u);
  EXPECT_EQ(store->stats().degradations(), 0u);
  std::string payload;
  ASSERT_TRUE(store->LoadPlan("key", &payload));
  EXPECT_EQ(payload, "payload");
}

TEST_F(FaultInjectedStoreTest, TornSnapshotWriteNeverSurfacesATear) {
  const TppInstance inst = MakeArenasInstance(MotifKind::kTriangle);
  const IndexSnapshotMeta meta = MetaFor(inst);
  IncidenceIndex built =
      *BuildFreshIndex(inst.released, inst.targets, inst.motif);
  Result<std::string> bytes = IndexSnapshotCodec::Serialize(built, meta);
  ASSERT_TRUE(bytes.ok());
  const uint64_t size = bytes->size();

  StoreOptions options;
  options.retry.max_attempts = 1;
  std::unique_ptr<WarmStore> store =
      OpenStore(TempStoreDir("ft_tornsnap"), options);
  // Sweep tear points across the file, including both edges. The atomic
  // write protocol (tmp + fsync + rename) must keep the final path
  // untouched at every single one.
  for (uint64_t k = 0; k < size; k += 1 + size / 97) {
    SCOPED_TRACE("torn at byte " + std::to_string(k));
    ASSERT_TRUE(Arm("blob.write:torn=" + std::to_string(k) + ":n=1").ok());
    EXPECT_FALSE(store->SaveIndex(built, meta).ok());
    EXPECT_EQ(store->LoadIndex(meta).status().code(), StatusCode::kNotFound)
        << "a torn snapshot write must never leave a file under the "
           "final name";
  }
  fault::FaultInjector::Global().Disarm();
  ASSERT_TRUE(store->SaveIndex(built, meta).ok());
  EXPECT_TRUE(store->LoadIndex(meta)->BitIdentical(built));
}

// The exhaustive crash-consistency sweep: a plan segment cut off at EVERY
// byte boundary — simulating a crash at any instant of any append — must
// reopen to a store that serves exactly the complete-record prefix and
// accepts new appends.
TEST(PlanLogCrashConsistencyTest, EveryTruncationBoundaryRecoversCleanly) {
  // The sweep asserts exact byte boundaries; a TPP_FAULTS profile from
  // the environment would perturb them.
  fault::FaultInjector::Global().Disarm();
  const std::string tmpl = TempStoreDir("crash_template");
  uint64_t first_end = 0, second_end = 0;
  const std::string seg_name = "seg-000001.log";
  {
    std::unique_ptr<WarmStore> store = OpenStore(tmpl);
    ASSERT_TRUE(store->AppendPlan("k1", "payload-one").ok());
    first_end = fs::file_size(fs::path(tmpl) / "plans" / seg_name);
    ASSERT_TRUE(store->AppendPlan("k2", "payload-two").ok());
    second_end = fs::file_size(fs::path(tmpl) / "plans" / seg_name);
  }
  std::string full(second_end, '\0');
  {
    std::ifstream f((fs::path(tmpl) / "plans" / seg_name).string(),
                    std::ios::binary);
    f.read(full.data(), static_cast<std::streamsize>(second_end));
    ASSERT_TRUE(f.good());
  }

  const std::string scratch = TempStoreDir("crash_scratch");
  for (uint64_t cut = 0; cut <= second_end; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    std::error_code ec;
    fs::remove_all(scratch, ec);
    fs::create_directories(fs::path(scratch) / "plans");
    {
      std::ofstream f((fs::path(scratch) / "plans" / seg_name).string(),
                      std::ios::binary);
      f.write(full.data(), static_cast<std::streamsize>(cut));
    }
    std::unique_ptr<WarmStore> store = OpenStore(scratch);
    std::string payload;
    ASSERT_EQ(store->LoadPlan("k1", &payload), cut >= first_end);
    if (cut >= first_end) EXPECT_EQ(payload, "payload-one");
    ASSERT_EQ(store->LoadPlan("k2", &payload), cut >= second_end);
    if (cut >= second_end) EXPECT_EQ(payload, "payload-two");
    // Recovery leaves a store that keeps working: a new append lands
    // after the recovered prefix and survives the next reopen.
    ASSERT_TRUE(store->AppendPlan("k3", "payload-three").ok());
    store = OpenStore(scratch);
    ASSERT_TRUE(store->LoadPlan("k3", &payload));
    EXPECT_EQ(payload, "payload-three");
    ASSERT_EQ(store->LoadPlan("k1", &payload), cut >= first_end);
  }
}

// ------------------------------------------------ service-level ladder

// The top acceptance bar: with EVERY store I/O site failing permanently,
// a batch over an attached store and disk-backed cache must complete
// every request byte-identical to a storeless baseline — the whole store
// degrades away, it never takes a request down with it.
TEST(FaultToleranceServiceTest, TotalStoreFailureDegradesToBaseline) {
  const std::string text =
      "name=a algorithm=sgb sample=8 seed=5 budget=4\n"
      "name=b algorithm=rdt sample=6 seed=6 budget=3 motif=Rectangle\n"
      "name=c algorithm=wt-dbd sample=5 seed=7 budget=4\n";
  Result<std::vector<PlanScriptStep>> script = ParsePlanScript(text);
  ASSERT_TRUE(script.ok());
  const std::vector<PlanRequest>& requests = script->front().requests;
  PlanService plan_service(ArenasBase());
  const std::vector<PlanResponse> reference =
      plan_service.RunBatch(requests, BatchOptions{});

  ASSERT_TRUE(fault::FaultInjector::Global().Arm("*:p=1:permanent", 1).ok());
  std::unique_ptr<WarmStore> store = OpenStore(TempStoreDir("ft_total"));
  PlanCache cache(16);
  cache.set_backing_store(store.get());
  BatchOptions options;
  options.cache = &cache;
  options.store = store.get();
  const std::vector<PlanResponse> degraded =
      plan_service.RunBatch(requests, options);
  fault::FaultInjector::Global().Disarm();

  ASSERT_EQ(degraded.size(), reference.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    ASSERT_TRUE(degraded[i].status.ok()) << degraded[i].status.ToString();
    EXPECT_EQ(degraded[i].plan_text, reference[i].plan_text);
    EXPECT_EQ(degraded[i].result.protectors, reference[i].result.protectors);
    EXPECT_EQ(degraded[i].result.final_similarity,
              reference[i].result.final_similarity);
  }
  // The shortfall is visible, not silent.
  EXPECT_GT(store->stats().write_failures, 0u);
  EXPECT_GT(store->stats().degradations(), 0u);
  EXPECT_GT(cache.stats().backing_write_failures, 0u);
}

// The quieter acceptance bar: a low-rate transient profile is absorbed
// entirely by the retry schedule — bit-identical responses AND zero
// degradations (the store stays fully persistent).
TEST(FaultToleranceServiceTest, TransientFaultProfileIsInvisible) {
  const std::string text =
      "name=a algorithm=sgb sample=8 seed=5 budget=4\n"
      "name=b algorithm=rdt sample=6 seed=6 budget=3 motif=Rectangle\n"
      "name=c algorithm=wt-dbd sample=5 seed=7 budget=4\n";
  Result<std::vector<PlanScriptStep>> script = ParsePlanScript(text);
  ASSERT_TRUE(script.ok());
  const std::vector<PlanRequest>& requests = script->front().requests;
  PlanService plan_service(ArenasBase());
  const std::vector<PlanResponse> reference =
      plan_service.RunBatch(requests, BatchOptions{});

  ASSERT_TRUE(fault::FaultInjector::Global()
                  .Arm("*:p=0.05:transient", 20260809)
                  .ok());
  const std::string dir = TempStoreDir("ft_transient");
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE("pass " + std::to_string(pass));
    std::unique_ptr<WarmStore> store = OpenStore(dir);
    PlanCache cache(16);
    cache.set_backing_store(store.get());
    BatchOptions options;
    options.max_workers = 1;  // keep the injected call sequence stable
    options.cache = &cache;
    options.store = store.get();
    const std::vector<PlanResponse> run =
        plan_service.RunBatch(requests, options);
    ASSERT_EQ(run.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(run[i].status.ok()) << run[i].status.ToString();
      EXPECT_EQ(run[i].plan_text, reference[i].plan_text);
    }
    EXPECT_EQ(store->stats().degradations(), 0u);
    EXPECT_EQ(cache.stats().backing_write_failures, 0u);
  }
  fault::FaultInjector::Global().Disarm();
}

}  // namespace
}  // namespace tpp::service::store
