// The durable backend (src/storage/disk/) against its contracts: the
// StableLog/CheckpointStore semantics it must reproduce, the on-disk formats,
// recovery across reopen (the unit-level stand-in for kill -9), and the
// backend-equivalence property — a randomized op sequence driven into a
// DiskEnv GroupStore and an in-memory GroupStore must recover identical
// durable views from any crash point.  (Real SIGKILL mid-flush is covered by
// tests/crash_restart_test.cc.)
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/disk/crc32c.h"
#include "storage/disk/disk_checkpoint.h"
#include "storage/disk/disk_env.h"
#include "storage/disk/disk_format.h"
#include "storage/disk/disk_io.h"
#include "storage/disk/shared_log.h"
#include "storage/group_store.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace corona {
namespace {

using disk::DiskCounters;
using disk::DiskEnv;
using disk::DiskEnvConfig;

// A scratch directory removed on scope exit.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/corona_disk_test_XXXXXX";
    const char* p = ::mkdtemp(tmpl);
    EXPECT_NE(p, nullptr);
    path_ = p != nullptr ? p : "";
  }
  ~TempDir() {
    if (!path_.empty()) disk::remove_tree(path_);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32c, KnownVectors) {
  // The standard CRC-32C check value for "123456789".
  const Bytes check = to_bytes("123456789");
  EXPECT_EQ(disk::crc32c(check), 0xe3069283u);
  EXPECT_EQ(disk::crc32c(BytesView{}), 0u);
}

TEST(Crc32c, MatchesBitwiseReferenceAtEveryLengthAndSplit) {
  // A bit-at-a-time CRC32C, independent of both fast paths.
  const auto reference = [](const Bytes& data) {
    std::uint32_t crc = 0xffffffffu;
    for (const std::uint8_t byte : data) {
      crc ^= byte;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1u) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
    }
    return ~crc;
  };
  Rng rng(0xc3c3);
  for (std::size_t n = 0; n <= 70; ++n) {
    Bytes data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    ASSERT_EQ(disk::crc32c(data), reference(data)) << "n=" << n;
    // Extending a running checksum equals checksumming the whole.
    const std::size_t split = n == 0 ? 0 : rng.next_below(n);
    const std::uint32_t head = disk::crc32c(data.data(), split);
    ASSERT_EQ(disk::crc32c(data.data() + split, n - split, head),
              reference(data));
  }
}

TEST(Crc32c, DetectsSingleBitFlip) {
  Bytes data = filler_bytes(64);
  const std::uint32_t clean = disk::crc32c(data);
  data[17] ^= 0x10;
  EXPECT_NE(disk::crc32c(data), clean);
}

// ---------------------------------------------------------------------------
// Buffer-level formats
// ---------------------------------------------------------------------------

// A log entry as a test writes it, and a scanned one copied back out.
struct Entry {
  GroupId group;
  std::uint64_t index = 0;
  disk::EntryKind kind = disk::EntryKind::kUpdate;
  Bytes body;

  friend bool operator==(const Entry&, const Entry&) = default;
};

Entry copy_of(const disk::EntryView& v) {
  return Entry{v.group, v.index, v.kind, Bytes(v.body.begin(), v.body.end())};
}

std::vector<Entry> entries_of(const disk::SegmentScan& scan) {
  std::vector<Entry> out;
  for (const disk::EntryView& v : scan.entries) out.push_back(copy_of(v));
  return out;
}

Entry mk_entry(std::uint64_t group, std::uint64_t index, Bytes body) {
  return Entry{GroupId{group}, index, disk::EntryKind::kUpdate,
               std::move(body)};
}

Bytes build_segment(std::uint64_t id, const std::vector<Entry>& entries) {
  Bytes buf;
  disk::append_segment_header(buf, id);
  for (const Entry& e : entries) {
    disk::append_entry(buf, e.group, e.index, e.kind, e.body);
  }
  return buf;
}

TEST(DiskFormat, SegmentRoundTrip) {
  const std::vector<Entry> entries = {
      mk_entry(1, 0, to_bytes("a")), mk_entry(2, 7, to_bytes("bb")),
      Entry{GroupId{2}, 7, disk::EntryKind::kFloor, {}},
      Entry{GroupId{1}, 1, disk::EntryKind::kTombstone, {}}};
  const Bytes buf = build_segment(42, entries);
  const disk::SegmentScan scan = disk::scan_segment(buf);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_EQ(scan.segment_id, 42u);
  EXPECT_EQ(entries_of(scan), entries);
  EXPECT_EQ(scan.valid_bytes, buf.size());
  EXPECT_FALSE(scan.truncated);
}

TEST(DiskFormat, TornTailTruncatesToLongestValidPrefix) {
  const std::vector<Entry> entries = {mk_entry(1, 0, to_bytes("one")),
                                      mk_entry(1, 1, to_bytes("two"))};
  Bytes buf = build_segment(1, entries);
  const std::size_t full = buf.size();
  // Cut the last entry's payload short: the scan must keep entry 0 only.
  buf.resize(full - 1);
  const disk::SegmentScan scan = disk::scan_segment(buf);
  EXPECT_TRUE(scan.header_ok);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_EQ(copy_of(scan.entries[0]), entries[0]);
  EXPECT_TRUE(scan.truncated);
  EXPECT_LT(scan.valid_bytes, buf.size());
}

TEST(DiskFormat, PayloadBitFlipKillsRecordAndEverythingAfter) {
  Bytes buf = build_segment(1, {mk_entry(1, 0, to_bytes("aaaa")),
                                mk_entry(1, 1, to_bytes("bbbb")),
                                mk_entry(1, 2, to_bytes("cccc"))});
  // Flip one bit inside the second entry's body.
  const std::size_t second_body = disk::kSegmentHeaderBytes +
                                  disk::entry_size_on_disk(4) +
                                  disk::kRecordHeaderBytes +
                                  disk::kEntryHeaderBytes;
  buf[second_body] ^= 0x01;
  const disk::SegmentScan scan = disk::scan_segment(buf);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_EQ(copy_of(scan.entries[0]).body, to_bytes("aaaa"));
  EXPECT_TRUE(scan.truncated);
}

TEST(DiskFormat, BadHeaderContributesNothing) {
  Bytes buf = build_segment(7, {mk_entry(1, 0, to_bytes("x"))});
  buf[1] ^= 0xff;  // corrupt the magic
  const disk::SegmentScan scan = disk::scan_segment(buf);
  EXPECT_FALSE(scan.header_ok);
  EXPECT_TRUE(scan.entries.empty());
}

TEST(DiskFormat, GarbageLengthStopsScan) {
  Bytes buf = build_segment(1, {mk_entry(1, 0, to_bytes("ok"))});
  // Append a record header claiming a payload far past the sanity ceiling.
  for (const std::uint8_t b : {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0}) {
    buf.push_back(b);
  }
  const disk::SegmentScan scan = disk::scan_segment(buf);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_TRUE(scan.truncated);
}

TEST(DiskFormat, CheckpointFileRoundTripAndRejection) {
  const Bytes blob = filler_bytes(100);
  Bytes file = disk::encode_checkpoint_file("group/7", blob);
  const auto decoded = disk::decode_checkpoint_file(file);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->key, "group/7");
  EXPECT_EQ(decoded->blob, blob);

  Bytes flipped = file;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(disk::decode_checkpoint_file(flipped).has_value());
  file.resize(file.size() - 3);  // torn rename target cannot happen, but
  EXPECT_FALSE(disk::decode_checkpoint_file(file).has_value());
}

TEST(DiskFormat, LogEntryRoundTripAndRejection) {
  Bytes framed;
  disk::append_entry(framed, GroupId{9}, 123456789u, disk::EntryKind::kUpdate,
                     to_bytes("body"));
  ASSERT_EQ(framed.size(), disk::entry_size_on_disk(4));
  const BytesView payload(framed.data() + disk::kRecordHeaderBytes,
                          framed.size() - disk::kRecordHeaderBytes);
  const auto e = disk::decode_entry(payload);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->group, GroupId{9});
  EXPECT_EQ(e->index, 123456789u);
  EXPECT_EQ(e->kind, disk::EntryKind::kUpdate);
  EXPECT_EQ(copy_of(*e).body, to_bytes("body"));
  // A payload shorter than the entry header, or of an unknown kind, is not
  // an entry.
  EXPECT_FALSE(disk::decode_entry(payload.first(disk::kEntryHeaderBytes - 1))
                   .has_value());
  Bytes bad_kind(payload.begin(), payload.end());
  bad_kind[16] = 0x7f;
  EXPECT_FALSE(disk::decode_entry(bad_kind).has_value());
}

// ---------------------------------------------------------------------------
// DiskLog: one group's view of the shared log (SharedLog::open)
// ---------------------------------------------------------------------------

constexpr std::size_t kSmallSegment = 128;  // force rotation in tests
constexpr GroupId kLogGroup{1};

std::vector<std::string> segment_files(const std::string& dir) {
  std::vector<std::string> segs;
  for (const std::string& f : disk::list_files(dir)) {
    if (f.starts_with("seg-")) segs.push_back(dir + "/" + f);
  }
  return segs;
}

TEST(DiskLog, ContractMatchesStableLog) {
  TempDir dir;
  DiskCounters counters;
  disk::SharedLog shared(dir.path() + "/log", kSmallSegment, &counters);
  const auto log = shared.open(kLogGroup);
  log->append(to_bytes("a"));
  EXPECT_EQ(log->size(), 1u);
  EXPECT_EQ(log->durable_size(), 0u);
  EXPECT_GT(log->pending_bytes(), 0u);
  EXPECT_EQ(log->flush(), 1u);
  EXPECT_EQ(log->durable_size(), 1u);
  EXPECT_EQ(log->pending_bytes(), 0u);
  log->append(to_bytes("b"));
  log->append(to_bytes("c"));
  EXPECT_EQ(log->flush(), 2u);  // commit group of 2
  EXPECT_EQ(log->commits(), 2u);
  EXPECT_EQ(log->max_commit_records(), 2u);
  log->append(to_bytes("lost"));
  log->crash();
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ(to_string(log->record(2)), "c");
}

TEST(DiskLog, ReopenRecoversFlushedDropsUnflushed) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto log = shared.open(kLogGroup);
    log->append(to_bytes("durable1"));
    log->append(to_bytes("durable2"));
    (void)log->flush();
    log->append(to_bytes("unflushed"));
    // Destructors: process death with a dirty tail.
  }
  disk::SharedLog shared(path, kSmallSegment, &counters);
  const auto log = shared.open(kLogGroup);
  ASSERT_EQ(log->size(), 2u);
  EXPECT_EQ(log->durable_size(), 2u);
  EXPECT_EQ(to_string(log->record(0)), "durable1");
  EXPECT_EQ(to_string(log->record(1)), "durable2");
  EXPECT_EQ(counters.recovered_records, 2u);
}

TEST(DiskLog, RotatesSegmentsAndRecoversAcrossThem) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto log = shared.open(kLogGroup);
    for (int i = 0; i < 20; ++i) {
      log->append(filler_bytes(32, static_cast<std::uint8_t>(i)));
      (void)log->flush();
    }
    EXPECT_GT(shared.segment_count(), 1u);
  }
  disk::SharedLog shared(path, kSmallSegment, &counters);
  const auto log = shared.open(kLogGroup);
  ASSERT_EQ(log->size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(log->record(static_cast<std::size_t>(i)),
              filler_bytes(32, static_cast<std::uint8_t>(i)));
  }
}

TEST(DiskLog, DropPrefixDeletesCoveredSegmentsAndSurvivesReopen) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto log = shared.open(kLogGroup);
    for (int i = 0; i < 20; ++i) {
      log->append(filler_bytes(32, static_cast<std::uint8_t>(i)));
      (void)log->flush();
    }
    const std::size_t before = shared.segment_count();
    log->drop_prefix(15);
    EXPECT_LT(shared.segment_count(), before);
    EXPECT_GT(counters.segments_deleted, 0u);
    ASSERT_EQ(log->size(), 5u);
    EXPECT_EQ(log->record(0), filler_bytes(32, 15));
    EXPECT_EQ(log->start_index(), 15u);
  }
  // Two records fit a segment, so record 14 shares one with live record 15
  // and comes back; every wholly-covered segment stays gone.  (GroupStore
  // filters such a record by seq against the checkpoint base.)
  disk::SharedLog shared(path, kSmallSegment, &counters);
  const auto log = shared.open(kLogGroup);
  ASSERT_EQ(log->size(), 6u);
  EXPECT_EQ(log->start_index(), 14u);
  for (std::size_t i = 0; i < log->size(); ++i) {
    EXPECT_EQ(log->record(i), filler_bytes(32, static_cast<std::uint8_t>(
                                                   log->start_index() + i)));
  }
}

TEST(DiskLog, AppendsKeepWorkingAfterDropPrefixCoversEverything) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto log = shared.open(kLogGroup);
    for (int i = 0; i < 4; ++i) log->append(to_bytes("x"));
    (void)log->flush();
    log->drop_prefix(4);  // covers the whole durable log
    EXPECT_EQ(log->size(), 0u);
    EXPECT_EQ(shared.segment_count(), 0u);
    log->append(to_bytes("after"));
    (void)log->flush();
  }
  disk::SharedLog shared(path, kSmallSegment, &counters);
  const auto log = shared.open(kLogGroup);
  ASSERT_EQ(log->size(), 1u);
  EXPECT_EQ(to_string(log->record(0)), "after");
  EXPECT_EQ(log->start_index(), 4u);
}

TEST(DiskLog, TornTailIsTruncatedOnReopen) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, 1u << 20, &counters);
    const auto log = shared.open(kLogGroup);
    log->append(to_bytes("keep1"));
    log->append(to_bytes("keep2"));
    (void)log->flush();
  }
  // Simulate a torn write: garbage appended past the last durable record.
  const std::vector<std::string> segs = segment_files(path);
  ASSERT_EQ(segs.size(), 1u);
  {
    disk::AppendFile torn = disk::AppendFile::open(segs[0], &counters);
    const Bytes garbage = {0x13, 0x37, 0x00, 0x00, 0xde, 0xad};
    torn.write(garbage);
    torn.sync();
  }
  {
    disk::SharedLog shared(path, 1u << 20, &counters);
    const auto log = shared.open(kLogGroup);
    ASSERT_EQ(log->size(), 2u);
    EXPECT_EQ(to_string(log->record(0)), "keep1");
    EXPECT_GT(counters.truncated_bytes, 0u);
    // The torn bytes were physically cut; appending must chain cleanly.
    log->append(to_bytes("after"));
    (void)log->flush();
  }
  disk::SharedLog shared(path, 1u << 20, &counters);
  const auto log = shared.open(kLogGroup);
  ASSERT_EQ(log->size(), 3u);
  EXPECT_EQ(to_string(log->record(2)), "after");
}

TEST(DiskLog, FlushSpanningRotationSyncsEverySegmentTouched) {
  TempDir dir;
  DiskCounters counters;
  disk::SharedLog shared(dir.path() + "/log", kSmallSegment, &counters);
  const auto log = shared.open(kLogGroup);
  for (int i = 0; i < 12; ++i) {
    log->append(filler_bytes(32, static_cast<std::uint8_t>(i)));
  }
  const std::uint64_t before = counters.fsyncs;
  ASSERT_EQ(log->flush(), 12u);
  ASSERT_GT(shared.segment_count(), 2u);
  // Every segment the commit group touched must be synced before flush()
  // returns, not just the final active one: one data sync per rotation
  // hand-off plus the end-of-flush sync (segment creation contributes one
  // directory sync each).  Syncing only the last segment would acknowledge
  // records that a power loss can tear out of the rotated-out segments.
  EXPECT_GE(counters.fsyncs - before, 2u * shared.segment_count() - 1);
}

TEST(DiskLog, RecoveryDroppingSegmentsSyncsTheDirectory) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto log = shared.open(kLogGroup);
    for (int i = 0; i < 20; ++i) {
      log->append(filler_bytes(32, static_cast<std::uint8_t>(i)));
      (void)log->flush();
    }
  }
  // Corrupt the SECOND segment's header: recovery keeps segment one, then
  // unlinks the corrupt segment and everything after it (chain break) —
  // removals only, no truncation.
  const std::vector<std::string> segs = segment_files(path);
  ASSERT_GT(segs.size(), 2u);
  Bytes content = *disk::read_file(segs[1]);
  content[1] ^= 0xff;  // break the magic
  disk::atomic_write_file(segs[1], content, &counters);

  const std::uint64_t before = counters.fsyncs;
  disk::SharedLog shared(path, kSmallSegment, &counters);
  EXPECT_GT(counters.corrupt_files_dropped, 0u);
  // The unlinks are dirty directory pages until the directory itself is
  // synced; without it a later power loss can resurrect a dropped-but-valid
  // stale segment.
  EXPECT_GT(counters.fsyncs, before);
  EXPECT_EQ(shared.segment_count(), 1u);
}

TEST(DiskLog, CorruptionInEarlySegmentDropsLaterSegments) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto log = shared.open(kLogGroup);
    for (int i = 0; i < 20; ++i) {
      log->append(filler_bytes(32, static_cast<std::uint8_t>(i)));
      (void)log->flush();
    }
    EXPECT_GT(shared.segment_count(), 2u);
  }
  // Flip a byte in the middle of the FIRST segment's first entry.
  const std::vector<std::string> segs = segment_files(path);
  ASSERT_FALSE(segs.empty());
  Bytes content = *disk::read_file(segs[0]);
  content[disk::kSegmentHeaderBytes + disk::kRecordHeaderBytes + 5] ^= 0x80;
  disk::atomic_write_file(segs[0], content, &counters);

  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto log = shared.open(kLogGroup);
    // Strict truncation: nothing at or after the flipped entry survives,
    // including the (intact) later segments.
    EXPECT_EQ(log->size(), 0u);
    EXPECT_GT(counters.corrupt_files_dropped, 0u);
    // And the log must still accept new writes and recover them.
    log->append(to_bytes("fresh"));
    (void)log->flush();
  }
  disk::SharedLog reopened(path, kSmallSegment, &counters);
  const auto log = reopened.open(kLogGroup);
  ASSERT_EQ(log->size(), 1u);
  EXPECT_EQ(to_string(log->record(0)), "fresh");
}

// ---------------------------------------------------------------------------
// SharedLog: many groups, one log
// ---------------------------------------------------------------------------

TEST(SharedLog, OneCommitSyncsEveryGroupOnce) {
  TempDir dir;
  DiskCounters counters;
  disk::SharedLog shared(dir.path() + "/log", 1u << 20, &counters);
  std::vector<std::unique_ptr<disk::LogView>> views;
  for (std::uint64_t g = 1; g <= 16; ++g) {
    views.push_back(shared.open(GroupId{g}));
  }
  for (auto& v : views) v->append(filler_bytes(100, 1));
  (void)views[0]->flush();  // creates the first segment
  for (auto& v : views) {
    v->append(filler_bytes(1024, 2));
    v->append(filler_bytes(1024, 3));
  }
  const std::uint64_t before = counters.fsyncs;
  // The first view's flush commits all 32 records; the rest find nothing.
  EXPECT_EQ(views[3]->flush(), 32u);
  for (auto& v : views) {
    EXPECT_EQ(v->flush(), 0u);
    EXPECT_EQ(v->unflushed(), 0u);
  }
  EXPECT_EQ(counters.fsyncs - before, 1u);
  EXPECT_EQ(shared.segment_count(), 1u);
}

TEST(SharedLog, GroupsInterleaveAndRecoverByIndex) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto a = shared.open(GroupId{1});
    const auto b = shared.open(GroupId{2});
    for (int i = 0; i < 10; ++i) {
      a->append(filler_bytes(20, static_cast<std::uint8_t>(i)));
      if (i % 3 == 0) b->append(filler_bytes(30, static_cast<std::uint8_t>(i)));
      (void)b->flush();
    }
  }
  disk::SharedLog shared(path, kSmallSegment, &counters);
  EXPECT_EQ(shared.ids(), (std::vector<GroupId>{GroupId{1}, GroupId{2}}));
  const auto a = shared.open(GroupId{1});
  const auto b = shared.open(GroupId{2});
  ASSERT_EQ(a->size(), 10u);
  ASSERT_EQ(b->size(), 4u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(a->record(i), filler_bytes(20, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(b->record(3), filler_bytes(30, 9));
}

TEST(SharedLog, RemovedIdNeverRecoversItsEarlierIncarnation) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, 1u << 20, &counters);
    const auto keep = shared.open(GroupId{2});
    {
      const auto old = shared.open(GroupId{1});
      for (int i = 0; i < 3; ++i) old->append(to_bytes("old"));
      keep->append(to_bytes("pin"));  // keeps the segment alive
      (void)old->flush();
    }
    const std::uint64_t before = counters.fsyncs;
    shared.remove_group_log(GroupId{1});
    EXPECT_EQ(counters.fsyncs - before, 1u);  // the tombstone, synced
    const auto fresh = shared.open(GroupId{1});
    EXPECT_EQ(fresh->size(), 0u);
    EXPECT_EQ(fresh->start_index(), 3u);  // above every killed index
    fresh->append(to_bytes("new"));
    (void)fresh->flush();
  }
  disk::SharedLog shared(path, 1u << 20, &counters);
  const auto g1 = shared.open(GroupId{1});
  ASSERT_EQ(g1->size(), 1u);
  EXPECT_EQ(to_string(g1->record(0)), "new");
  EXPECT_EQ(g1->start_index(), 3u);
  const auto g2 = shared.open(GroupId{2});
  ASSERT_EQ(g2->size(), 1u);
}

TEST(SharedLog, RemovingANeverFlushedGroupWritesNothing) {
  TempDir dir;
  DiskCounters counters;
  disk::SharedLog shared(dir.path() + "/log", 1u << 20, &counters);
  {
    const auto v = shared.open(GroupId{4});
    v->append(to_bytes("staged only"));
  }
  const std::uint64_t before = counters.fsyncs;
  shared.remove_group_log(GroupId{4});
  EXPECT_EQ(counters.fsyncs, before);
  EXPECT_TRUE(shared.ids().empty());
  EXPECT_EQ(shared.segment_count(), 0u);
}

TEST(SharedLog, FloorEntrySkipsCoveredRecordsAtRecovery) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  {
    disk::SharedLog shared(path, 1u << 20, &counters);  // one segment
    const auto covered = shared.open(kLogGroup);
    const auto other = shared.open(GroupId{2});
    for (int i = 0; i < 10; ++i) covered->append(to_bytes("r"));
    (void)covered->flush();
    covered->drop_prefix(7);  // a checkpoint covers indices 0..6
    other->append(to_bytes("o"));
    (void)other->flush();     // carries group 1's floor
  }
  const std::uint64_t before = counters.recovered_records;
  disk::SharedLog shared(path, 1u << 20, &counters);
  const auto covered = shared.open(kLogGroup);
  EXPECT_EQ(covered->start_index(), 7u);
  EXPECT_EQ(covered->size(), 3u);
  EXPECT_EQ(counters.recovered_records - before, 4u);  // 3 + group 2's one
}

// A group that trickles records and never checkpoints would pin one segment
// per record; copy-forward gathers its records into the tail instead.
TEST(SharedLog, CopyForwardBoundsATricklingGroup) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/log";
  std::size_t trickled = 0;
  {
    disk::SharedLog shared(path, kSmallSegment, &counters);
    const auto trickle = shared.open(GroupId{1});
    const auto busy = shared.open(GroupId{2});
    for (int i = 0; i < 600; ++i) {
      if (i % 3 == 0) {
        trickle->append(filler_bytes(8, static_cast<std::uint8_t>(trickled++)));
      }
      busy->append(filler_bytes(40, static_cast<std::uint8_t>(i)));
      (void)busy->flush();
      busy->drop_prefix(busy->size());  // a checkpoint covering everything
      const std::uint64_t bound =
          disk::SharedLog::kCopyForwardFactor * shared.peak_live_bytes() +
          (disk::SharedLog::kCopyForwardSlackSegments + 2) * kSmallSegment;
      ASSERT_LE(shared.disk_bytes(), bound) << "commit " << i;
    }
    EXPECT_GT(counters.records_copied, 0u);
    EXPECT_GT(counters.segments_deleted, 0u);
  }
  // The copies are the same records: the group recovers whole, in order.
  disk::SharedLog shared(path, kSmallSegment, &counters);
  const auto trickle = shared.open(GroupId{1});
  ASSERT_EQ(trickle->size(), trickled);
  EXPECT_EQ(trickle->start_index(), 0u);
  for (std::size_t i = 0; i < trickled; ++i) {
    EXPECT_EQ(trickle->record(i),
              filler_bytes(8, static_cast<std::uint8_t>(i)));
  }
}

TEST(DiskEnv, RefusesThePerGroupLayoutOfEarlierVersions) {
  TempDir dir;
  const std::string data = dir.path() + "/data";
  disk::ensure_dir(data + "/groups/7");
  DiskCounters counters;
  disk::atomic_write_file(data + "/groups/7/seg-00000000000000000000.log",
                          to_bytes("CSG1 old segment"), &counters);
  EXPECT_DEATH(DiskEnv(DiskEnvConfig{data, 256}),
               "groups/7 holds log segments in the per-group layout");
  // Nothing was touched: the old records are still there to migrate by hand.
  EXPECT_TRUE(disk::read_file(data + "/groups/7/seg-00000000000000000000.log")
                  .has_value());
  EXPECT_FALSE(disk::dir_exists(data + "/log"));
}

// ---------------------------------------------------------------------------
// DiskCheckpointStore
// ---------------------------------------------------------------------------

TEST(DiskCheckpoint, StagedPutDurableAfterFlushAcrossReopen) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/ckpt";
  {
    disk::DiskCheckpointStore cs(path, &counters);
    cs.put("group/1", to_bytes("v1"));
    EXPECT_TRUE(cs.get("group/1").has_value());
    EXPECT_FALSE(cs.get_durable("group/1").has_value());
    cs.flush();
    cs.put("group/1", to_bytes("v2-staged-then-lost"));
    cs.put("group/2", to_bytes("never-flushed"));
  }
  disk::DiskCheckpointStore cs(path, &counters);
  ASSERT_TRUE(cs.get_durable("group/1").has_value());
  EXPECT_EQ(to_string(*cs.get_durable("group/1")), "v1");
  EXPECT_FALSE(cs.get_durable("group/2").has_value());
  EXPECT_EQ(cs.durable_keys(), (std::vector<std::string>{"group/1"}));
}

TEST(DiskCheckpoint, EraseDurableAfterFlush) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/ckpt";
  {
    disk::DiskCheckpointStore cs(path, &counters);
    cs.put("a", to_bytes("1"));
    cs.put("b", to_bytes("2"));
    cs.flush();
    cs.erase("a");
    cs.flush();
  }
  disk::DiskCheckpointStore cs(path, &counters);
  EXPECT_EQ(cs.durable_keys(), (std::vector<std::string>{"b"}));
}

TEST(DiskCheckpoint, CorruptFileDroppedWholeOnOpen) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/ckpt";
  {
    disk::DiskCheckpointStore cs(path, &counters);
    cs.put("good", to_bytes("keep"));
    cs.put("bad", to_bytes("will-rot"));
    cs.flush();
  }
  for (const std::string& name : disk::list_files(path)) {
    Bytes content = *disk::read_file(path + "/" + name);
    const auto file = disk::decode_checkpoint_file(content);
    if (file.has_value() && file->key == "bad") {
      content[content.size() - 1] ^= 0x01;
      disk::atomic_write_file(path + "/" + name, content, &counters);
    }
  }
  disk::DiskCheckpointStore cs(path, &counters);
  EXPECT_EQ(cs.durable_keys(), (std::vector<std::string>{"good"}));
  EXPECT_GT(counters.corrupt_files_dropped, 0u);
}

// ---------------------------------------------------------------------------
// DiskEnv + GroupStore end-to-end
// ---------------------------------------------------------------------------

UpdateRecord mk_update(SeqNo seq, ObjectId obj, const Bytes& data,
                       NodeId sender = NodeId{100}) {
  UpdateRecord u;
  u.seq = seq;
  u.kind = PayloadKind::kUpdate;
  u.object = obj;
  u.data = data;
  u.sender = sender;
  u.request_id = seq;
  return u;
}

void expect_same_recovery(const std::vector<RecoveredGroup>& a,
                          const std::vector<RecoveredGroup>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].meta, b[i].meta);
    EXPECT_EQ(a[i].base_seq, b[i].base_seq);
    EXPECT_EQ(a[i].snapshot, b[i].snapshot);
    EXPECT_EQ(a[i].updates, b[i].updates);
  }
}

TEST(DiskGroupStore, RecoverAcrossReopenMatchesPreCrashDurableView) {
  TempDir dir;
  std::vector<RecoveredGroup> durable_view;
  {
    DiskEnv env(DiskEnvConfig{dir.path() + "/data", 256});
    GroupStore gs(&env);
    gs.create_group(GroupMeta{GroupId{1}, "g1", true},
                    {StateEntry{ObjectId{1}, to_bytes("init")}});
    gs.create_group(GroupMeta{GroupId{2}, "g2", false}, {});
    for (SeqNo s = 1; s <= 8; ++s) {
      gs.append_update(GroupId{1}, mk_update(s, ObjectId{1}, filler_bytes(20)));
    }
    gs.append_update(GroupId{2}, mk_update(1, ObjectId{9}, to_bytes("two")));
    (void)gs.flush();
    gs.install_checkpoint(GroupId{1}, 5,
                          {StateEntry{ObjectId{1}, to_bytes("as-of-5")}});
    (void)gs.flush();
    gs.append_update(GroupId{1},
                     mk_update(9, ObjectId{1}, to_bytes("unflushed")));
    gs.crash();  // in-process model of the kill
    durable_view = gs.recover();
  }
  DiskEnv env(DiskEnvConfig{dir.path() + "/data", 256});
  GroupStore gs(&env);
  expect_same_recovery(gs.recover(), durable_view);
}

TEST(DiskGroupStore, OrphanLogOfNeverFlushedGroupIsReaped) {
  TempDir dir;
  {
    DiskEnv env(DiskEnvConfig{dir.path() + "/data", 256});
    GroupStore gs(&env);
    gs.create_group(GroupMeta{GroupId{5}, "flushed", true}, {});
    (void)gs.flush();
    gs.create_group(GroupMeta{GroupId{6}, "orphan", true}, {});
    // No flush: group 6 has a log directory but no durable checkpoint.
  }
  DiskEnv env(DiskEnvConfig{dir.path() + "/data", 256});
  GroupStore gs(&env);  // construction reaps group 6's orphan log
  EXPECT_EQ(env.list_logs(), (std::vector<GroupId>{GroupId{5}}));
  const auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].meta.id, GroupId{5});
}

TEST(DiskGroupStore, RemovedGroupStaysGoneAfterReopen) {
  TempDir dir;
  {
    DiskEnv env(DiskEnvConfig{dir.path() + "/data", 256});
    GroupStore gs(&env);
    gs.create_group(GroupMeta{GroupId{1}, "g", true}, {});
    gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, to_bytes("x")));
    (void)gs.flush();
    gs.remove_group(GroupId{1});
    (void)gs.flush();
  }
  DiskEnv env(DiskEnvConfig{dir.path() + "/data", 256});
  GroupStore gs(&env);
  EXPECT_TRUE(gs.recover().empty());
  EXPECT_TRUE(env.list_logs().empty());
}

TEST(DiskGroupStore, RemoveGroupIsDurableBeforeLogStorageIsReclaimed) {
  TempDir dir;
  {
    DiskEnv env(DiskEnvConfig{dir.path() + "/data", 256});
    GroupStore gs(&env);
    gs.create_group(GroupMeta{GroupId{1}, "g", true}, {});
    gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, to_bytes("x")));
    (void)gs.flush();
    gs.remove_group(GroupId{1});
    // NO flush: the process dies right after remove_group returns.  The
    // checkpoint erase must already be durable when the log storage goes —
    // otherwise restart finds a durable checkpoint with its log destroyed
    // and resurrects the group at base_seq with every flushed update lost.
  }
  DiskEnv env(DiskEnvConfig{dir.path() + "/data", 256});
  GroupStore gs(&env);
  EXPECT_TRUE(gs.recover().empty());
  EXPECT_TRUE(env.list_logs().empty());
}

TEST(DiskGroupStore, CheckpointCoveredRecordsDoNotResurrect) {
  TempDir dir;
  {
    // Tiny segments: the checkpoint boundary lands mid-segment, so covered
    // records still share a file with live ones — the meta floor must hide
    // them across the reopen.
    DiskEnv env(DiskEnvConfig{dir.path() + "/data", 64});
    GroupStore gs(&env);
    gs.create_group(GroupMeta{GroupId{1}, "g", true}, {});
    for (SeqNo s = 1; s <= 7; ++s) {
      gs.append_update(GroupId{1}, mk_update(s, ObjectId{1}, to_bytes("u")));
    }
    (void)gs.flush();
    gs.install_checkpoint(GroupId{1}, 4,
                          {StateEntry{ObjectId{1}, to_bytes("uuuu")}});
    (void)gs.flush();
  }
  DiskEnv env(DiskEnvConfig{dir.path() + "/data", 64});
  GroupStore gs(&env);
  const auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].base_seq, 4u);
  ASSERT_EQ(recovered[0].updates.size(), 3u);
  EXPECT_EQ(recovered[0].updates[0].seq, 5u);
}

// remove_group killed between its durable checkpoint erase and the log's
// tombstone, after a checkpoint had covered every record of the group.  The
// restart finds no live record of it, only dead ones in a segment another
// group pins, and must still reap it with a tombstone: otherwise a
// re-created id starts at the floor, and once the floor's segment goes the
// old records join the new ones into one run.
TEST(DiskGroupStore, FloorCoveredOrphanIsReapedBeforeItsIdIsReused) {
  TempDir dir;
  const std::string data = dir.path() + "/data";
  constexpr std::size_t kSeg = 4096;
  const Bytes fill_segment = filler_bytes(kSeg);  // forces the next rotation
  {
    DiskEnv env(DiskEnvConfig{data, kSeg});
    GroupStore gs(&env);
    for (std::uint64_t g = 1; g <= 3; ++g) {
      gs.create_group(GroupMeta{GroupId{g}, "g", true}, {}, /*durable=*/true);
    }
    // Segment 1: group 1's record pins it; group 2's records will be dead.
    gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, to_bytes("pin")));
    for (SeqNo s = 1; s <= 3; ++s) {
      gs.append_update(GroupId{2}, mk_update(s, ObjectId{1}, to_bytes("old")));
    }
    (void)gs.flush();
    gs.append_update(GroupId{3}, mk_update(1, ObjectId{1}, fill_segment));
    (void)gs.flush();
    gs.install_checkpoint(GroupId{2}, 3, {});  // covers all of group 2
    // Segment 2: the floor for group 2, and a record that fills it.
    gs.append_update(GroupId{3}, mk_update(2, ObjectId{1}, fill_segment));
    (void)gs.flush();
    ASSERT_EQ(env.log().segment_count(), 2u);
    // remove_group(2) dies here: its checkpoint erase is durable, the
    // tombstone never written.
    env.checkpoints().erase("group/2");
    env.checkpoints().flush();
  }
  {
    DiskEnv env(DiskEnvConfig{data, kSeg});
    GroupStore gs(&env);  // reaps group 2
    gs.create_group(GroupMeta{GroupId{2}, "again", true}, {}, true);
    for (SeqNo s = 1; s <= 2; ++s) {
      gs.append_update(GroupId{2}, mk_update(s, ObjectId{1}, to_bytes("new")));
    }
    (void)gs.flush();
    // Group 3's checkpoint lets segment 2, and the floor in it, go; group 1
    // still pins segment 1 with the old incarnation's records.
    gs.install_checkpoint(GroupId{3}, 2, {});
    ASSERT_TRUE(disk::read_file(data + "/log/seg-00000000000000000001.log")
                    .has_value());
    ASSERT_FALSE(disk::read_file(data + "/log/seg-00000000000000000002.log")
                     .has_value());
  }
  DiskEnv env(DiskEnvConfig{data, kSeg});
  GroupStore gs(&env);
  const auto recovered = gs.recover();
  ASSERT_EQ(recovered.size(), 3u);
  const RecoveredGroup& g2 = recovered[1];
  ASSERT_EQ(g2.meta.id, GroupId{2});
  EXPECT_EQ(g2.meta.name, "again");
  ASSERT_EQ(g2.updates.size(), 2u);
  for (SeqNo s = 1; s <= 2; ++s) {
    EXPECT_EQ(g2.updates[s - 1].seq, s);
    EXPECT_EQ(g2.updates[s - 1].data, to_bytes("new"));
  }
}

// ---------------------------------------------------------------------------
// Backend-equivalence property: randomized ops + crash points
// ---------------------------------------------------------------------------

// Drives the same randomized op sequence into a disk-backed GroupStore and
// the in-memory reference, crashes both at the same random point, recovers
// the disk store through a REAL reopen, and requires identical views.  At
// least four groups interleave in the one log, each checkpoints on its own,
// removed ids are created again, and group 1 trickles records without ever
// checkpointing, so the small segments rotate and copy forward all along.
TEST(DiskGroupStore, RandomizedCrashPointEquivalenceProperty) {
  std::uint64_t copied = 0;
  std::uint64_t recycled = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    TempDir dir;
    Rng rng(seed * 0x9e3779b9u);
    std::vector<RecoveredGroup> expected;
    {
      DiskEnv env(DiskEnvConfig{dir.path() + "/data", 200});
      GroupStore disk_gs(&env);
      GroupStore mem_gs;  // reference model

      std::vector<GroupId> live;
      std::vector<GroupId> removed;
      std::unordered_map<std::uint64_t, SeqNo> next_seq;
      std::uint64_t next_id = 1;
      const auto create = [&](GroupId id) {
        const GroupMeta meta{id, "g" + std::to_string(id.value),
                             rng.next_bool(0.5)};
        const std::vector<StateEntry> init = {
            StateEntry{ObjectId{1}, filler_bytes(rng.next_below(40))}};
        disk_gs.create_group(meta, init);
        mem_gs.create_group(meta, init);
        live.push_back(id);
        next_seq[id.value] = 1;
      };
      for (int i = 0; i < 4; ++i) create(GroupId{next_id++});
      const GroupId trickler{1};
      const int ops = 150 + static_cast<int>(rng.next_below(150));
      for (int op = 0; op < ops; ++op) {
        const std::uint64_t pick = rng.next_below(100);
        if (pick < 6) {
          if (!removed.empty() && rng.next_bool(0.5)) {
            const std::size_t idx = rng.next_below(removed.size());
            create(removed[idx]);  // a recycled id: a new incarnation
            removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(idx));
            ++recycled;
          } else {
            create(GroupId{next_id++});
          }
        } else if (pick < 60) {
          GroupId g = live[rng.next_below(live.size())];
          if (g == trickler && rng.next_bool(0.8)) {
            g = live[rng.next_below(live.size())];
          }
          const SeqNo s = next_seq[g.value]++;
          const UpdateRecord u = mk_update(
              s, ObjectId{rng.next_below(4)},
              filler_bytes(rng.next_below(50),
                           static_cast<std::uint8_t>(rng.next_u64())));
          disk_gs.append_update(g, u);
          mem_gs.append_update(g, u);
        } else if (pick < 78) {
          (void)disk_gs.flush();
          (void)mem_gs.flush();
        } else if (pick < 92) {
          const GroupId g = live[rng.next_below(live.size())];
          if (g == trickler) continue;
          const SeqNo base = next_seq[g.value] - 1;
          const std::vector<StateEntry> snap = {
              StateEntry{ObjectId{1}, filler_bytes(base % 30)}};
          disk_gs.install_checkpoint(g, base, snap);
          mem_gs.install_checkpoint(g, base, snap);
        } else if (live.size() > 2) {
          const std::size_t idx = 1 + rng.next_below(live.size() - 1);
          disk_gs.remove_group(live[idx]);
          mem_gs.remove_group(live[idx]);
          removed.push_back(live[idx]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
        }
      }
      // Crash both models at the same (random) point.
      mem_gs.crash();
      expected = mem_gs.recover();
      copied += env.stats().records_copied;
    }
    // Disk recovery goes through a REAL reopen of the directory.
    DiskEnv env(DiskEnvConfig{dir.path() + "/data", 200});
    GroupStore recovered(&env);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_same_recovery(recovered.recover(), expected);
  }
  // The property really ran through copy-forward and recycled ids.
  EXPECT_GT(copied, 0u);
  EXPECT_GT(recycled, 0u);
}

// One group writes once; the others write many segments' worth and
// checkpoint as they go.  The stale record must not pin the log.
TEST(DiskGroupStore, StaleGroupDoesNotPinTheLog) {
  TempDir dir;
  constexpr std::size_t kSeg = 512;
  DiskEnv env(DiskEnvConfig{dir.path() + "/data", kSeg});
  GroupStore gs(&env);
  for (std::uint64_t g = 1; g <= 4; ++g) {
    gs.create_group(GroupMeta{GroupId{g}, "g", true}, {}, /*durable=*/true);
  }
  gs.append_update(GroupId{1}, mk_update(1, ObjectId{1}, to_bytes("stale")));
  (void)gs.flush();
  std::uint64_t seq[5] = {0, 1, 0, 0, 0};
  std::size_t max_segments = 0;
  for (int i = 0; i < 3000; ++i) {
    const GroupId g{2 + static_cast<std::uint64_t>(i % 3)};
    const Bytes data = filler_bytes(60, static_cast<std::uint8_t>(i));
    gs.append_update(g, mk_update(++seq[g.value], ObjectId{1}, data));
    (void)gs.flush();
    if (seq[g.value] % 16 == 0) {
      gs.install_checkpoint(g, seq[g.value], {});
    }
    max_segments = std::max(max_segments, env.log().segment_count());
  }
  // Written: ~3000 x 100 B, hundreds of segments.  Held at any time: the
  // trigger's bound, 2 x peak live + 4 segments, plus the active one.
  const std::uint64_t bound =
      disk::SharedLog::kCopyForwardFactor * env.log().peak_live_bytes() /
          kSeg +
      disk::SharedLog::kCopyForwardSlackSegments + 2;
  EXPECT_LE(max_segments, bound);
  EXPECT_GT(env.stats().segments_created, 10 * bound);
  const auto groups = gs.recover();
  ASSERT_EQ(groups.size(), 4u);
  ASSERT_EQ(groups[0].updates.size(), 1u);
  EXPECT_EQ(groups[0].updates[0].data, to_bytes("stale"));
}

// durable_sync's shape in miniature: 16 groups, even round-robin load, a
// count-threshold checkpoint per group.  Dead records wait for the group
// furthest from its checkpoint, never long enough to trip copy-forward.
TEST(DiskGroupStore, EvenLoadNeverCopiesForward) {
  TempDir dir;
  DiskEnv env(DiskEnvConfig{dir.path() + "/data", 4096});
  GroupStore gs(&env);
  constexpr std::uint64_t kGroups = 16;
  constexpr SeqNo kThreshold = 64;
  for (std::uint64_t g = 1; g <= kGroups; ++g) {
    gs.create_group(GroupMeta{GroupId{g}, "g", true}, {}, /*durable=*/true);
  }
  Rng rng(0xe7e7);
  std::vector<SeqNo> seq(kGroups + 1, 0);
  std::vector<SeqNo> base(kGroups + 1, 0);
  for (int round = 0; round < 40 * static_cast<int>(kThreshold); ++round) {
    for (std::uint64_t g = 1; g <= kGroups; ++g) {
      if (rng.next_bool(0.1)) continue;  // uneven within a round
      gs.append_update(GroupId{g}, mk_update(++seq[g], ObjectId{1},
                                             filler_bytes(100, 3)));
    }
    (void)gs.flush();
    for (std::uint64_t g = 1; g <= kGroups; ++g) {
      if (seq[g] - base[g] >= kThreshold) {
        base[g] = seq[g];
        gs.install_checkpoint(GroupId{g}, base[g], {});
      }
    }
  }
  EXPECT_EQ(env.stats().records_copied, 0u);
  EXPECT_GT(env.stats().segments_deleted, 10u);
}

}  // namespace
}  // namespace corona
