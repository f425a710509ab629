// Deterministic corruption fuzzing of the durable storage formats — the
// seeded twin of fuzz/storage_fuzz.cc, run in every build.
//
// The invariant under attack is the recovery contract (docs/STORAGE.md):
// whatever happens to the bytes on disk, a scan must (a) never crash or read
// out of bounds, (b) return only records that were genuinely written —
// corruption may truncate the record sequence, never alter a record or
// resurrect a discarded one, and (c) leave the log in a state where
// appending and re-scanning still works.
//
// Modeled on tests/net_frame_fuzz_test.cc: build valid images, mutilate them
// deterministically (truncation at every offset, seeded bitflips, spliced
// frames, garbage tails), and assert the prefix property at both the buffer
// level (scan_segment) and the file level (SharedLog reopen, per group).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "storage/disk/disk_checkpoint.h"
#include "storage/disk/disk_format.h"
#include "storage/disk/disk_io.h"
#include "storage/disk/shared_log.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace corona {
namespace {

using disk::DiskCounters;
using disk::EntryKind;
using disk::scan_segment;
using disk::SegmentScan;

// A log entry as a test writes it, and a scanned one copied back out.
struct LogEntry {
  GroupId group;
  std::uint64_t index = 0;
  EntryKind kind = EntryKind::kUpdate;
  Bytes body;

  friend bool operator==(const LogEntry&, const LogEntry&) = default;
};

LogEntry copy_of(const disk::EntryView& v) {
  return LogEntry{v.group, v.index, v.kind,
                  Bytes(v.body.begin(), v.body.end())};
}

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/corona_storage_fuzz_XXXXXX";
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

// Entries of groups 1..3, each group's indices counting up from 0, with the
// odd tombstone and floor mixed in.
std::vector<LogEntry> make_entries(Rng& rng, std::size_t n) {
  std::vector<LogEntry> entries;
  std::uint64_t next[4] = {0, 0, 0, 0};
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t g = 1 + rng.next_below(3);
    if (rng.next_bool(0.15)) {
      const EntryKind kind =
          rng.next_bool(0.5) ? EntryKind::kTombstone : EntryKind::kFloor;
      entries.push_back(LogEntry{GroupId{g}, next[g], kind, {}});
      continue;
    }
    entries.push_back(LogEntry{
        GroupId{g}, next[g]++, EntryKind::kUpdate,
        filler_bytes(rng.next_below(64),
                     static_cast<std::uint8_t>(rng.next_u64()))});
  }
  return entries;
}

Bytes build_segment(std::uint64_t id, const std::vector<LogEntry>& entries) {
  Bytes buf;
  disk::append_segment_header(buf, id);
  for (const LogEntry& e : entries) {
    disk::append_entry(buf, e.group, e.index, e.kind, e.body);
  }
  return buf;
}

// The core oracle: everything the scan returns must be a genuine written
// entry — group, index, kind and body — in order, from the start;
// corruption only ever truncates.
void expect_prefix(const SegmentScan& scan,
                   const std::vector<LogEntry>& truth) {
  ASSERT_LE(scan.entries.size(), truth.size());
  for (std::size_t i = 0; i < scan.entries.size(); ++i) {
    ASSERT_EQ(copy_of(scan.entries[i]), truth[i])
        << "entry " << i << " altered";
  }
}

TEST(StorageFuzz, TruncationAtEveryOffsetYieldsValidPrefix) {
  Rng rng(0xc0ffee);
  const std::vector<LogEntry> entries = make_entries(rng, 8);
  const Bytes full = build_segment(3, entries);
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    Bytes buf(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    const SegmentScan scan = scan_segment(buf);
    expect_prefix(scan, entries);
    if (cut == full.size()) {
      EXPECT_EQ(scan.entries.size(), entries.size());
      EXPECT_FALSE(scan.truncated);
    } else {
      EXPECT_TRUE(scan.truncated || scan.entries.size() < entries.size() ||
                  !scan.header_ok);
    }
  }
}

TEST(StorageFuzz, SeededBitflipsNeverResurrectOrAlter) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const std::vector<LogEntry> entries = make_entries(rng, 6);
    Bytes buf = build_segment(rng.next_below(1000), entries);
    // 1..4 independent bitflips anywhere in the image.
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      buf[rng.next_below(buf.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    const SegmentScan scan = scan_segment(buf);
    expect_prefix(scan, entries);
  }
}

TEST(StorageFuzz, GarbageTailsAreCut) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed * 77);
    const std::vector<LogEntry> entries = make_entries(rng, 4);
    Bytes buf = build_segment(1, entries);
    const std::size_t tail = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < tail; ++i) {
      buf.push_back(static_cast<std::uint8_t>(rng.next_u64()));
    }
    const SegmentScan scan = scan_segment(buf);
    expect_prefix(scan, entries);
  }
}

TEST(StorageFuzz, SplicedForeignTailIsNotMisattributed) {
  // Splice: a torn write leaves the tail of an OLD segment image past the
  // truncation point of the new one.  Any entry the scan accepts from the
  // spliced region must still be a byte-exact real entry — never a blend,
  // and never credited to a group other than the one it was written for.
  Rng rng(0x5eed);
  std::vector<LogEntry> current;
  for (std::uint64_t i = 0; i < 4; ++i) {
    current.push_back(LogEntry{GroupId{1}, i, EntryKind::kUpdate,
                               filler_bytes(10 + 7 * i, 0x11)});
  }
  // The old image holds a record that claims group 2 at an index group 1
  // also uses, with the very same body.
  const std::vector<LogEntry> old = {
      LogEntry{GroupId{2}, 3, EntryKind::kUpdate, filler_bytes(31, 0x11)},
      LogEntry{GroupId{1}, 9, EntryKind::kUpdate, filler_bytes(5, 0x22)}};
  const Bytes old_image = build_segment(1, old);
  const Bytes old_frames(old_image.begin() + static_cast<std::ptrdiff_t>(
                                                 disk::kSegmentHeaderBytes),
                         old_image.end());

  // (a) Chop the current image mid-entry, then splice old frames on: the
  // torn entry's header no longer matches, so the scan stops at or before
  // it and returns a prefix of the current image only.
  Bytes torn = build_segment(1, current);
  torn.resize(torn.size() - 3);
  torn.insert(torn.end(), old_frames.begin(), old_frames.end());
  const SegmentScan a = scan_segment(torn);
  ASSERT_LE(a.entries.size(), current.size());
  expect_prefix(a, current);

  // (b) Splice exactly on a frame boundary: the old frames are whole and
  // valid, so the scan accepts them — each under the group and index it
  // names, byte-exact.  The group-2 record stays group 2's.
  Bytes joined = build_segment(1, {current[0], current[1]});
  joined.insert(joined.end(), old_frames.begin(), old_frames.end());
  const SegmentScan b = scan_segment(joined);
  ASSERT_EQ(b.entries.size(), 4u);
  EXPECT_EQ(copy_of(b.entries[0]), current[0]);
  EXPECT_EQ(copy_of(b.entries[1]), current[1]);
  EXPECT_EQ(copy_of(b.entries[2]), old[0]);
  EXPECT_EQ(b.entries[2].group, GroupId{2});
  EXPECT_EQ(copy_of(b.entries[3]), old[1]);

  // (c) The group id sits inside the checksummed payload: rewriting it
  // (group 2 -> group 1) without the CRC stops the scan there, so a record
  // cannot be re-credited to another group.
  Bytes flipped = joined;
  const std::size_t third = disk::kSegmentHeaderBytes +
                            disk::entry_size_on_disk(current[0].body.size()) +
                            disk::entry_size_on_disk(current[1].body.size());
  flipped[third + disk::kRecordHeaderBytes] ^= 0x03;  // group 2 -> group 1
  const SegmentScan c = scan_segment(flipped);
  ASSERT_EQ(c.entries.size(), 2u);
  EXPECT_TRUE(c.truncated);
}

TEST(StorageFuzz, RandomGarbageBuffersNeverCrashAnyDecoder) {
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    Rng rng(seed * 0x9e3779b9u);
    Bytes buf(rng.next_below(300));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
    const SegmentScan scan = scan_segment(buf);
    // Whatever comes back must be internally consistent.
    EXPECT_LE(scan.valid_bytes, buf.size());
    (void)disk::decode_checkpoint_file(buf);
    if (const auto e = disk::decode_entry(buf)) {
      EXPECT_EQ(e->body.size() + disk::kEntryHeaderBytes, buf.size());
    }
  }
}

TEST(StorageFuzz, CheckpointBufferBitflipsAlwaysRejectWhole) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed + 31337);
    const std::string key = "group/" + std::to_string(rng.next_below(50));
    const Bytes blob = filler_bytes(rng.next_below(120));
    Bytes file = disk::encode_checkpoint_file(key, blob);
    file[rng.next_below(file.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    const auto decoded = disk::decode_checkpoint_file(file);
    // A checkpoint is atomic: it decodes byte-identical or not at all.
    if (decoded.has_value()) {
      EXPECT_EQ(decoded->key, key);
      EXPECT_EQ(decoded->blob, blob);
    }
  }
}

// ---------------------------------------------------------------------------
// File-level: mutilate a real log directory, reopen, assert the same prefix
// property — and that the recovered log still takes appends.
// ---------------------------------------------------------------------------

TEST(StorageFuzz, CorruptedLogDirectoryRecoversToValidPrefixAndStaysUsable) {
  constexpr std::uint64_t kGroups = 3;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    TempDir dir;
    DiskCounters counters;
    Rng rng(seed * 1315423911u);
    const std::string path = dir.path() + "/log";
    std::vector<Bytes> truth[kGroups + 1];
    {
      disk::SharedLog log(path, 160, &counters);
      std::vector<std::unique_ptr<disk::LogView>> views;
      for (std::uint64_t g = 1; g <= kGroups; ++g) {
        views.push_back(log.open(GroupId{g}));
      }
      const std::size_t n = 5 + rng.next_below(30);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t g = 1 + rng.next_below(kGroups);
        Bytes rec = filler_bytes(rng.next_below(48),
                                 static_cast<std::uint8_t>(rng.next_u64()));
        truth[g].push_back(rec);
        views[g - 1]->append(std::move(rec));
        if (rng.next_bool(0.6)) (void)views[0]->flush();
      }
      for (std::uint64_t g = 1; g <= kGroups; ++g) {
        // The unflushed tail is not on disk.
        truth[g].resize(views[g - 1]->durable_size());
      }
    }
    // Mutilate one random segment file: truncate, flip, or append garbage.
    std::vector<std::string> segs;
    for (const std::string& f : disk::list_files(path)) {
      if (f.starts_with("seg-")) segs.push_back(f);
    }
    if (!segs.empty() && rng.next_bool(0.8)) {
      const std::string victim =
          path + "/" + segs[rng.next_below(segs.size())];
      Bytes content = *disk::read_file(victim);
      const std::uint64_t kind = rng.next_below(3);
      if (kind == 0 && !content.empty()) {
        content.resize(rng.next_below(content.size()));
      } else if (kind == 1 && !content.empty()) {
        content[rng.next_below(content.size())] ^=
            static_cast<std::uint8_t>(1u << rng.next_below(8));
      } else {
        const std::size_t tail = 1 + rng.next_below(30);
        for (std::size_t i = 0; i < tail; ++i) {
          content.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        }
      }
      disk::atomic_write_file(victim, content, &counters);
    }
    std::size_t recovered_count[kGroups + 1] = {};
    {
      disk::SharedLog log(path, 160, &counters);
      std::vector<std::unique_ptr<disk::LogView>> views;
      for (std::uint64_t g = 1; g <= kGroups; ++g) {
        views.push_back(log.open(GroupId{g}));
        const disk::LogView& v = *views.back();
        // Per group: an unaltered prefix of what that group wrote.
        ASSERT_LE(v.size(), truth[g].size());
        EXPECT_EQ(v.start_index(), 0u);
        for (std::size_t i = 0; i < v.size(); ++i) {
          ASSERT_EQ(v.record(i), truth[g][i]) << "record altered";
        }
        recovered_count[g] = v.size();
      }
      // The survivor must still take writes.
      views[1]->append(to_bytes("post-corruption"));
      (void)views[1]->flush();
    }
    // And a second recovery sees the new record chained on cleanly.
    disk::SharedLog log(path, 160, &counters);
    for (std::uint64_t g = 1; g <= kGroups; ++g) {
      const auto v = log.open(GroupId{g});
      ASSERT_EQ(v->size(), recovered_count[g] + (g == 2 ? 1 : 0));
      if (g == 2) {
        EXPECT_EQ(to_string(v->record(v->size() - 1)), "post-corruption");
      }
    }
  }
}

TEST(StorageFuzz, SplicedCheckpointFileUnderWrongNameIsDropped) {
  TempDir dir;
  DiskCounters counters;
  const std::string path = dir.path() + "/ckpt";
  {
    disk::DiskCheckpointStore cs(path, &counters);
    cs.put("group/1", to_bytes("one"));
    cs.put("group/2", to_bytes("two"));
    cs.flush();
  }
  // Copy group/1's (internally valid) file over group/2's: the embedded key
  // no longer matches the filename, so the splice must be rejected, not
  // silently served as group/2's checkpoint.
  const std::vector<std::string> files = disk::list_files(path);
  ASSERT_EQ(files.size(), 2u);
  const Bytes first = *disk::read_file(path + "/" + files[0]);
  disk::atomic_write_file(path + "/" + files[1], first, &counters);
  disk::DiskCheckpointStore cs(path, &counters);
  EXPECT_EQ(cs.durable_keys(), (std::vector<std::string>{"group/1"}));
  EXPECT_GT(counters.corrupt_files_dropped, 0u);
}

}  // namespace
}  // namespace corona
