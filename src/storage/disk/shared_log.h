// One durable segmented log shared by every group of a DiskEnv, and the
// per-group views (LogBackend, storage/backend.h) that GroupStore reads and
// writes through StorageEnv::open_log.
//
// Layout (under <data>/log/):
//   seg-00000000000000000001.log   segments, named by a sequence number
//   seg-00000000000000000002.log   (fixed-width decimal, so name order is
//   ...                            log order); disk_format.h has the bytes
// Every entry names its group and its index in that group's own log, so one
// segment interleaves all groups and recovery rebuilds each group by index.
//
// Contract mapping:
//   * append() buffers the record in the view's memory — visible to the live
//     process at once, on disk not at all.  Process death loses exactly the
//     unflushed tail, which is the contract's crash() for free.
//   * flush() on any view commits the whole shared log: it frames every
//     view's pending records into one buffer, writes it to the active
//     segment with one write, runs one fdatasync, and returns the number of
//     records committed across all views.  The other views then find
//     nothing pending and return 0.  A commit that crosses segment_bytes
//     writes and syncs the outgoing segment at the hand-off, then continues
//     in a fresh one.
//   * drop_prefix(n) releases the records from memory and deletes every
//     segment in which no group still has a live record.  The next commit
//     carries a floor entry for the group, so recovery skips the covered
//     records that surviving segments still hold.  The floor is a hint: if
//     a crash loses it, GroupStore::recover filters those records by
//     sequence number against the checkpoint base.
//   * remove_log appends a tombstone — "every record of this group below
//     index N is dead" — and syncs it.  A later incarnation of the same id
//     starts at index N, so it can never recover a record of the earlier
//     one.
//
// Retention.  A segment is deleted once it holds no live record and no
// tombstone that an older segment still needs.  A group that stops writing
// would still pin its old segments, and with them every later one, so a
// commit copies the oldest segment's live records forward (same group, same
// index) when the segments on disk exceed kCopyForwardFactor times the most
// live bytes the log has held, plus kCopyForwardSlackSegments segments
// (docs/STORAGE.md explains the constants).  The copies are synced before
// the old segment is unlinked; a copy and its original are the same record
// to recovery, so a crash anywhere in between is safe.
//
// Recovery (the constructor) scans every segment once, in name order,
// accepting entries until the first invalid byte — torn header, bad length,
// CRC mismatch, malformed entry — then truncates the torn tail in place and
// deletes every later segment (strict truncation, FrameDecoder's teardown
// idiom).  Per group it drops entries below the latest tombstone or floor,
// keeps one copy per index, and keeps the contiguous run of indices that
// ends at the highest one: anything before a gap was released by
// drop_prefix.  Only the kept records are copied out of the file buffers.
// Opening a view afterwards hands it those records and does no I/O.
//
// Thread-safety: SharedLog has no lock of its own.  Only the views and the
// DiskEnv calls that forward to it (open_log, remove_log, list_logs) reach
// its state, and GroupStore makes every such call under its commit_mu_, so
// the commit thread and the owner's control plane never overlap here.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "storage/backend.h"
#include "storage/disk/disk_format.h"
#include "storage/disk/disk_io.h"
#include "util/bytes.h"
#include "util/context.h"
#include "util/ids.h"

namespace corona::disk {

class LogView;

class SharedLog {
 public:
  // Copy-forward trigger: segments on disk > factor x peak live bytes +
  // slack segments (docs/STORAGE.md "Retention").
  static constexpr std::uint64_t kCopyForwardFactor = 2;
  static constexpr std::uint64_t kCopyForwardSlackSegments = 4;

  // Opens (creating if absent) the log rooted at `dir` and scans every
  // segment.  `counters` (owned by the DiskEnv) must outlive this.
  CORONA_BLOCKING SharedLog(std::string dir, std::size_t segment_bytes,
                            DiskCounters* counters);
  ~SharedLog();
  SharedLog(const SharedLog&) = delete;
  SharedLog& operator=(const SharedLog&) = delete;

  // The view of group `id`, holding its recovered records.  No I/O.  At
  // most one view per id is open at a time.
  [[nodiscard]] std::unique_ptr<LogView> open(GroupId id);
  // Kills every record of `id` (tombstone + sync when any is on disk) and
  // reclaims the segments that frees.  The id's view must be closed.
  CORONA_BLOCKING void remove_group_log(GroupId id);
  // Ids with an open view, or with records of the current incarnation on
  // disk (live or floor-covered) that no view has claimed.
  [[nodiscard]] std::vector<GroupId> ids() const;

  // Disk-shape introspection (tests, docs).
  std::size_t segment_count() const { return segments_.size(); }
  std::uint64_t disk_bytes() const { return disk_bytes_; }
  std::uint64_t peak_live_bytes() const { return peak_live_bytes_; }

 private:
  friend class LogView;

  // One record as a view holds it: the payload plus the segment holding its
  // durable copy (0 while it is only in memory).
  struct Entry {
    Bytes record;
    std::uint64_t segment = 0;
  };
  struct Segment {
    std::uint64_t bytes = 0;         // file size (including unwritten scratch)
    std::size_t live_records = 0;    // records some group still holds
    // (group, index) of each tombstone in the segment.
    std::vector<std::pair<GroupId, std::uint64_t>> tombstones;
  };
  // Per group id: where its records are when no view holds them.
  struct Slot {
    LogView* view = nullptr;
    std::deque<Entry> records;  // records[i] has index base + i
    std::uint64_t base = 0;
    // An entry of the current incarnation may be on disk, so removing it
    // needs a tombstone.
    bool on_disk = false;
  };

  CORONA_BLOCKING void scan_segments();
  // Commits every view's pending records (flush() of any view).
  CORONA_BLOCKING std::size_t commit_all(LogView* caller);
  // Frames one entry for the active segment, rotating first when it is
  // full; `e` (updates only) is re-homed to the active segment.
  CORONA_BLOCKING void append_framed(GroupId group, std::uint64_t index,
                             EntryKind kind, Entry* e);
  CORONA_BLOCKING void start_segment();
  // Writes the framed bytes to the active segment (no sync).
  CORONA_BLOCKING void write_scratch();
  // A durable record leaves the live set (dropped, removed, or superseded).
  void release(const Entry& e);
  // Deletes every segment no longer needed.
  CORONA_BLOCKING void reclaim();
  bool should_copy_forward() const;
  std::string seg_path(std::uint64_t id) const;

  std::string dir_;
  std::size_t segment_bytes_;
  DiskCounters* counters_;

  std::map<std::uint64_t, Segment> segments_;  // by id: oldest first
  AppendFile active_;  // when open, appends to segments_.rbegin()
  std::uint64_t next_segment_id_ = 1;
  std::map<GroupId, Slot> slots_;  // ordered: commit framing order

  std::uint64_t disk_bytes_ = 0;       // sum of segment sizes
  std::uint64_t live_bytes_ = 0;       // on-disk size of live records
  std::uint64_t peak_live_bytes_ = 0;  // highest live_bytes_ so far
  Bytes scratch_;  // the commit's frame buffer
};

// A group's view of the shared log (the LogBackend GroupStore holds).
class LogView final : public LogBackend {
 public:
  ~LogView() override;  // hands the durable records back to the log

  void append(Bytes record) override;
  CORONA_BLOCKING std::size_t flush() override;
  void crash() override;
  CORONA_BLOCKING void drop_prefix(std::size_t n) override;

  std::size_t size() const override { return records_.size(); }
  std::size_t durable_size() const override { return durable_count_; }
  std::size_t unflushed() const override {
    return records_.size() - durable_count_;
  }
  const Bytes& record(std::size_t i) const override {
    return records_.at(i).record;
  }

  std::uint64_t bytes_appended() const override { return bytes_appended_; }
  std::uint64_t bytes_flushed() const override { return bytes_flushed_; }
  std::uint64_t pending_bytes() const override;

  std::uint64_t commits() const override { return commits_; }
  std::uint64_t records_flushed() const override { return records_flushed_; }
  std::size_t max_commit_records() const override {
    return max_commit_records_;
  }

  // Index of record(0) in the group's log.
  std::uint64_t start_index() const { return base_; }

 private:
  friend class SharedLog;
  LogView(SharedLog* log, GroupId id, std::deque<SharedLog::Entry> records,
          std::uint64_t base);

  SharedLog* log_;
  GroupId id_;
  std::deque<SharedLog::Entry> records_;  // records_[i] has index base_ + i
  std::uint64_t base_;
  std::size_t durable_count_;
  // drop_prefix moved base_: the next commit writes a floor entry, so that
  // recovery skips the covered records still sharing segments with live
  // ones.
  bool floor_moved_ = false;

  std::uint64_t bytes_appended_ = 0;
  std::uint64_t bytes_flushed_ = 0;
  std::uint64_t commits_ = 0;
  std::uint64_t records_flushed_ = 0;
  std::size_t max_commit_records_ = 0;
};

}  // namespace corona::disk
