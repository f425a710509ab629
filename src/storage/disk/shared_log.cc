#include "storage/disk/shared_log.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace corona::disk {
namespace {

constexpr std::size_t kDigits = 20;  // fixed width: name order = log order

std::string segment_name(std::uint64_t id) {
  std::string digits = std::to_string(id);
  return "seg-" + std::string(kDigits - digits.size(), '0') + digits + ".log";
}

std::optional<std::uint64_t> parse_segment_name(const std::string& name) {
  if (name.size() != 4 + kDigits + 4 || !name.starts_with("seg-") ||
      !name.ends_with(".log")) {
    return std::nullopt;
  }
  std::uint64_t id = 0;
  for (std::size_t i = 4; i < 4 + kDigits; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    id = id * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return id;
}

}  // namespace

// ---------------------------------------------------------------------------
// SharedLog
// ---------------------------------------------------------------------------

SharedLog::SharedLog(std::string dir, std::size_t segment_bytes,
                     DiskCounters* counters)
    : dir_(std::move(dir)), segment_bytes_(segment_bytes),
      counters_(counters) {
  ensure_dir(dir_);
  scan_segments();
}

SharedLog::~SharedLog() {
  assert(std::none_of(slots_.begin(), slots_.end(),
                      [](const auto& s) { return s.second.view != nullptr; }) &&
         "a view outlived its log");
}

std::string SharedLog::seg_path(std::uint64_t id) const {
  return dir_ + "/" + segment_name(id);
}

void SharedLog::scan_segments() {
  // Pass 1, in log order: validate every segment and note each group's
  // floors.  The buffers stay in memory so that pass 2 copies only the
  // records it keeps.
  struct Scanned {
    std::uint64_t id;
    Bytes buf;
    SegmentScan scan;
  };
  std::vector<Scanned> scanned;
  std::map<GroupId, std::uint64_t> tombstone_floor;  // removal: all below
  std::map<GroupId, std::uint64_t> floor;  // tombstones and checkpoint floors
  bool chain_broken = false;
  bool removed_or_truncated = false;
  for (const std::string& name : list_files(dir_)) {
    const std::optional<std::uint64_t> id = parse_segment_name(name);
    if (!id) continue;
    const std::string path = dir_ + "/" + name;
    if (chain_broken) {  // nothing past a torn point survives
      remove_file(path);
      removed_or_truncated = true;
      ++counters_->corrupt_files_dropped;
      continue;
    }
    std::optional<Bytes> buf = read_file(path);
    if (!buf) buf.emplace();
    Scanned& sc = scanned.emplace_back(Scanned{*id, std::move(*buf), {}});
    sc.scan = scan_segment(sc.buf);
    if (!sc.scan.header_ok || sc.scan.segment_id != *id) {
      scanned.pop_back();
      remove_file(path);
      removed_or_truncated = true;
      ++counters_->corrupt_files_dropped;
      chain_broken = true;
      continue;
    }
    if (sc.scan.truncated) {
      counters_->truncated_bytes += sc.buf.size() - sc.scan.valid_bytes;
      truncate_file(path, sc.scan.valid_bytes, counters_);
      removed_or_truncated = true;
      chain_broken = true;  // later segments postdate the torn tail
    }
    Segment& seg = segments_[*id];
    seg.bytes = sc.scan.valid_bytes;
    disk_bytes_ += seg.bytes;
    next_segment_id_ = *id + 1;
    for (const EntryView& e : sc.scan.entries) {
      if (e.kind == EntryKind::kUpdate) continue;
      std::uint64_t& f = floor[e.group];
      f = std::max(f, e.index);
      if (e.kind == EntryKind::kTombstone) {
        seg.tombstones.emplace_back(e.group, e.index);
        std::uint64_t& t = tombstone_floor[e.group];
        t = std::max(t, e.index);
      }
    }
  }
  // The unlinks above are just dirty directory pages until the directory is
  // synced; a later power loss could resurrect a dropped segment.
  if (removed_or_truncated) sync_dir(dir_, counters_);

  // Pass 2: per group, one record per index at or above its floor (a later
  // segment holds the copy, which is the same record).
  struct Found {
    std::uint64_t index;
    std::uint64_t segment;
    BytesView record;
  };
  std::map<GroupId, std::vector<Found>> found;
  for (const auto& [g, f] : floor) slots_[g].base = f;
  for (const Scanned& sc : scanned) {
    for (const EntryView& e : sc.scan.entries) {
      if (e.kind != EntryKind::kUpdate) continue;
      Slot& slot = slots_[e.group];
      // Dead or alive, a record of the current incarnation is on disk, so
      // removing the group must write a tombstone.
      if (e.index >= tombstone_floor[e.group]) slot.on_disk = true;
      if (e.index >= slot.base) {
        found[e.group].push_back(Found{e.index, sc.id, e.body});
      }
    }
  }
  for (auto& [group, list] : found) {
    Slot& slot = slots_[group];
    std::stable_sort(list.begin(), list.end(),
                     [](const Found& a, const Found& b) {
                       return a.index < b.index;
                     });
    std::vector<Found> kept;
    for (const Found& f : list) {
      if (!kept.empty() && kept.back().index == f.index) {
        kept.back() = f;
      } else {
        kept.push_back(f);
      }
    }
    // Records before a gap were released by drop_prefix: the group's log is
    // the contiguous run that ends at its highest index.
    std::size_t first = kept.size() - 1;
    while (first > 0 && kept[first - 1].index + 1 == kept[first].index) {
      --first;
    }
    slot.base = kept[first].index;
    for (std::size_t i = first; i < kept.size(); ++i) {
      ++segments_.at(kept[i].segment).live_records;
      live_bytes_ += entry_size_on_disk(kept[i].record.size());
      const BytesView body = kept[i].record;
      slot.records.push_back(
          Entry{Bytes(body.begin(), body.end()), kept[i].segment});
      ++counters_->recovered_records;
    }
  }
  peak_live_bytes_ = live_bytes_;
  reclaim();
}

std::unique_ptr<LogView> SharedLog::open(GroupId id) {
  Slot& slot = slots_[id];
  assert(slot.view == nullptr && "one open view per group");
  std::unique_ptr<LogView> view(
      new LogView(this, id, std::move(slot.records), slot.base));
  slot.records.clear();
  slot.view = view.get();
  return view;
}

void SharedLog::remove_group_log(GroupId id) {
  const auto it = slots_.find(id);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  assert(slot.view == nullptr && "remove_log with the group's view open");
  for (const Entry& e : slot.records) release(e);
  slot.base += slot.records.size();
  slot.records.clear();
  if (slot.on_disk) {
    // The next incarnation starts at slot.base, above every index the
    // tombstone kills.
    append_framed(id, slot.base, EntryKind::kTombstone, nullptr);
    write_scratch();
    active_.sync();
    slot.on_disk = false;
  } else if (slot.base == 0) {
    slots_.erase(it);  // never reached the disk: nothing to remember
  }
  reclaim();
}

std::vector<GroupId> SharedLog::ids() const {
  std::vector<GroupId> out;
  for (const auto& [id, slot] : slots_) {
    // A slot whose records a floor covered still has dead records on disk:
    // an orphan of it must be reaped with a tombstone like any other, or a
    // re-created id could later splice them back into its own run.
    if (slot.view != nullptr || !slot.records.empty() || slot.on_disk) {
      out.push_back(id);
    }
  }
  return out;
}

std::size_t SharedLog::commit_all(LogView* caller) {
  std::size_t committed = 0;
  for (const auto& [id, slot] : slots_) {
    if (slot.view != nullptr) committed += slot.view->unflushed();
  }
  if (committed == 0) return 0;

  // Copy-forward: the oldest segment's live records ride along, same group
  // and index, so the segment can go once this commit is synced.
  std::uint64_t copied_from = 0;
  if (should_copy_forward()) {
    copied_from = segments_.begin()->first;
    for (auto& [id, slot] : slots_) {
      LogView* v = slot.view;
      std::deque<Entry>& recs = v != nullptr ? v->records_ : slot.records;
      const std::uint64_t base = v != nullptr ? v->base_ : slot.base;
      const std::size_t durable =
          v != nullptr ? v->durable_count_ : slot.records.size();
      for (std::size_t i = 0; i < durable; ++i) {
        if (recs[i].segment != copied_from) continue;
        append_framed(id, base + i, EntryKind::kUpdate, &recs[i]);
        ++counters_->records_copied;
      }
    }
  }
  for (auto& [id, slot] : slots_) {
    LogView* v = slot.view;
    if (v == nullptr) continue;
    if (v->floor_moved_) {
      append_framed(id, v->base_, EntryKind::kFloor, nullptr);
      v->floor_moved_ = false;
    }
    if (v->unflushed() == 0) continue;
    for (std::size_t i = v->durable_count_; i < v->records_.size(); ++i) {
      append_framed(id, v->base_ + i, EntryKind::kUpdate, &v->records_[i]);
      v->bytes_flushed_ += v->records_[i].record.size();
    }
    v->durable_count_ = v->records_.size();
    slot.on_disk = true;
  }
  write_scratch();
  active_.sync();  // one device sync for the whole commit
  if (scratch_.capacity() > segment_bytes_) Bytes().swap(scratch_);

  ++caller->commits_;
  caller->records_flushed_ += committed;
  caller->max_commit_records_ =
      std::max(caller->max_commit_records_, committed);
  peak_live_bytes_ = std::max(peak_live_bytes_, live_bytes_);
  if (copied_from != 0) reclaim();
  return committed;
}

void SharedLog::append_framed(GroupId group, std::uint64_t index,
                              EntryKind kind, Entry* e) {
  if (!active_.is_open()) {
    // Resume the newest segment if it has room; recovery already cut any
    // torn tail off it.
    const auto newest = segments_.rbegin();
    if (newest != segments_.rend() && newest->second.bytes < segment_bytes_) {
      active_ = AppendFile::open(seg_path(newest->first), counters_);
    } else {
      start_segment();
    }
  } else if (segments_.rbegin()->second.bytes >= segment_bytes_) {
    start_segment();
  }
  const BytesView body = e != nullptr ? BytesView(e->record) : BytesView{};
  const std::uint64_t size = entry_size_on_disk(body.size());
  append_entry(scratch_, group, index, kind, body);
  auto& [seg_id, seg] = *segments_.rbegin();
  seg.bytes += size;
  disk_bytes_ += size;
  if (kind != EntryKind::kUpdate) {
    if (kind == EntryKind::kTombstone) {
      seg.tombstones.emplace_back(group, index);
    }
    return;
  }
  release(*e);  // a copy supersedes its original
  e->segment = seg_id;
  ++seg.live_records;
  live_bytes_ += size;
}

void SharedLog::start_segment() {
  // A commit can span a rotation, and the end-of-commit sync only reaches
  // the new segment.  The outgoing one must hit the device at the hand-off,
  // or a power loss after the commit returns tears acknowledged records out
  // of it — and the strict-truncation rule then drops the newer segments.
  if (active_.is_open()) {
    write_scratch();
    active_.sync();
  }
  active_.close();
  const std::uint64_t id = next_segment_id_++;
  active_ = AppendFile::open(seg_path(id), counters_);
  append_segment_header(scratch_, id);
  Segment& seg = segments_[id];
  seg.bytes = kSegmentHeaderBytes;
  disk_bytes_ += kSegmentHeaderBytes;
  ++counters_->segments_created;
}

void SharedLog::write_scratch() {
  if (scratch_.empty()) return;
  active_.write(scratch_);
  scratch_.clear();
}

void SharedLog::release(const Entry& e) {
  if (e.segment == 0) return;  // never reached the disk
  --segments_.at(e.segment).live_records;
  live_bytes_ -= entry_size_on_disk(e.record.size());
}

bool SharedLog::should_copy_forward() const {
  return segments_.size() > 1 &&
         disk_bytes_ > kCopyForwardFactor * peak_live_bytes_ +
                           kCopyForwardSlackSegments * segment_bytes_;
}

void SharedLog::reclaim() {
  bool unsynced = false;
  for (auto it = segments_.begin(); it != segments_.end();) {
    const Segment& seg = it->second;
    // A tombstone matters while an older segment may hold what it kills.
    const bool needed = seg.live_records > 0 ||
                        (!seg.tombstones.empty() && it != segments_.begin());
    if (needed) {
      ++it;
      continue;
    }
    if (!seg.tombstones.empty() && unsynced) {
      // The older segments' unlinks must be durable before the tombstone
      // that kills their records goes.
      sync_dir(dir_, counters_);
      unsynced = false;
    }
    if (std::next(it) == segments_.end()) active_.close();  // the active one
    remove_file(seg_path(it->first));
    ++counters_->segments_deleted;
    disk_bytes_ -= seg.bytes;
    for (const auto& [group, index] : seg.tombstones) {
      // With every older segment gone nothing below the floor is left, so
      // an idle id can start again at index 0.
      const auto s = slots_.find(group);
      if (s != slots_.end() && s->second.view == nullptr &&
          s->second.records.empty() && !s->second.on_disk &&
          s->second.base == index) {
        slots_.erase(s);
      }
    }
    it = segments_.erase(it);
    unsynced = true;
  }
  if (unsynced) sync_dir(dir_, counters_);
}

// ---------------------------------------------------------------------------
// LogView
// ---------------------------------------------------------------------------

LogView::LogView(SharedLog* log, GroupId id,
                 std::deque<SharedLog::Entry> records, std::uint64_t base)
    : log_(log), id_(id), records_(std::move(records)), base_(base),
      durable_count_(records_.size()) {
  for (const SharedLog::Entry& e : records_) {
    bytes_appended_ += e.record.size();
    bytes_flushed_ += e.record.size();
  }
}

LogView::~LogView() {
  SharedLog::Slot& slot = log_->slots_.at(id_);
  records_.resize(durable_count_);  // the unflushed tail was never written
  slot.records = std::move(records_);
  slot.base = base_;
  slot.view = nullptr;
}

void LogView::append(Bytes record) {
  bytes_appended_ += record.size();
  records_.push_back(SharedLog::Entry{std::move(record), 0});
}

std::size_t LogView::flush() { return log_->commit_all(this); }

void LogView::crash() {
  // Unflushed records were never written; dropping them from the live view
  // makes it identical to the on-disk (and post-restart) view.
  records_.resize(durable_count_);
}

void LogView::drop_prefix(std::size_t n) {
  n = std::min(n, records_.size());
  if (n == 0) return;
  for (std::size_t i = 0; i < n; ++i) log_->release(records_[i]);
  records_.erase(records_.begin(),
                 records_.begin() + static_cast<std::ptrdiff_t>(n));
  base_ += n;
  durable_count_ -= std::min(durable_count_, n);
  floor_moved_ = true;
  log_->reclaim();
}

std::uint64_t LogView::pending_bytes() const {
  std::uint64_t b = 0;
  for (std::size_t i = durable_count_; i < records_.size(); ++i) {
    b += records_[i].record.size();
  }
  return b;
}

}  // namespace corona::disk
