// The durable StorageEnv: one data directory holding everything a server
// needs to survive kill -9.
//
// Layout:
//   <dir>/ckpt/   checkpoint files (DiskCheckpointStore)
//   <dir>/log/    one segmented log shared by every group (SharedLog)
//
// Construction opens (creating if absent) the directory tree, loads every
// valid checkpoint and scans the log once; open_log then hands each group
// its recovered records without touching the disk.  Reopening a DiskEnv on
// the same directory after a crash and constructing a GroupStore over it is
// the entire recovery story — CoronaServer::recover_from_store() then
// replays what GroupStore::recover() hands back.
//
// A directory in the per-group layout of earlier versions (<dir>/groups/
// <id>/seg-*.log) is refused, not read: the constructor logs which
// directory and fail-stops, because starting empty would drop those records
// without a word.
//
// Thread-safety: the log's state is reached only through the views and the
// open_log/remove_log/list_logs calls, all made under GroupStore's
// commit_mu_ (storage/disk/shared_log.h).
//
// All backends of one env share one DiskCounters block, surfaced by stats().
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "storage/backend.h"
#include "storage/disk/disk_checkpoint.h"
#include "storage/disk/disk_io.h"
#include "storage/disk/shared_log.h"

namespace corona::disk {

struct DiskEnvConfig {
  std::string dir;
  // Segment rotation threshold; a segment takes its last record when it
  // crosses this size, so files stay near it rather than exactly under it.
  std::size_t segment_bytes = 1u << 20;
};

class DiskEnv final : public StorageEnv {
 public:
  CORONA_BLOCKING explicit DiskEnv(DiskEnvConfig config);

  std::unique_ptr<LogBackend> open_log(GroupId id) override {
    return log_.open(id);
  }
  CORONA_BLOCKING void remove_log(GroupId id) override {
    log_.remove_group_log(id);
  }
  std::vector<GroupId> list_logs() const override { return log_.ids(); }

  CheckpointBackend& checkpoints() override { return checkpoints_; }
  const CheckpointBackend& checkpoints() const override {
    return checkpoints_;
  }

  const std::string& dir() const { return config_.dir; }
  const DiskCounters& stats() const { return counters_; }
  const SharedLog& log() const { return log_; }

 private:
  DiskEnvConfig config_;
  DiskCounters counters_;
  DiskCheckpointStore checkpoints_;
  SharedLog log_;
};

}  // namespace corona::disk
