// Per-group durable storage: checkpoint + update log, with recovery.
//
// The server persists, for every group:
//   * a checkpoint — group metadata, a base sequence number, and the state
//     snapshot as of that sequence number (rewritten by log reduction);
//   * an update log — one record per sequenced state message after the base.
//
// A restarted server calls recover() and gets back exactly the durable view:
// persistent groups with their snapshot and every *flushed* update.  Unflushed
// updates are lost, matching the paper's §6 crash model, and are re-fetched
// from original senders by the recovery protocol (src/replica/recovery.*).
//
// GroupStore programs against the backend interfaces (storage/backend.h).
// Default-constructed it runs on the in-memory env (storage/mem_env.h); given
// a StorageEnv* it runs on that backend instead — hand it a disk::DiskEnv and
// the same call sequence becomes genuinely durable.  Constructing a
// GroupStore over a reopened DiskEnv re-attaches every group that has a
// durable checkpoint (and reaps orphan logs of groups that never got one),
// so recover() works identically across a real process restart.
//
// Commit pipeline.  append_update only *stages* the encoded record; a commit
// (commit_job(), run by Runtime::submit_commit, possibly on an engine's
// commit thread) moves every record staged so far into the group logs and
// syncs each log it touched, so records that arrive while one commit syncs
// join the next.  Every other call runs on the owner's thread.  The ones
// that touch the backends — group create/remove, checkpoint install,
// flush, crash, recovery and the accessors — first wait until no commit
// is running (commit_mu_).  Those that change a log then move the staged
// records into the logs themselves, so the logs see the same operations,
// in the same order, as when every append went straight to the log.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/runtime.h"
#include "serial/message.h"
#include "storage/backend.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/result.h"
#include "util/sync.h"

namespace corona {

struct GroupMeta {
  GroupId id;
  std::string name;
  bool persistent = false;

  friend bool operator==(const GroupMeta&, const GroupMeta&) = default;
};

// Durable image of one group, as produced by recovery.
struct RecoveredGroup {
  GroupMeta meta;
  SeqNo base_seq = 0;  // snapshot is the state as of this sequence number
  std::vector<StateEntry> snapshot;
  std::vector<UpdateRecord> updates;  // strictly after base_seq, ascending
};

class GroupStore {
 public:
  // CORONA_BLOCKING below = "blocks when backed by the disk env": callers
  // cannot know which backend they run on, so the durable case is the
  // contract (tools/reach, ANALYSIS.md §12).  append_update and recover
  // only touch memory on every backend and stay unannotated.

  // In-memory backend (owned).
  GroupStore();
  // Runs on `env`, which must outlive this store.  Re-attaches every group
  // with a durable checkpoint, reopening its log.
  CORONA_BLOCKING explicit GroupStore(StorageEnv* env);

  // Creates durable structures for a group.  The checkpoint is staged
  // (durable at the next commit or flush()) unless `durable`, which syncs
  // it before returning.
  CORONA_BLOCKING void create_group(const GroupMeta& meta,
                                    const std::vector<StateEntry>& initial_state,
                                    bool durable = false);
  // Durable immediately (flushes the checkpoint erase before reclaiming the
  // group's log storage — the WAL ordering rule, same as install_checkpoint).
  CORONA_BLOCKING void remove_group(GroupId id);
  bool has_group(GroupId id) const;

  // Stages one sequenced update for the group's log; the next commit (or
  // flush()) appends and syncs it.  Never waits for a running commit.
  void append_update(GroupId id, const UpdateRecord& update);

  // Log reduction (paper §3.2): installs a new checkpoint at `base_seq` with
  // `snapshot`, and drops logged updates with seq <= base_seq.
  CORONA_BLOCKING void install_checkpoint(GroupId id, SeqNo base_seq,
                                          const std::vector<StateEntry>& snapshot);

  // The commit the runtime runs for this store (Runtime::submit_commit): it
  // takes every record staged before it starts, writes them, then syncs
  // the staged checkpoints and each log with unsynced records.  A job
  // whose records an earlier commit already covered returns at once and
  // syncs nothing.  The store must outlive every job it hands out.
  CommitJob commit_job();

  // Synchronous commit on the calling thread.  Returns the number of log
  // records it made durable across all groups — the commit-group size.
  // Callers that only want the side effect acknowledge with `(void)`.
  [[nodiscard]] CORONA_BLOCKING std::size_t flush();
  void crash();

  // Reads the durable view back, as a restarted server would.
  [[nodiscard]] std::vector<RecoveredGroup> recover() const;
  // Highest sequence number of `id` that survives a crash right now: the
  // last durable log record, or the durable checkpoint's base (0 if none).
  SeqNo durable_head(GroupId id) const;

  // Bytes that the next commit would push to the device.
  std::uint64_t pending_bytes() const;

 private:
  struct PerGroup {
    GroupMeta meta;
    std::unique_ptr<LogBackend> log;
  };
  // An encoded update waiting for the next commit.
  struct Staged {
    GroupId group;
    Bytes record;
  };

  static std::string checkpoint_key(GroupId id);
  Bytes encode_checkpoint(const GroupMeta& meta, SeqNo base_seq,
                          const std::vector<StateEntry>& snapshot) const;
  // Moves every staged record into its group's log (appended, not synced);
  // returns staged_total_ as of the move.
  std::uint64_t drain_staged() CORONA_REQUIRES(commit_mu_);
  // One commit: drain, then sync checkpoints and every log — unless an
  // earlier commit already covered the first `ticket` staged items.
  CommitResult commit(std::uint64_t ticket) CORONA_EXCLUDES(commit_mu_);
  CheckpointBackend& checkpoints() { return env_->checkpoints(); }
  const CheckpointBackend& checkpoints() const {
    return static_cast<const StorageEnv*>(env_)->checkpoints();
  }

  std::unique_ptr<StorageEnv> owned_env_;  // set only by the default ctor
  StorageEnv* env_;
  // Held by every commit and by every owner-thread call that touches the
  // backends (the control-plane wait); never by append_update.
  mutable Mutex commit_mu_;
  // Ordered map: commits and crash() iterate it with externally visible
  // side effects (per-log fsync order, reap order), which must not depend
  // on a hash seed (corona-lint unordered-container, ANALYSIS.md §4).
  std::map<GroupId, PerGroup> groups_ CORONA_GUARDED_BY(commit_mu_);
  // Staged items covered by the last commit: a job whose ticket is at most
  // this completes without syncing.
  std::uint64_t committed_total_ CORONA_GUARDED_BY(commit_mu_) = 0;
  // Lock order: commit_mu_ before stage_mu_.
  mutable Mutex stage_mu_;
  std::vector<Staged> staged_ CORONA_GUARDED_BY(stage_mu_);
  // Items ever staged (update records and async-create checkpoints); a
  // commit job's ticket is this count at the job's creation.
  std::uint64_t staged_total_ CORONA_GUARDED_BY(stage_mu_) = 0;
};

}  // namespace corona
