#include "storage/group_store.h"

#include <algorithm>
#include <cassert>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "storage/mem_env.h"

namespace corona {
namespace {

// Decodes the fixed prefix of a checkpoint blob (everything recovery needs
// to re-attach a group); nullopt-style failure is signaled via Decoder::ok().
struct CheckpointImage {
  GroupMeta meta;
  SeqNo base_seq = 0;
  std::vector<StateEntry> snapshot;
};

bool decode_checkpoint_blob(const Bytes& blob, CheckpointImage* out) {
  Decoder d(blob);
  out->meta.id = GroupId(d.get_u64());
  out->meta.name = d.get_string();
  out->meta.persistent = d.get_bool();
  out->base_seq = d.get_u64();
  const std::uint32_t n = d.get_u32();
  for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
    StateEntry s;
    s.object = ObjectId(d.get_u64());
    s.data = d.get_bytes();
    out->snapshot.push_back(std::move(s));
  }
  return d.ok();
}

}  // namespace

GroupStore::GroupStore()
    : owned_env_(std::make_unique<MemStorageEnv>()), env_(owned_env_.get()) {}

GroupStore::GroupStore(StorageEnv* env) : env_(env) {
  // Reap orphan logs: groups that died before their first checkpoint flush
  // have no durable identity and must not resurrect under a recycled id.
  for (GroupId id : env_->list_logs()) {
    if (!checkpoints().get_durable(checkpoint_key(id)).has_value()) {
      env_->remove_log(id);
    }
  }
  // Re-attach every group with a durable checkpoint.
  for (const std::string& key : checkpoints().durable_keys()) {
    const auto blob = checkpoints().get_durable(key);
    if (!blob) continue;
    CheckpointImage image;
    if (!decode_checkpoint_blob(*blob, &image)) continue;
    groups_.emplace(image.meta.id,
                    PerGroup{image.meta, env_->open_log(image.meta.id)});
  }
}

std::string GroupStore::checkpoint_key(GroupId id) {
  return "group/" + std::to_string(id.value);
}

Bytes GroupStore::encode_checkpoint(
    const GroupMeta& meta, SeqNo base_seq,
    const std::vector<StateEntry>& snapshot) const {
  Encoder e;
  e.put_u64(meta.id.value);
  e.put_string(meta.name);
  e.put_bool(meta.persistent);
  e.put_u64(base_seq);
  e.put_u32(static_cast<std::uint32_t>(snapshot.size()));
  for (const StateEntry& s : snapshot) {
    e.put_u64(s.object.value);
    e.put_bytes(s.data);
  }
  return e.take();
}

// Control-plane call: holding commit_mu_ across its syncs is the wait that
// keeps commits out.
// reach: waive blocking-while-locked -- the control-plane wait
void GroupStore::create_group(const GroupMeta& meta,
                              const std::vector<StateEntry>& initial_state,
                              bool durable) {
  MutexLock lock(commit_mu_);
  assert(!groups_.contains(meta.id));
  groups_.emplace(meta.id, PerGroup{meta, env_->open_log(meta.id)});
  checkpoints().put(checkpoint_key(meta.id),
                    encode_checkpoint(meta, 0, initial_state));
  if (durable) {
    checkpoints().flush();
    return;
  }
  MutexLock stage(stage_mu_);
  ++staged_total_;  // the staged checkpoint is work for the next commit
}

// Control-plane call: holding commit_mu_ across its syncs is the wait that
// keeps commits out.
// reach: waive blocking-while-locked -- the control-plane wait
void GroupStore::remove_group(GroupId id) {
  MutexLock lock(commit_mu_);
  drain_staged();
  groups_.erase(id);
  // Same WAL ordering rule as install_checkpoint, mirrored: the durable
  // identity (the checkpoint) must be gone BEFORE its log storage is
  // reclaimed.  Destroying the log first would let a crash in between
  // resurrect the group at its checkpoint base with every flushed update
  // above base_seq permanently lost.
  checkpoints().erase(checkpoint_key(id));
  checkpoints().flush();
  env_->remove_log(id);
}

bool GroupStore::has_group(GroupId id) const {
  MutexLock lock(commit_mu_);
  return groups_.contains(id);
}

void GroupStore::append_update(GroupId id, const UpdateRecord& update) {
  Bytes record = encode_update_record(update);
  MutexLock lock(stage_mu_);
  staged_.push_back(Staged{id, std::move(record)});
  ++staged_total_;
}

std::uint64_t GroupStore::drain_staged() {
  std::vector<Staged> batch;
  std::uint64_t total = 0;
  {
    MutexLock lock(stage_mu_);
    batch.swap(staged_);
    total = staged_total_;
  }
  for (Staged& s : batch) {
    auto it = groups_.find(s.group);
    assert(it != groups_.end() && "append to unknown group");
    it->second.log->append(std::move(s.record));
  }
  return total;
}

// Control-plane call: holding commit_mu_ across its syncs is the wait that
// keeps commits out.
// reach: waive blocking-while-locked -- the control-plane wait
void GroupStore::install_checkpoint(GroupId id, SeqNo base_seq,
                                    const std::vector<StateEntry>& snapshot) {
  MutexLock lock(commit_mu_);
  drain_staged();
  auto it = groups_.find(id);
  assert(it != groups_.end());
  checkpoints().put(checkpoint_key(id),
                    encode_checkpoint(it->second.meta, base_seq, snapshot));
  // WAL checkpoint rule: the covering checkpoint must be durable BEFORE the
  // covered log prefix is destroyed.  drop_prefix reclaims durable storage
  // at once on a real backend, so a crash between a merely-staged checkpoint
  // and the drop would leave the old checkpoint plus a gapped log.  (The
  // fork+SIGKILL property test catches exactly this if the order regresses.)
  checkpoints().flush();
  // Drop log records now covered by the checkpoint.
  LogBackend& log = *it->second.log;
  std::size_t covered = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    auto rec = decode_update_record(log.record(i));
    if (!rec.is_ok() || rec.value().seq > base_seq) break;
    ++covered;
  }
  log.drop_prefix(covered);
}

// Builds the job on the loop; its body runs under Runtime::submit_commit,
// on SocketRuntime's commit thread.
// reach: waive blocking-in-loop-context -- the job runs off the loop
CommitJob GroupStore::commit_job() {
  std::uint64_t ticket = 0;
  {
    MutexLock lock(stage_mu_);
    ticket = staged_total_;
  }
  return [this, ticket] { return commit(ticket); };
}

// commit_mu_ is held across the syncs on purpose: it is what makes
// control-plane calls wait for the commit.
// reach: waive blocking-while-locked -- the commit holds commit_mu_
CommitResult GroupStore::commit(std::uint64_t ticket) {
  MutexLock lock(commit_mu_);
  // An earlier commit already made everything up to `ticket` durable: the
  // caller may complete at once, without waiting on newer records.
  if (ticket <= committed_total_) return {};
  const std::uint64_t total = drain_staged();
  CommitResult r;
  for (const auto& [id, g] : groups_) r.bytes += g.log->pending_bytes();
  checkpoints().flush();
  // On a shared log the first flush commits every group's records and the
  // others return 0, so the sum is the commit group either way.
  for (auto& [id, g] : groups_) r.records += g.log->flush();
  committed_total_ = total;
  return r;
}

std::size_t GroupStore::flush() { return commit(UINT64_MAX).records; }

// Control-plane call: holding commit_mu_ across its syncs is the wait that
// keeps commits out.
// reach: waive blocking-while-locked -- the control-plane wait
void GroupStore::crash() {
  MutexLock lock(commit_mu_);
  {
    MutexLock stage(stage_mu_);
    staged_.clear();  // never reached a log: lost like the unflushed tail
    committed_total_ = staged_total_;
  }
  checkpoints().crash();
  for (auto& [id, g] : groups_) g.log->crash();
  // Groups created but never flushed vanish entirely.
  std::vector<GroupId> gone;
  for (const auto& [id, g] : groups_) {
    if (!checkpoints().get_durable(checkpoint_key(id)).has_value()) {
      gone.push_back(id);
    }
  }
  for (GroupId id : gone) {
    groups_.erase(id);
    env_->remove_log(id);
  }
}

std::vector<RecoveredGroup> GroupStore::recover() const {
  MutexLock lock(commit_mu_);
  std::vector<RecoveredGroup> out;
  for (const std::string& key : checkpoints().durable_keys()) {
    const auto blob = checkpoints().get_durable(key);
    if (!blob) continue;
    CheckpointImage image;
    if (!decode_checkpoint_blob(*blob, &image)) continue;
    RecoveredGroup rg;
    rg.meta = image.meta;
    rg.base_seq = image.base_seq;
    rg.snapshot = std::move(image.snapshot);

    auto git = groups_.find(rg.meta.id);
    if (git != groups_.end()) {
      const LogBackend& log = *git->second.log;
      for (std::size_t i = 0; i < log.durable_size(); ++i) {
        auto rec = decode_update_record(log.record(i));
        if (rec.is_ok() && rec.value().seq > rg.base_seq) {
          rg.updates.push_back(std::move(rec).value());
        }
      }
    }
    std::sort(rg.updates.begin(), rg.updates.end(),
              [](const UpdateRecord& a, const UpdateRecord& b) {
                return a.seq < b.seq;
              });
    out.push_back(std::move(rg));
  }
  std::sort(out.begin(), out.end(),
            [](const RecoveredGroup& a, const RecoveredGroup& b) {
              return a.meta.id < b.meta.id;
            });
  return out;
}

SeqNo GroupStore::durable_head(GroupId id) const {
  MutexLock lock(commit_mu_);
  SeqNo head = 0;
  if (const auto blob = checkpoints().get_durable(checkpoint_key(id))) {
    CheckpointImage image;
    if (decode_checkpoint_blob(*blob, &image)) head = image.base_seq;
  }
  auto it = groups_.find(id);
  if (it == groups_.end()) return head;
  const LogBackend& log = *it->second.log;
  if (log.durable_size() == 0) return head;
  auto rec = decode_update_record(log.record(log.durable_size() - 1));
  return rec.is_ok() ? std::max(head, rec.value().seq) : head;
}

std::uint64_t GroupStore::pending_bytes() const {
  MutexLock lock(commit_mu_);
  std::uint64_t b = 0;
  for (const auto& [id, g] : groups_) b += g.log->pending_bytes();
  MutexLock stage(stage_mu_);
  for (const Staged& s : staged_) b += s.record.size();
  return b;
}

}  // namespace corona
