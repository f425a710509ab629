// CheckWorld — the system-under-exploration for corona-check.
//
// One CheckWorld is one hermetic Corona deployment (single server + clients,
// or a replicated star) driven by a *scripted* workload: group creation,
// joins, concurrent multicasts, lock contention, a late joiner and a final
// "nudge" multicast, all scheduled at fixed virtual times as untagged
// (kInternal) events.  Everything nondeterministic about an execution is the
// delivery order and fault timing the controlled scheduler chooses — the
// world itself is a deterministic function of that choice sequence, which is
// what makes traces replayable (see src/check/trace.h).
//
// The world doubles as the oracle bundle (ISSUE: protocol-invariant oracles
// after every step):
//
//   * total order    — every observation of (group, seq) — a client delivery,
//                      a join-transfer record, the server's own history —
//                      must carry identical content; per client, delivered
//                      seqs strictly increase.
//   * state transfer — a join reply's transferred history is folded into the
//                      same (group, seq) consistency map, so a transfer that
//                      disagrees with what members saw live is a violation.
//   * lock safety    — at most one client *believes* it holds a lock per
//                      server epoch (beliefs are granted by on_lock_granted
//                      and dropped when the release is sent or the epoch
//                      changes, since the lock table is volatile server
//                      state); the server-side queue may only evolve by FIFO
//                      grant-from-head, tail appends and full drains.
//   * convergence    — at the horizon, every caught-up replica (client state
//                      at the server's head seq; replicated: leaf copies and
//                      clients at the coordinator's head) is byte-identical
//                      with the authority.
//   * durable-before-ack — single-server kSync only: a client may deliver
//                      (group, seq) only once a completed commit covers it,
//                      i.e. seq <= the store's durable head as of the
//                      submission of the last commit whose completion has
//                      fired (SimRuntime::set_commit_observer).  The sim
//                      runs commit jobs inline, so the store itself is
//                      durable early; the completion is what the server
//                      may act on.
//   * structure      — every existing check_invariants() walk stays quiet.
//
// Violations accumulate into a report string; the first one ends the run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "replica/replica_server.h"
#include "runtime/sim_runtime.h"
#include "storage/group_store.h"

namespace corona::check {

struct WorldOptions {
  enum class Mode { kSingleServer, kReplicated };
  Mode mode = Mode::kSingleServer;

  std::size_t clients = 3;
  // Replicated mode: total servers, coordinator first (so 3 = coordinator +
  // 2 leaves).  Ignored in single-server mode.
  std::size_t servers = 3;

  int multicasts_per_client = 2;
  bool locks = true;
  bool late_joiner = true;

  // Fault budgets the scheduler may spend at decision points.
  // Single-server: crash+restart cycles of the server (disk survives).
  // Replicated: fail-stop crashes of the coordinator (election takes over).
  int max_crashes = 1;
  // Transient partitions of the highest-numbered client (healed on a timer).
  int max_partitions = 1;

  // Mutation switch for the harness's own regression test: clients run with
  // gap detection off, so a reordered delivery is applied out of order and
  // the total-order oracle must catch it.
  bool seed_ordering_bug = false;

  // Batched fan-out under exploration: > 1 turns on the server-side batch
  // queue (ServerConfig / ReplicaConfig), so the scheduler's choices include
  // where batch boundaries fall.  Deliveries must stay exactly contiguous
  // per (client, group) across those boundaries — enforced by a gap oracle
  // that only arms when batching is on (the unbatched gates keep their
  // original oracle set).
  std::size_t batch_max_msgs = 1;
  Duration batch_max_delay = 2 * kMillisecond;
  // Mutation: the server drops the tail record of every coalesced batch
  // frame (ServerConfig::debug_drop_batch_tail) and clients run without gap
  // detection, so the dropped tail surfaces as a (group, seq) gap the
  // batch-boundary oracle must catch.  Forces batch_max_msgs >= 2.
  bool seed_batch_bug = false;

  // kSync keeps "delivered => durable", which the cross-crash total-order
  // oracle depends on; with kAsync the (group, seq) map is reset per server
  // epoch instead (a recovering server may legitimately re-sequence).
  // Single-server kSync also arms the durable-before-ack oracle.
  FlushPolicy flush = FlushPolicy::kSync;

  // Mutation: the server delivers each multicast when its commit is
  // submitted rather than when the commit completes
  // (ServerConfig::debug_ack_before_commit), so deliveries run ahead of the
  // disk and the durable-before-ack oracle must catch them.
  bool seed_commit_bug = false;
};

class CheckWorld {
 public:
  explicit CheckWorld(const WorldOptions& options);
  ~CheckWorld();

  CheckWorld(const CheckWorld&) = delete;
  CheckWorld& operator=(const CheckWorld&) = delete;

  SimRuntime& rt() { return rt_; }

  // Schedules the scripted workload and the end-of-run fence.  Call once,
  // before running events.
  void arm();

  // Virtual time at which the run ends (the fence).
  TimePoint horizon() const { return horizon_; }
  bool finished() const { return fence_hit_; }

  bool violated() const { return !report_.empty(); }
  const std::string& violation() const { return report_; }
  // Folds in a violation detected outside the world's own oracles (the
  // explorer routes CORONA_INVARIANT checkpoint failures here).
  void external_fail(const std::string& what) { fail(what); }

  // -- fault actions (invoked by the controlled scheduler) -------------------
  bool fault_window_open() const;
  bool can_crash_server() const;
  void crash_server();
  bool can_partition_client() const;
  void partition_client();

  // -- oracles ---------------------------------------------------------------
  // Full invariant walks + lock-queue evolution; meant to run every few
  // steps and at decision points (per-delivery checks are callback-driven
  // and always on).
  void heavy_check();
  // Quiescent convergence oracles; run once, after the fence.
  void final_check();

  // FNV-1a hash of the protocol-visible state (replicas, server groups,
  // lock beliefs, fault budgets, pending-event tags) with every timestamp
  // excluded — two executions that hash equal here are schedule-equivalent
  // for pruning purposes.
  std::uint64_t state_hash();

  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t server_epoch() const { return server_epoch_; }
  int crashes_used() const { return options_.max_crashes - crashes_left_; }
  int partitions_used() const {
    return options_.max_partitions - partitions_left_;
  }

 private:
  struct Digest {
    std::uint64_t sender = 0;
    std::uint64_t request_id = 0;
    std::uint8_t kind = 0;
    std::uint64_t object = 0;
    std::uint64_t data_hash = 0;

    friend bool operator==(const Digest&, const Digest&) = default;
  };
  struct LockSnapshot {
    std::optional<NodeId> holder;
    std::vector<NodeId> queue;
  };

  void fail(const std::string& what);
  ServerConfig single_server_config() const;
  void build_single();
  void build_replicated();
  CoronaClient::Callbacks callbacks_for(std::size_t i);
  void on_deliver(std::size_t i, GroupId g, const UpdateRecord& rec);
  void on_commit(std::uint64_t tag, bool completed);
  void on_joined(std::size_t i, GroupId g, Status s);
  void on_lock_granted(std::size_t i, GroupId g, ObjectId obj);
  void check_record(GroupId g, const UpdateRecord& rec, const std::string& via);
  void unlock_if_held(std::size_t i);
  void check_lock_evolution(GroupId g, const LockTable& locks);
  void check_client_states();
  const ReplicaServer* live_coordinator() const;

  WorldOptions options_;
  SimRuntime rt_;

  // Single-server mode.
  GroupStore store_;  // the server machine's disk; survives restarts
  std::unique_ptr<CoronaServer> server_;

  // Replicated mode.
  std::vector<std::unique_ptr<ReplicaServer>> replicas_;
  std::vector<NodeId> server_ids_;

  std::vector<std::unique_ptr<CoronaClient>> clients_;

  // Workload timeline (set by the constructor per mode).
  TimePoint fault_open_ = 0;
  TimePoint fault_close_ = 0;
  TimePoint horizon_ = 0;
  bool armed_ = false;
  bool fence_hit_ = false;

  // Fault state.
  int crashes_left_ = 0;
  int partitions_left_ = 0;
  std::uint64_t server_epoch_ = 0;  // bumped per server crash
  bool partition_active_ = false;

  // Oracle state.
  std::string report_;
  std::map<std::pair<std::uint64_t, SeqNo>, Digest> order_;  // (group, seq)
  std::vector<std::map<std::uint64_t, SeqNo>> last_seq_;     // [client][group]
  std::vector<std::set<std::uint64_t>> wants_join_;          // [client]
  // Lock beliefs: object -> (client index, epoch of the grant).
  std::map<std::uint64_t, std::pair<std::size_t, std::uint64_t>> believed_;
  std::map<std::uint64_t, LockSnapshot> lock_prev_;  // single-server FIFO audit
  std::uint64_t deliveries_ = 0;
  // Durable-before-ack: the store's durable head of kG at each in-flight
  // commit's submission (by completion tag), and the highest such head a
  // fired completion has published.
  std::map<std::uint64_t, SeqNo> commit_head_;
  SeqNo acked_head_ = 0;
};

}  // namespace corona::check
