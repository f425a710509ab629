// Coordinator-side handlers of ReplicaServer.  See coordinator.h for the
// protocol overview and replica_server.cc for the leaf side.
#include <algorithm>
#include <cassert>
#include <cmath>

#include "replica/coordinator.h"
#include "util/logging.h"

namespace corona {

ReplicaServer::CoordGroup* ReplicaServer::coord_find(GroupId g) {
  auto it = cgroups_.find(g);
  return it != cgroups_.end() ? &it->second : nullptr;
}

InvariantReport ReplicaServer::CoordGroup::check_invariants() const {
  InvariantReport rep;
  rep.merge(state.check_invariants());
  rep.merge(locks.check_invariants());
  if (next_seq != state.head_seq() + 1) {
    rep.fail("CoordGroup: next_seq " + std::to_string(next_seq) +
             " != head_seq+1 " + std::to_string(state.head_seq() + 1));
  }
  // The authoritative copy applies every sequenced record, so its retained
  // history is gapless over (base_seq, head_seq] — unlike client copies,
  // which may hold object-filtered tails.
  SeqNo expect = state.base_seq();
  for (const UpdateRecord& r : state.history()) {
    ++expect;
    if (r.seq != expect) {
      rep.fail("CoordGroup: history gap — expected seq " +
               std::to_string(expect) + ", found " + std::to_string(r.seq));
      expect = r.seq;
    }
  }
  for (const auto& [obj, node] : locks.all_holders()) {
    if (!members.contains(node)) {
      rep.fail("CoordGroup: lock holder node:" + std::to_string(node.value) +
               " for obj:" + std::to_string(obj.value) + " is not a member");
    }
  }
  for (const auto& [obj, node] : locks.all_waiters()) {
    if (!members.contains(node)) {
      rep.fail("CoordGroup: lock waiter node:" + std::to_string(node.value) +
               " for obj:" + std::to_string(obj.value) + " is not a member");
    }
  }
  return rep;
}

void ReplicaServer::become_coordinator(std::uint64_t term) {
  const NodeId old_coordinator = coordinator_;
  role_ = Role::kCoordinator;
  coordinator_ = id();
  term_ = std::max<std::uint64_t>(term_, term);
  tally_.finish();
  ++stats_.elections_won;
  LOG_INFO("replica", "server ", id().value, " is coordinator, term ",
           term_.load());

  if (!(old_coordinator == id())) registry_.remove(old_coordinator);
  registry_.set_servers(registry_.servers(), term_);

  // Watch every other server; announce; distribute the updated list.
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    leaf_fd_.watch(s, now());
    send(s, make_coord_announce(id(), term_));
    send(s, make_server_list(term_, registry_.servers()));
  }

  // Seed the authoritative state from this server's own leaf copies, and
  // re-register its local members (self-hello keeps the flow uniform with
  // the other leaves').
  for (const auto& [g, lg] : local_) {
    if (cgroups_.contains(g)) continue;
    CoordGroup cg;
    cg.meta = lg.meta;
    cg.state = lg.state;
    cg.next_seq = lg.state.head_seq() + 1;
    // Seed the resend-dedup set from the retained history so client
    // recovery resends of already-sequenced updates are not applied twice.
    for (const UpdateRecord& u : lg.state.history()) {
      cg.seen.emplace(u.sender.value, u.request_id);
    }
    CORONA_CHECK_INVARIANTS(cg);
    cgroups_.emplace(g, std::move(cg));
    if (!store_->has_group(g)) {
      store_->create_group(local_.at(g).meta, lg.state.snapshot_at_base());
    }
    repl_.add_backup(g, id());
    for (const auto& [client, info] : lg.local_members) {
      Message op;
      op.type = MsgType::kGroupOp;
      op.fwd_type = MsgType::kJoin;
      op.group = g;
      op.sender = client;
      op.origin_server = id();
      op.role = info.role;
      op.notify_membership = info.notify;
      op.sender_inclusive = true;  // silent re-registration
      send(id(), op);
    }
  }

  // Cold-start recovery: persistent groups on this server's durable store
  // come back with their checkpoint + flushed log (§3.1 persistence across
  // service restarts).  Transient groups died with their members and are
  // not resurrected.
  for (RecoveredGroup& rg : store_->recover()) {
    if (cgroups_.contains(rg.meta.id) || !rg.meta.persistent) continue;
    CoordGroup cg;
    cg.meta = rg.meta;
    cg.state.load(rg.base_seq, rg.snapshot);
    SeqNo head = rg.base_seq;
    for (const UpdateRecord& u : rg.updates) {
      cg.state.apply(u);
      cg.seen.emplace(u.sender.value, u.request_id);
      head = u.seq;
    }
    cg.next_seq = head + 1;
    CORONA_CHECK_INVARIANTS(cg);
    LOG_INFO("replica", "coordinator recovered ", rg.meta.id,
             " head=", head);
    cgroups_.emplace(rg.meta.id, std::move(cg));
  }

  collecting_hellos_ = true;
  hello_reports_.clear();
  set_timer(cfg_.takeover_window, kTakeoverTimer);
  set_timer(cfg_.heartbeat_interval, kHeartbeatTimer);
  set_timer(cfg_.flush_interval, kFlushTimer);
}

// ---------------------------------------------------------------------------
// Heartbeats + registry
// ---------------------------------------------------------------------------

void ReplicaServer::coord_heartbeat_tick() {
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    send(s, make_heartbeat(term_));
  }
  for (NodeId dead : leaf_fd_.suspects(now())) {
    LOG_INFO("replica", "coordinator drops dead server ", dead.value);
    coord_drop_server(dead);
  }
}

void ReplicaServer::coord_handle_heartbeat_ack(NodeId from, const Message& m) {
  (void)m;
  leaf_fd_.heard_from(from, now());
}

void ReplicaServer::coord_drop_server(NodeId leaf) {
  leaf_fd_.unwatch(leaf);
  registry_.remove(leaf);
  registry_.bump_epoch();
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    send(s, make_server_list(registry_.epoch(), registry_.servers()));
  }
  // Members connected through the dead leaf are gone (fail-stop clients of
  // a fail-stop server); drop them and notify survivors.
  for (auto& [g, cg] : cgroups_) {
    std::vector<NodeId> lost;
    for (const auto& [client, info] : cg.members) {
      if (info.leaf == leaf) lost.push_back(client);
    }
    for (NodeId client : lost) {
      cg.members.erase(client);
      for (auto& [obj, grantee] : cg.locks.drop_member(client)) {
        coord_route_lock_grant(g, obj, grantee);
      }
      coord_send_notice(cg, client, MemberRole::kPrincipal, /*joined=*/false);
    }
    CORONA_CHECK_INVARIANTS(cg);
  }
  // Restore the hot-standby invariant for groups that lost a copy.
  for (GroupId g : repl_.drop_server(leaf)) {
    coord_maybe_assign_backup(g);
  }
}

void ReplicaServer::coord_handle_hello(NodeId from, const Message& m) {
  if (!is_coordinator()) return;
  if (!registry_.contains(from)) {
    registry_.add(from);
    registry_.bump_epoch();
    for (NodeId s : registry_.servers()) {
      if (s == id()) continue;
      send(s, make_server_list(registry_.epoch(), registry_.servers()));
    }
  }
  leaf_fd_.watch(from, now());
  if (collecting_hellos_) {
    hello_reports_[from] = decode_group_heads(m.u64s);
  }
}

// ---------------------------------------------------------------------------
// Sequencing
// ---------------------------------------------------------------------------

void ReplicaServer::coord_handle_fwd_multicast(NodeId from, const Message& m) {
  if (!is_coordinator()) return;  // stale routing during an election
  CoordGroup* cg = coord_find(m.group);
  if (cg == nullptr) {
    if (collecting_hellos_ || pending_fwd_.contains(m.group)) {
      // Takeover in progress: hold until the group's state is pulled.
      pending_fwd_[m.group].push_back(m);
      return;
    }
    coord_send_result(from, m, Status::error(Errc::kNotFound));
    return;
  }
  if (!cg->members.contains(m.sender)) {
    coord_send_result(from, m, Status::error(Errc::kNotMember));
    return;
  }
  UpdateRecord rec;
  rec.kind = m.kind;
  rec.object = m.object;
  rec.data = m.payload;
  rec.sender = m.sender;
  rec.timestamp = now();  // sequencer timestamping
  rec.request_id = m.request_id;
  coord_sequence(*cg, std::move(rec), m.sender_inclusive, from);
}

void ReplicaServer::coord_sequence(CoordGroup& cg, UpdateRecord rec,
                                   bool sender_inclusive, NodeId origin_leaf) {
  (void)origin_leaf;
  rec.seq = cg.next_seq++;
  cg.seen.emplace(rec.sender.value, rec.request_id);
  ++stats_.sequenced;

  rt().charge_cpu(id(), cfg_.state_cpu_per_msg +
                            static_cast<Duration>(std::llround(
                                cfg_.state_cpu_per_byte *
                                static_cast<double>(rec.data.size()))));
  cg.state.apply(rec);
  store_->append_update(cg.meta.id, rec);

  Message out;
  out.type = MsgType::kSeqMulticast;
  out.group = cg.meta.id;
  out.seq = rec.seq;
  out.kind = rec.kind;
  out.object = rec.object;
  out.payload = rec.data;
  out.sender = rec.sender;
  out.timestamp = rec.timestamp;
  out.request_id = rec.request_id;
  out.sender_inclusive = sender_inclusive;
  if (cfg_.batch_max_msgs > 1) {
    // Batched fan-out: the sequencing decision above is final and immediate
    // (seq, state, log, timestamp all per-message); only the outbound frames
    // coalesce.  Each leaf's run flushes as one frame at the threshold or
    // after batch_max_delay.
    for (NodeId holder : repl_.holders(cg.meta.id)) {
      coord_outbox_[holder].push_back(out);
    }
    ++coord_outbox_msgs_;
    if (coord_outbox_msgs_ >= cfg_.batch_max_msgs) {
      if (coord_batch_timer_ != 0) {
        cancel_timer(coord_batch_timer_);
        coord_batch_timer_ = 0;
      }
      coord_flush_outbox();
    } else if (coord_batch_timer_ == 0) {
      coord_batch_timer_ = set_timer(cfg_.batch_max_delay, kCoordBatchTimer);
    }
  } else {
    for (NodeId holder : repl_.holders(cg.meta.id)) {
      send(holder, out);
    }
  }
  CORONA_CHECK_INVARIANTS(cg);
}

void ReplicaServer::coord_flush_outbox() {
  coord_outbox_msgs_ = 0;
  if (coord_outbox_.empty()) return;
  auto outbox = std::move(coord_outbox_);
  coord_outbox_.clear();
  for (auto& [leaf, msgs] : outbox) {
    if (msgs.size() > 1) ++stats_.seq_batch_frames;
    send_batch(leaf, msgs);
  }
}

void ReplicaServer::coord_handle_resend(NodeId from, const Message& m) {
  CoordGroup* cg = coord_find(m.group);
  if (cg == nullptr) {
    if (collecting_hellos_ || pending_fwd_.contains(m.group)) {
      pending_fwd_[m.group].push_back(m);
    }
    return;
  }
  for (const UpdateRecord& orig : m.updates) {
    if (cg->seen.contains({orig.sender.value, orig.request_id})) continue;
    if (!cg->members.contains(orig.sender)) continue;
    UpdateRecord rec = orig;
    rec.timestamp = now();
    coord_sequence(*cg, std::move(rec), /*sender_inclusive=*/true, from);
  }
}

// ---------------------------------------------------------------------------
// Group operations
// ---------------------------------------------------------------------------

void ReplicaServer::coord_send_result(NodeId leaf, const Message& original,
                                      Status s) {
  Message r;
  r.type = MsgType::kGroupOpResult;
  r.fwd_type = original.fwd_type != MsgType::kInvalid ? original.fwd_type
                                                      : original.type;
  r.group = original.group;
  r.sender = original.sender;
  r.request_id = original.request_id;
  r.status = s.code;
  r.text = std::move(s.detail);
  send(leaf, r);
}

// Coordinator op dispatch (fwd_type of forwarded client operations): every
// MsgType must be handled below or waived.
// lint-dispatch: MsgType
// dispatch-ignore: kGetMembership kBcastState kBcastUpdate -- leaf-served;
//   membership reads and multicasts never arrive as forwarded group ops
// dispatch-ignore: kReply kJoinReply kMembershipInfo kDeliver -- emitted only
// dispatch-ignore: kServerHello kHeartbeat kHeartbeatAck -- membership layer
// dispatch-ignore: kServerList kElectionClaim kElectionVote -- election layer
// dispatch-ignore: kCoordAnnounce kResendRequest -- membership layer
void ReplicaServer::coord_handle_group_op(NodeId from, const Message& m) {
  if (!is_coordinator()) return;
  // During a takeover, operations on groups whose state is still being
  // pulled (member re-registrations above all) are held back with the
  // forwarded multicasts and replayed once the pull lands.
  if (m.fwd_type != MsgType::kCreateGroup && !cgroups_.contains(m.group) &&
      (collecting_hellos_ || pending_fwd_.contains(m.group))) {
    pending_fwd_[m.group].push_back(m);
    return;
  }
  switch (m.fwd_type) {
    case MsgType::kCreateGroup: coord_op_create(from, m); break;
    case MsgType::kDeleteGroup: coord_op_delete(from, m); break;
    case MsgType::kJoin: coord_op_join(from, m); break;
    case MsgType::kLeave: coord_op_leave(from, m); break;
    case MsgType::kLockRequest: coord_op_lock(from, m); break;
    case MsgType::kLockRelease: coord_op_unlock(from, m); break;
    case MsgType::kReduceLog: coord_op_reduce(from, m); break;
    default:
      coord_send_result(from, m, Status::error(Errc::kInvalidArgument));
      break;
  }
}

void ReplicaServer::coord_persist_create(const CoordGroup& cg) {
  if (!store_->has_group(cg.meta.id)) {
    store_->create_group(cg.meta, cg.state.snapshot_at_base());
  }
}

void ReplicaServer::coord_op_create(NodeId leaf, const Message& m) {
  if (cgroups_.contains(m.group)) {
    coord_send_result(leaf, m, Status::error(Errc::kAlreadyExists));
    return;
  }
  CoordGroup cg;
  cg.meta = GroupMeta{m.group, m.text, m.persistent};
  cg.state.load(0, m.state);
  coord_persist_create(cg);
  cgroups_.emplace(m.group, std::move(cg));
  coord_send_result(leaf, m, Status::ok());
}

void ReplicaServer::coord_op_delete(NodeId leaf, const Message& m) {
  CoordGroup* cg = coord_find(m.group);
  if (cg == nullptr) {
    coord_send_result(leaf, m, Status::error(Errc::kNotFound));
    return;
  }
  Message note;
  note.type = MsgType::kGroupDeleted;
  note.group = m.group;
  for (NodeId holder : repl_.holders(m.group)) send(holder, note);
  cgroups_.erase(m.group);
  repl_.drop_group(m.group);
  store_->remove_group(m.group);
  coord_send_result(leaf, m, Status::ok());
}

void ReplicaServer::coord_op_join(NodeId leaf, const Message& m) {
  CoordGroup* cg = coord_find(m.group);
  if (cg == nullptr) {
    coord_send_result(leaf, m, Status::error(Errc::kNotFound));
    return;
  }
  const bool silent = m.sender_inclusive;  // takeover re-registration
  cg->members[m.sender] = CoordMemberInfo{leaf, m.role, m.notify_membership};
  repl_.add_supporting_server(m.group, leaf);
  coord_maybe_assign_backup(m.group);
  if (!silent) {
    coord_send_notice(*cg, m.sender, m.role, /*joined=*/true);
    coord_send_result(leaf, m, Status::ok());
  }
}

void ReplicaServer::coord_op_leave(NodeId leaf, const Message& m) {
  CoordGroup* cg = coord_find(m.group);
  if (cg == nullptr) {
    coord_send_result(leaf, m, Status::error(Errc::kNotFound));
    return;
  }
  cg->members.erase(m.sender);
  for (auto& [obj, grantee] : cg->locks.drop_member(m.sender)) {
    coord_route_lock_grant(m.group, obj, grantee);
  }
  coord_send_notice(*cg, m.sender, m.role, /*joined=*/false);
  CORONA_CHECK_INVARIANTS(*cg);

  // Does the leaf still support members of this group?
  bool still_supports = false;
  for (const auto& [client, info] : cg->members) {
    if (info.leaf == leaf) {
      still_supports = true;
      break;
    }
  }
  if (!still_supports) {
    repl_.remove_supporting_server(m.group, leaf);
    if (repl_.copy_count(m.group) >= cfg_.min_copies) {
      // Enough copies without this leaf: release it.
      Message rel;
      rel.type = MsgType::kBackupAssign;
      rel.group = m.group;
      rel.accept = false;
      send(leaf, rel);
    } else {
      // Keep it as the hot standby.
      repl_.add_backup(m.group, leaf);
      coord_maybe_assign_backup(m.group);
    }
  }

  // Persistent groups outlive null membership; transient ones die (§3.1).
  if (cg->members.empty() && !cg->meta.persistent) {
    Message note;
    note.type = MsgType::kGroupDeleted;
    note.group = m.group;
    for (NodeId holder : repl_.holders(m.group)) send(holder, note);
    cgroups_.erase(m.group);
    repl_.drop_group(m.group);
    store_->remove_group(m.group);
  }
}

void ReplicaServer::coord_send_notice(CoordGroup& cg, NodeId subject,
                                      MemberRole role, bool joined) {
  Message note;
  note.type = MsgType::kMembershipNotice;
  note.group = cg.meta.id;
  note.sender = subject;
  note.role = role;
  note.accept = joined;
  for (NodeId holder : repl_.holders(cg.meta.id)) send(holder, note);
}

void ReplicaServer::coord_maybe_assign_backup(GroupId g) {
  if (!cgroups_.contains(g)) return;
  // Candidates in startup order, excluding the coordinator itself (its copy
  // is implicit).
  std::vector<NodeId> candidates;
  for (NodeId s : registry_.servers()) {
    if (!(s == id())) candidates.push_back(s);
  }
  if (auto backup = repl_.pick_backup(g, candidates)) {
    repl_.add_backup(g, *backup);
    ++stats_.backups_assigned;
    Message assign;
    assign.type = MsgType::kBackupAssign;
    assign.group = g;
    assign.accept = true;
    send(*backup, assign);
  }
  // Release surplus backups once enough member-driven copies exist.
  for (NodeId surplus : repl_.releasable_backups(g)) {
    repl_.remove_backup(g, surplus);
    Message rel;
    rel.type = MsgType::kBackupAssign;
    rel.group = g;
    rel.accept = false;
    send(surplus, rel);
  }
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

void ReplicaServer::coord_route_lock_grant(GroupId g, ObjectId obj,
                                           NodeId client) {
  CoordGroup* cg = coord_find(g);
  if (cg == nullptr) return;
  auto it = cg->members.find(client);
  if (it == cg->members.end()) return;
  Message r;
  r.type = MsgType::kGroupOpResult;
  r.fwd_type = MsgType::kLockGrant;
  r.group = g;
  r.object = obj;
  r.sender = client;
  send(it->second.leaf, r);
}

void ReplicaServer::coord_op_lock(NodeId leaf, const Message& m) {
  CoordGroup* cg = coord_find(m.group);
  if (cg == nullptr || !cg->members.contains(m.sender)) {
    coord_send_result(leaf, m, Status::error(Errc::kNotMember));
    return;
  }
  const auto outcome = cg->locks.acquire(m.object, m.sender);
  if (outcome == LockTable::AcquireOutcome::kGranted) {
    Message r;
    r.type = MsgType::kGroupOpResult;
    r.fwd_type = MsgType::kLockGrant;
    r.group = m.group;
    r.object = m.object;
    r.sender = m.sender;
    r.request_id = m.request_id;
    send(leaf, r);
  } else {
    coord_send_result(leaf, m, Status::error(Errc::kLockHeld, "queued"));
  }
}

void ReplicaServer::coord_op_unlock(NodeId leaf, const Message& m) {
  CoordGroup* cg = coord_find(m.group);
  if (cg == nullptr) {
    coord_send_result(leaf, m, Status::error(Errc::kNotFound));
    return;
  }
  auto result = cg->locks.release(m.object, m.sender);
  if (!result) {
    coord_send_result(leaf, m, result.status());
    return;
  }
  coord_send_result(leaf, m, Status::ok());
  if (auto next = result.value()) {
    coord_route_lock_grant(m.group, m.object, *next);
  }
}

// ---------------------------------------------------------------------------
// Log reduction
// ---------------------------------------------------------------------------

void ReplicaServer::coord_op_reduce(NodeId leaf, const Message& m) {
  CoordGroup* cg = coord_find(m.group);
  if (cg == nullptr) {
    coord_send_result(leaf, m, Status::error(Errc::kNotFound));
    return;
  }
  const SeqNo upto = m.seq == 0 ? cg->state.head_seq() : m.seq;
  cg->state.reduce_to(upto);
  store_->install_checkpoint(m.group, cg->state.base_seq(),
                             cg->state.snapshot_at_base());
  Message done;
  done.type = MsgType::kLogReduced;
  done.group = m.group;
  done.seq = cg->state.base_seq();
  for (NodeId holder : repl_.holders(m.group)) send(holder, done);

  Message r;
  r.type = MsgType::kGroupOpResult;
  r.fwd_type = MsgType::kReduceLog;
  r.group = m.group;
  r.seq = cg->state.base_seq();
  r.sender = m.sender;
  r.request_id = m.request_id;
  send(leaf, r);
}

// ---------------------------------------------------------------------------
// State queries (leaf installs, gap fills)
// ---------------------------------------------------------------------------

void ReplicaServer::coord_handle_state_query(NodeId from, const Message& m) {
  CoordGroup* cg = coord_find(m.group);
  Message reply;
  reply.type = MsgType::kStateReply;
  reply.group = m.group;
  reply.request_id = m.request_id;
  if (cg == nullptr) {
    reply.status = Errc::kNotFound;
    send(from, reply);
    return;
  }
  if (m.type == MsgType::kRetransmitReq) {
    const SharedState& st = cg->state;
    if (m.seq <= st.base_seq() && st.base_seq() > 0) {
      reply.seq = st.base_seq();
      reply.state = st.snapshot_at_base();
      reply.updates = st.history();
      reply.text = cg->meta.name;
      reply.persistent = cg->meta.persistent;
    } else {
      reply.seq = st.base_seq();
      for (const UpdateRecord& u : st.since(m.seq - 1)) {
        if (m.seq2 != 0 && u.seq > m.seq2) break;
        reply.updates.push_back(u);
      }
    }
    send(from, reply);
    return;
  }
  // Full-fidelity install for a leaf that will support the group: base
  // snapshot plus retained history, so the leaf can serve last-n joins.
  reply.seq = cg->state.base_seq();
  reply.state = cg->state.snapshot_at_base();
  reply.updates = cg->state.history();
  reply.text = cg->meta.name;
  reply.persistent = cg->meta.persistent;
  // The asking leaf becomes a copy holder right away so no sequenced
  // multicast is skipped between this reply and the member's join op.
  repl_.add_backup(m.group, from);
  send(from, reply);
}

// ---------------------------------------------------------------------------
// Takeover after an election (paper §4.2)
// ---------------------------------------------------------------------------

void ReplicaServer::coord_begin_takeover() {
  collecting_hellos_ = false;
  std::map<GroupId, SeqNo> local_heads;
  for (const auto& [g, cg] : cgroups_) {
    local_heads.emplace(g, cg.state.head_seq());
  }
  const auto plan = plan_takeover(hello_reports_, local_heads);
  // Operations queued for groups no surviving server knows about are
  // rejected now rather than held forever.
  std::vector<GroupId> unknown;
  for (const auto& [g, queued] : pending_fwd_) {
    if (!cgroups_.contains(g) && !plan.contains(g)) unknown.push_back(g);
  }
  for (GroupId g : unknown) {
    for (const Message& m : pending_fwd_[g]) {
      coord_send_result(m.origin_server, m, Status::error(Errc::kNotFound));
    }
    pending_fwd_.erase(g);
  }
  if (plan.empty()) {
    coord_finish_takeover();
    return;
  }
  for (const auto& [g, directive] : plan) {
    pending_fwd_.try_emplace(g);  // queue multicasts until the pull lands
    Message q;
    q.type = MsgType::kStateQuery;
    q.group = g;
    q.origin_server = id();
    ++stats_.takeover_pulls;
    send(directive.source, q);
  }
}

void ReplicaServer::coord_handle_takeover_state(NodeId from, const Message& m) {
  (void)from;
  if (m.status != Errc::kOk) {
    pending_fwd_.erase(m.group);
    return;
  }
  CoordGroup cg;
  cg.meta = GroupMeta{m.group, m.text, m.persistent};
  cg.state.load(m.seq, m.state);
  for (const UpdateRecord& u : m.updates) {
    cg.state.apply(u);
    cg.seen.emplace(u.sender.value, u.request_id);
  }
  cg.next_seq = cg.state.head_seq() + 1;
  CORONA_CHECK_INVARIANTS(cg);
  coord_persist_create(cg);
  cgroups_.insert_or_assign(m.group, std::move(cg));
  coord_finish_takeover();
}

void ReplicaServer::coord_finish_takeover() {
  // Replay operations queued for groups whose state has now been installed,
  // in arrival order: re-registrations first restore the membership, then
  // the held multicasts sequence normally.
  std::vector<GroupId> ready;
  for (const auto& [g, queued] : pending_fwd_) {
    if (cgroups_.contains(g)) ready.push_back(g);
  }
  for (GroupId g : ready) {
    auto queued = std::move(pending_fwd_[g]);
    pending_fwd_.erase(g);
    for (const Message& m : queued) {
      switch (m.type) {
        case MsgType::kFwdMulticast:
          coord_handle_fwd_multicast(m.origin_server, m);
          break;
        case MsgType::kGroupOp:
          coord_handle_group_op(m.origin_server, m);
          break;
        case MsgType::kResendReply:
          coord_handle_resend(m.origin_server, m);
          break;
        default:
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Flushing
// ---------------------------------------------------------------------------

void ReplicaServer::coord_flush_tick() {
  rt().submit_commit(id(), store_->commit_job(), 0);
}

// ---------------------------------------------------------------------------
// Partition reconciliation (paper §4.2)
// ---------------------------------------------------------------------------

void ReplicaServer::begin_reconcile(NodeId other_coordinator,
                                    PartitionPolicy policy) {
  assert(is_coordinator() && "reconciliation starts at a coordinator");
  reconcile_ = ReconcileSession{other_coordinator, policy, true, 0};
  Message req;
  req.type = MsgType::kDigestRequest;
  req.origin_server = id();
  send(other_coordinator, req);
}

void ReplicaServer::coord_handle_digest_request(NodeId from, const Message& m) {
  (void)m;
  if (!is_coordinator()) return;
  // Ship, per group: the digest of the retained history plus the branch
  // content itself (base snapshot + records), then a sentinel.
  for (const auto& [g, cg] : cgroups_) {
    Message reply;
    reply.type = MsgType::kDigestReply;
    reply.group = g;
    reply.seq = cg.state.base_seq();
    reply.text = cg.meta.name;
    reply.persistent = cg.meta.persistent;
    const BranchDigest digest = make_branch_digest(cg.state);
    for (const auto& [seq, hash] : digest.entries) {
      reply.u64s.push_back(seq);
      reply.u64s.push_back(hash);
    }
    reply.state = cg.state.snapshot_at_base();
    reply.updates = cg.state.history();
    send(from, reply);
  }
  Message sentinel;
  sentinel.type = MsgType::kDigestReply;
  sentinel.group = GroupId(0);
  sentinel.epoch = term_;  // lets the initiator out-term this coordinator
  send(from, sentinel);
}

void ReplicaServer::coord_handle_digest_reply(NodeId from, const Message& m) {
  if (!reconcile_.active || !(from == reconcile_.other)) return;
  if (m.group == GroupId(0)) {
    term_ = std::max<std::uint64_t>(term_, m.epoch);  // out-term their epoch
    coord_finish_reconcile();
    return;
  }

  CoordGroup* mine = coord_find(m.group);
  if (mine == nullptr) {
    // The group only exists on the other side (created during the
    // partition): adopt it wholesale, no conflict.
    CoordGroup cg;
    cg.meta = GroupMeta{m.group, m.text, m.persistent};
    cg.state.load(m.seq, m.state);
    for (const UpdateRecord& u : m.updates) {
      cg.state.apply(u);
      cg.seen.emplace(u.sender.value, u.request_id);
    }
    cg.next_seq = cg.state.head_seq() + 1;
    CORONA_CHECK_INVARIANTS(cg);
    coord_persist_create(cg);
    cgroups_.emplace(m.group, std::move(cg));
    ++stats_.reconciled_groups;
    coord_push_group_state(m.group);
    return;
  }

  // Fork-point discovery from the two digests.
  BranchDigest theirs;
  theirs.base_seq = m.seq;
  for (std::size_t i = 0; i + 1 < m.u64s.size(); i += 2) {
    theirs.entries.emplace_back(m.u64s[i], m.u64s[i + 1]);
  }
  const BranchDigest ours = make_branch_digest(mine->state);
  const auto fork = find_fork_point(ours, theirs);
  // If no fork point is certifiable (reduction trimmed one side beyond the
  // other), fall back to keeping the primary branch untouched.
  if (!fork) {
    ++stats_.reconciled_groups;
    coord_push_group_state(m.group);
    return;
  }

  Branch branch_a = extract_branch(mine->state, *fork);
  Branch branch_b;
  for (const UpdateRecord& u : m.updates) {
    if (u.seq > *fork) branch_b.updates.push_back(u);
  }
  const bool diverged = !branch_a.updates.empty() || !branch_b.updates.empty();
  if (!diverged) {
    // Identical histories; nothing to merge.
    ++stats_.reconciled_groups;
    return;
  }

  ReconcileOutcome outcome =
      reconcile_branches(m.group, *fork, std::move(branch_a),
                         std::move(branch_b), reconcile_.policy,
                         /*primary_wins=*/true);
  coord_install_merged(m.group, *fork, std::move(outcome.merged_tail));
  if (outcome.split_group) {
    // The secondary branch evolves as a new group seeded with the state at
    // the fork plus its own tail (§4.2 "evolving as two different groups").
    CoordGroup split;
    split.meta = GroupMeta{*outcome.split_group, mine->meta.name + "/split",
                           mine->meta.persistent};
    SharedState at_fork = state_at(cgroups_.at(m.group).state, *fork);
    split.state.load(*fork, at_fork.snapshot());
    SeqNo seq = *fork;
    for (UpdateRecord u : outcome.split_tail) {
      u.seq = ++seq;
      split.seen.emplace(u.sender.value, u.request_id);
      split.state.apply(u);
    }
    split.next_seq = seq + 1;
    coord_persist_create(split);
    cgroups_.insert_or_assign(*outcome.split_group, std::move(split));
    coord_push_group_state(*outcome.split_group);
  }
  ++stats_.reconciled_groups;
  coord_push_group_state(m.group);
}

void ReplicaServer::coord_install_merged(GroupId g, SeqNo fork,
                                         std::vector<UpdateRecord> tail) {
  CoordGroup& cg = cgroups_.at(g);
  SharedState merged = state_at(cg.state, fork);
  SeqNo seq = fork;
  for (UpdateRecord u : tail) {
    u.seq = ++seq;  // re-sequence the surviving branch after the fork
    cg.seen.emplace(u.sender.value, u.request_id);
    merged.apply(u);
  }
  cg.state = std::move(merged);
  cg.next_seq = seq + 1;
  CORONA_CHECK_INVARIANTS(cg);
  store_->install_checkpoint(g, cg.state.base_seq(),
                             cg.state.snapshot_at_base());
}

void ReplicaServer::coord_push_group_state(GroupId g) {
  CoordGroup& cg = cgroups_.at(g);
  Message push;
  push.type = MsgType::kStateReply;
  push.accept = true;  // authoritative push: receivers reload
  push.group = g;
  push.seq = cg.state.base_seq();
  push.state = cg.state.snapshot_at_base();
  push.updates = cg.state.history();
  push.text = cg.meta.name;
  push.persistent = cg.meta.persistent;
  for (NodeId holder : repl_.holders(g)) {
    if (!(holder == id())) send(holder, push);
  }
  // The other coordinator reloads too and relays to its own holders.
  if (reconcile_.active) send(reconcile_.other, push);
  // This node's own leaf copy.
  if (local_.contains(g)) {
    auto& lg = local_.at(g);
    auto members = std::move(lg.local_members);
    auto global = std::move(lg.global_members);
    leaf_install_state(g, push);
    LocalGroup& fresh = local_.at(g);
    fresh.local_members = std::move(members);
    fresh.global_members = std::move(global);
    leaf_push_snapshot_to_members(fresh);
  }
}

void ReplicaServer::coord_handle_push(NodeId from, const Message& m) {
  // Authoritative post-reconciliation state from the surviving coordinator:
  // replace our copy, relay to our side's holders, and refresh local members.
  CoordGroup cg;
  cg.meta = GroupMeta{m.group, m.text, m.persistent};
  cg.state.load(m.seq, m.state);
  for (const UpdateRecord& u : m.updates) {
    cg.state.apply(u);
    cg.seen.emplace(u.sender.value, u.request_id);
  }
  cg.next_seq = cg.state.head_seq() + 1;
  auto old = cgroups_.find(m.group);
  if (old != cgroups_.end()) cg.members = std::move(old->second.members);
  CORONA_CHECK_INVARIANTS(cg);
  coord_persist_create(cg);
  store_->install_checkpoint(m.group, cg.state.base_seq(),
                             cg.state.snapshot_at_base());
  cgroups_.insert_or_assign(m.group, std::move(cg));

  for (NodeId holder : repl_.holders(m.group)) {
    if (!(holder == id()) && !(holder == from)) send(holder, m);
  }
  if (local_.contains(m.group)) {
    auto& lg = local_.at(m.group);
    auto members = std::move(lg.local_members);
    auto global = std::move(lg.global_members);
    leaf_install_state(m.group, m);
    LocalGroup& fresh = local_.at(m.group);
    fresh.local_members = std::move(members);
    fresh.global_members = std::move(global);
    leaf_push_snapshot_to_members(fresh);
  }
}

void ReplicaServer::coord_finish_reconcile() {
  reconcile_.active = false;
  term_ = std::max<std::uint64_t>(term_, voted_term_) + 1;
  registry_.set_servers(registry_.servers(), term_);
  // Absorb the other side: a higher-term announce demotes its coordinator,
  // which relays to its leaves; hellos and re-registrations rebuild the
  // global membership here.
  collecting_hellos_ = true;
  hello_reports_.clear();
  set_timer(cfg_.takeover_window, kTakeoverTimer);
  send(reconcile_.other, make_coord_announce(id(), term_));
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    send(s, make_coord_announce(id(), term_));
  }
}

}  // namespace corona
