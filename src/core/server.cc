#include "core/server.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <set>

#include "util/invariant.h"
#include "util/logging.h"

namespace corona {

CoronaServer::CoronaServer(ServerConfig config, GroupStore* store,
                           SessionManager* session_manager)
    : config_(std::move(config)), store_(store), session_(session_manager),
      qos_(config_.qos) {
  if (store_ == nullptr) {
    owned_store_ = std::make_unique<GroupStore>();
    store_ = owned_store_.get();
  }
  if (session_ == nullptr) {
    owned_session_ = std::make_unique<AllowAllSessionManager>();
    session_ = owned_session_.get();
  }
  if (!config_.reduction_factory) {
    config_.reduction_factory = [] { return make_no_reduction(); };
  }
}

CoronaServer::~CoronaServer() = default;

void CoronaServer::on_start() {
  if (config_.stateful) {
    recover_from_store();
    if (config_.flush == FlushPolicy::kAsync) schedule_flush();
  }
  if (config_.client_timeout > 0) {
    set_timer(config_.client_timeout / 2, kLivenessTimer);
  }
}

void CoronaServer::recover_from_store() {
  for (RecoveredGroup& rg : store_->recover()) {
    Group group(rg.meta);
    group.state().load(rg.base_seq, rg.snapshot);
    SeqNo head = rg.base_seq;
    for (const UpdateRecord& u : rg.updates) {
      group.state().apply(u);
      group.mark_seen(u.sender, u.request_id);
      head = u.seq;
    }
    group.set_next_seq(head + 1);
    CORONA_CHECK_INVARIANTS(group);
    const GroupId id = rg.meta.id;
    groups_.erase(id);
    groups_.emplace(id, std::move(group));
    reduction_[id] = config_.reduction_factory();
    LOG_INFO("server", "recovered ", id, " head=", head,
             " objects=", groups_.at(id).state().object_count());
  }
}

void CoronaServer::on_message(NodeId from, const Message& m) {
  // Any traffic counts as liveness; idle clients send keepalives.
  if (config_.client_timeout > 0) {
    if (auto it = client_last_heard_.find(from);
        it != client_last_heard_.end()) {
      it->second = now();
    }
  }
  if (m.type == MsgType::kHeartbeat) return;  // keepalive only

  // Multicast traffic can be QoS-scheduled; control traffic never queues.
  if (config_.enable_qos &&
      (m.type == MsgType::kBcastState || m.type == MsgType::kBcastUpdate)) {
    qos_.enqueue(from, m);
    stats_.qos_shed = qos_.shed();
    if (!qos_drain_scheduled_) {
      qos_drain_scheduled_ = true;
      // Admission waits out the current service slot, so bursts accumulate
      // in the scheduler where priorities/aging/shedding can act on them.
      const Duration wait = std::max<Duration>(0, qos_busy_until_ - now());
      set_timer(wait, kQosDrainTimer);
    }
    return;
  }
  process(from, m);
}

void CoronaServer::on_timer(std::uint64_t tag) {
  if (tag == kFlushTimer) {
    submit_commit(0);
    schedule_flush();
    return;
  }
  if (tag == kLivenessTimer) {
    // Fail-stop client sweep (companion paper [15]): silent members are
    // dropped everywhere, exactly as an explicit leave would.
    std::vector<NodeId> expired;
    for (const auto& [client, last] : client_last_heard_) {
      if (now() - last > config_.client_timeout) expired.push_back(client);
    }
    for (NodeId client : expired) {
      client_last_heard_.erase(client);
      ++stats_.clients_expired;
      drop_member_everywhere(client);
    }
    set_timer(config_.client_timeout / 2, kLivenessTimer);
    return;
  }
  if (tag == kQosDrainTimer) {
    // Drain one message per service slot so higher-priority arrivals can
    // overtake queued lower-priority ones while the server is busy.  With
    // batching enabled the slot admits up to a batch's worth so the batch
    // queue can actually fill.
    const std::size_t burst = std::max<std::size_t>(1, config_.batch_max_msgs);
    for (std::size_t i = 0; i < burst; ++i) {
      auto item = qos_.dequeue();
      if (!item) break;
      qos_busy_until_ = now() + config_.qos_service_time;
      process(item->from, item->msg);
    }
    if (!qos_.empty()) {
      set_timer(config_.qos_service_time, kQosDrainTimer);
    } else {
      qos_drain_scheduled_ = false;
    }
    return;
  }
  if (tag == kBatchTimer) {
    batch_timer_ = 0;
    drain_batch();
    return;
  }
  if (tag >= kPeerTagBase) {
    peer_transfer_timeout(tag - kPeerTagBase);
    return;
  }
  if (tag >= kSyncTagBase) {
    auto it = pending_sync_.find(tag - kSyncTagBase);
    if (it == pending_sync_.end()) return;
    std::vector<PendingDelivery> items = std::move(it->second);
    pending_sync_.erase(it);
    fanout_batch(items);
    return;
  }
}

// Role dispatch surface: every MsgType must be handled below or waived.
// lint-dispatch: MsgType
// dispatch-ignore: kInvalid -- sentinel; the decoder rejects it upstream
// dispatch-ignore: kReply kDeliver -- emitted by this role, never received
// dispatch-ignore: kServerHello kFwdMulticast kSeqMulticast -- replica tier
// dispatch-ignore: kGroupOp kGroupOpResult kHeartbeatAck -- replica tier
// dispatch-ignore: kServerList kElectionClaim kElectionVote -- replica tier
// dispatch-ignore: kCoordAnnounce kBackupAssign -- replica tier
// dispatch-ignore: kResendRequest -- sent to clients, never received
// dispatch-ignore: kDigestRequest kDigestReply -- replica anti-entropy only
void CoronaServer::process(NodeId from, const Message& m) {
  switch (m.type) {
    case MsgType::kCreateGroup: handle_create(from, m); break;
    case MsgType::kDeleteGroup: handle_delete(from, m); break;
    case MsgType::kJoin: handle_join(from, m); break;
    case MsgType::kLeave: handle_leave(from, m); break;
    case MsgType::kGetMembership: handle_get_membership(from, m); break;
    case MsgType::kBcastState:
    case MsgType::kBcastUpdate: handle_bcast(from, m); break;
    case MsgType::kLockRequest: handle_lock_request(from, m); break;
    case MsgType::kLockRelease: handle_lock_release(from, m); break;
    case MsgType::kReduceLog: handle_reduce_log(from, m); break;
    case MsgType::kRetransmitReq: handle_retransmit(from, m); break;
    case MsgType::kResendReply: handle_resend_reply(from, m); break;
    case MsgType::kStateReply: handle_peer_state(from, m); break;
    default:
      LOG_WARN("server", "unexpected ", msg_type_name(m.type), " from ",
               from.value);
      break;
  }
}

Group* CoronaServer::find_group(GroupId g) {
  auto it = groups_.find(g);
  return it != groups_.end() ? &it->second : nullptr;
}

const Group* CoronaServer::group(GroupId g) const {
  auto it = groups_.find(g);
  return it != groups_.end() ? &it->second : nullptr;
}

Status CoronaServer::authorize(NodeId client, GroupId g, GroupAction action) {
  return session_->authorize(client, g, action);
}

void CoronaServer::set_group_qos_class(GroupId g, int klass) {
  qos_.set_group_class(g, klass);
}

// ---------------------------------------------------------------------------
// Group management
// ---------------------------------------------------------------------------

void CoronaServer::handle_create(NodeId from, const Message& m) {
  if (Status s = authorize(from, m.group, GroupAction::kCreate); !s) {
    send(from, make_reply(s, m.request_id));
    return;
  }
  if (groups_.contains(m.group)) {
    send(from, make_reply(Status::error(Errc::kAlreadyExists), m.request_id));
    return;
  }
  GroupMeta meta{m.group, m.text, m.persistent};
  Group group(meta);
  group.state().load(0, m.state);
  groups_.emplace(m.group, std::move(group));
  reduction_[m.group] = config_.reduction_factory();
  if (config_.stateful) {
    // Under kSync the reply waits for the checkpoint to be durable: the
    // store syncs it before returning, like a group removal, and the sync
    // counts as a flush.
    const bool sync = config_.flush == FlushPolicy::kSync;
    store_->create_group(meta, m.state, /*durable=*/sync);
    if (sync) ++stats_.flushes;
  }
  send(from, make_reply(Status::ok(), m.request_id));
}

void CoronaServer::handle_delete(NodeId from, const Message& m) {
  if (Status s = authorize(from, m.group, GroupAction::kDelete); !s) {
    send(from, make_reply(s, m.request_id));
    return;
  }
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  // "The shared state of a deleted group is lost."
  Message note;
  note.type = MsgType::kGroupDeleted;
  note.group = m.group;
  for (const auto& [member, info] : group->members()) {
    if (!(member == from)) send(member, note);
  }
  groups_.erase(m.group);
  reduction_.erase(m.group);
  if (config_.stateful) store_->remove_group(m.group);
  send(from, make_reply(Status::ok(), m.request_id));
}

void CoronaServer::handle_join(NodeId from, const Message& m) {
  Message reply;
  reply.type = MsgType::kJoinReply;
  reply.group = m.group;
  reply.request_id = m.request_id;

  if (Status s = authorize(from, m.group, GroupAction::kJoin); !s) {
    reply.status = s.code;
    reply.text = s.detail;
    send(from, reply);
    return;
  }
  Group* group = find_group(m.group);
  if (group == nullptr) {
    reply.status = Errc::kNotFound;
    send(from, reply);
    return;
  }
  if (!group->add_member(from, m.role, m.notify_membership)) {
    reply.status = Errc::kAlreadyExists;
    reply.text = "already a member";
    send(from, reply);
    return;
  }

  // Peer-transfer baseline (§2's ISIS-style join): fetch the state from an
  // existing member instead of the service copy.  Membership is finalized
  // when the transfer completes; the reply is deferred.
  if (config_.stateful && config_.join_transfer == JoinTransferMode::kPeer &&
      group->member_count() > 1) {
    group->remove_member(from);  // re-added when the transfer lands
    begin_peer_transfer(*group, from, m);
    return;
  }

  // Customized state transfer (§3.2).  The join involves no existing member:
  // everything comes from the server's copy of the shared state.
  if (config_.stateful) {
    TransferContent t = build_transfer(group->state(), m.policy);
    reply.seq = t.base_seq;
    reply.state = std::move(t.snapshot);
    reply.updates = std::move(t.updates);
    std::size_t bytes = 0;
    for (const StateEntry& s : reply.state) bytes += s.data.size();
    for (const UpdateRecord& u : reply.updates) bytes += u.data.size();
    stats_.transfer_bytes += bytes;
  } else {
    reply.seq = group->next_seq() - 1;
  }
  reply.members = group->member_list();
  ++stats_.joins_served;
  if (config_.client_timeout > 0) client_last_heard_[from] = now();
  send(from, reply);

  send_membership_notices(*group, from, m.role, /*joined=*/true);
}

// ---------------------------------------------------------------------------
// Peer-transfer baseline (paper §2)
// ---------------------------------------------------------------------------

void CoronaServer::begin_peer_transfer(Group& group, NodeId joiner,
                                       const Message& join) {
  PendingPeerJoin p;
  p.group = group.meta().id;
  p.joiner = joiner;
  p.request_id = join.request_id;
  p.role = join.role;
  p.notify = join.notify_membership;
  for (const auto& [member, info] : group.members()) {
    if (!(member == joiner)) p.remaining_donors.push_back(member);
  }
  p.donor = p.remaining_donors.front();
  p.remaining_donors.erase(p.remaining_donors.begin());

  const std::uint64_t token = next_peer_token_++;
  Message q;
  q.type = MsgType::kStateQuery;
  q.group = p.group;
  q.request_id = token;
  send(p.donor, q);
  p.timer = set_timer(config_.peer_timeout, kPeerTagBase + token);
  pending_peer_.emplace(token, std::move(p));
}

void CoronaServer::handle_peer_state(NodeId from, const Message& m) {
  auto it = pending_peer_.find(m.request_id);
  if (it == pending_peer_.end() || !(it->second.donor == from)) return;
  if (m.status != Errc::kOk) {
    // The donor cannot serve (left / never had the state): fail over to the
    // next one right away.
    cancel_timer(it->second.timer);
    const std::uint64_t token = it->first;
    PendingPeerJoin p = std::move(it->second);
    pending_peer_.erase(it);
    pending_peer_.emplace(token, std::move(p));
    peer_transfer_timeout(token);
    return;
  }
  cancel_timer(it->second.timer);
  PendingPeerJoin p = std::move(it->second);
  pending_peer_.erase(it);
  ++stats_.peer_transfers;
  if (Group* group = find_group(p.group)) {
    finish_join_reply(*group, p, m.seq, m.state, {});
  }
}

void CoronaServer::peer_transfer_timeout(std::uint64_t token) {
  auto it = pending_peer_.find(token);
  if (it == pending_peer_.end()) return;
  ++stats_.peer_timeouts;
  PendingPeerJoin& p = it->second;
  Group* group = find_group(p.group);
  if (group == nullptr) {
    pending_peer_.erase(it);
    return;
  }
  if (p.remaining_donors.empty()) {
    // "the time to complete the join reflects the timeout for failure
    // detection and making an additional request" — and when no member can
    // answer, the stateful service is the last resort.
    PendingPeerJoin done = std::move(p);
    pending_peer_.erase(it);
    TransferContent t = build_transfer(group->state(),
                                       TransferPolicySpec::full());
    finish_join_reply(*group, done, t.base_seq, t.snapshot, t.updates);
    return;
  }
  p.donor = p.remaining_donors.front();
  p.remaining_donors.erase(p.remaining_donors.begin());
  Message q;
  q.type = MsgType::kStateQuery;
  q.group = p.group;
  q.request_id = token;
  send(p.donor, q);
  p.timer = set_timer(config_.peer_timeout, kPeerTagBase + token);
}

void CoronaServer::finish_join_reply(Group& group, const PendingPeerJoin& p,
                                     SeqNo base,
                                     std::vector<StateEntry> snapshot,
                                     std::vector<UpdateRecord> updates) {
  group.add_member(p.joiner, p.role, p.notify);
  Message reply;
  reply.type = MsgType::kJoinReply;
  reply.group = group.meta().id;
  reply.request_id = p.request_id;
  reply.seq = base;
  reply.state = std::move(snapshot);
  reply.updates = std::move(updates);
  reply.members = group.member_list();
  ++stats_.joins_served;
  if (config_.client_timeout > 0) client_last_heard_[p.joiner] = now();
  send(p.joiner, reply);
  send_membership_notices(group, p.joiner, p.role, /*joined=*/true);
}

void CoronaServer::handle_leave(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
  if (group == nullptr || !group->remove_member(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  // Leaving implicitly releases held locks; queued waiters get grants.
  for (auto& [obj, grantee] : group->locks().drop_member(from)) {
    Message grant;
    grant.type = MsgType::kLockGrant;
    grant.group = m.group;
    grant.object = obj;
    send(grantee, grant);
  }
  send(from, make_reply(Status::ok(), m.request_id));
  send_membership_notices(*group, from, MemberRole::kPrincipal,
                          /*joined=*/false);
  CORONA_CHECK_INVARIANTS(*group);

  // Transient groups cease to exist at null membership; persistent groups
  // and their shared state outlive their members (§3.1).
  if (group->member_count() == 0 && !group->persistent()) {
    groups_.erase(m.group);
    reduction_.erase(m.group);
    if (config_.stateful) store_->remove_group(m.group);
  }

  // Stop liveness tracking once the client belongs to no group.
  if (config_.client_timeout > 0) {
    bool member_somewhere = false;
    for (const auto& [gid, g] : groups_) {
      if (g.is_member(from)) {
        member_somewhere = true;
        break;
      }
    }
    if (!member_somewhere) client_last_heard_.erase(from);
  }
}

void CoronaServer::handle_get_membership(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  Message info;
  info.type = MsgType::kMembershipInfo;
  info.group = m.group;
  info.request_id = m.request_id;
  info.members = group->member_list();
  send(from, info);
}

void CoronaServer::send_membership_notices(Group& group, NodeId subject,
                                           MemberRole role, bool joined) {
  const auto subscribers = group.notice_subscribers();
  if (subscribers.empty()) return;
  Message note;
  note.type = MsgType::kMembershipNotice;
  note.group = group.meta().id;
  note.sender = subject;
  note.role = role;
  note.accept = joined;
  for (NodeId member : subscribers) {
    if (!(member == subject)) send(member, note);
  }
}

// ---------------------------------------------------------------------------
// Multicast + logging
// ---------------------------------------------------------------------------

void CoronaServer::handle_bcast(NodeId from, const Message& m) {
  if (Status s = authorize(from, m.group, GroupAction::kPublish); !s) {
    send(from, make_reply(s, m.request_id));
    return;
  }
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  if (!group->is_member(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }

  UpdateRecord rec;
  rec.kind = m.kind;
  rec.object = m.object;
  rec.data = m.payload;
  rec.sender = from;
  rec.timestamp = now();  // server-side real-time stamping (§3.2)
  rec.request_id = m.request_id;

  if (config_.batch_max_msgs > 1) {
    // Batched path: the record is timestamped now (arrival), sequenced at
    // the next drain in arrival order — the same order and the same record
    // bytes the per-message path would produce.
    enqueue_batch(
        PendingDelivery{m.group, std::move(rec), m.sender_inclusive, from});
    return;
  }
  sequence_and_deliver(*group, std::move(rec), m.sender_inclusive, from);
}

void CoronaServer::sequence_record(Group& group, UpdateRecord& rec) {
  rec.seq = group.allocate_seq();
  group.mark_seen(rec.sender, rec.request_id);
  ++stats_.messages_sequenced;

  if (config_.stateful) {
    // State maintenance: constant + linear-in-payload CPU, the overhead the
    // Figure 3 comparison isolates.
    rt().charge_cpu(id(), config_.state_cpu_per_msg +
                              static_cast<Duration>(std::llround(
                                  config_.state_cpu_per_byte *
                                  static_cast<double>(rec.data.size()))));
    group.state().apply(rec);
    store_->append_update(group.meta().id, rec);
  }
}

void CoronaServer::sequence_and_deliver(Group& group, UpdateRecord rec,
                                        bool sender_inclusive, NodeId sender) {
  sequence_record(group, rec);

  if (config_.stateful && config_.flush == FlushPolicy::kSync) {
    const std::uint64_t token = next_pending_++;
    if (!config_.debug_ack_before_commit) {
      // Hold the delivery (the sender's ack included) until the commit
      // that covers the record completes.
      pending_sync_[token].push_back(PendingDelivery{
          group.meta().id, std::move(rec), sender_inclusive, sender});
      submit_commit(kSyncTagBase + token);
      maybe_reduce(group);
      return;
    }
    // Planted bug: nothing waits for this completion; the fan-out below
    // runs ahead of it.
    submit_commit(kSyncTagBase + token);
  }

  deliver_to_members(group, rec, sender_inclusive, sender);
  if (config_.stateful) maybe_reduce(group);
  CORONA_CHECK_INVARIANTS(group);
}

void CoronaServer::enqueue_batch(PendingDelivery p) {
  batch_queue_.push_back(std::move(p));
  if (batch_queue_.size() >= config_.batch_max_msgs) {
    if (batch_timer_ != 0) {
      cancel_timer(batch_timer_);
      batch_timer_ = 0;
    }
    drain_batch();
    return;
  }
  if (batch_timer_ == 0) {
    batch_timer_ = set_timer(config_.batch_max_delay, kBatchTimer);
  }
}

void CoronaServer::drain_batch() {
  if (batch_queue_.empty()) return;
  std::vector<PendingDelivery> batch = std::move(batch_queue_);
  batch_queue_.clear();
  if (batch.size() > 1) {
    ++stats_.batches_sequenced;
    stats_.batched_messages += batch.size();
  }

  // Sequence in arrival order — exactly the order the per-message path
  // would have produced.  A group deleted since arrival drops its queued
  // multicasts, as a delete racing an in-flight bcast always has.
  std::vector<PendingDelivery> live;
  live.reserve(batch.size());
  std::set<GroupId> touched;
  for (PendingDelivery& p : batch) {
    Group* group = find_group(p.group);
    if (group == nullptr) continue;
    sequence_record(*group, p.rec);
    touched.insert(p.group);
    live.push_back(std::move(p));
  }
  if (live.empty()) return;

  if (config_.stateful && config_.flush == FlushPolicy::kSync) {
    // Group commit: ONE commit covers the entire batch; the device's fixed
    // per-op cost is paid once for the whole run.  The run is delivered
    // together when the commit completes.
    if (live.size() > 1) {
      ++stats_.group_commits;
      stats_.group_commit_records += live.size();
    }
    const std::uint64_t token = next_pending_++;
    pending_sync_[token] = std::move(live);
    submit_commit(kSyncTagBase + token);
    for (GroupId gid : touched) {
      if (Group* g = find_group(gid)) maybe_reduce(*g);
    }
    return;
  }

  fanout_batch(live);
  for (GroupId gid : touched) {
    if (Group* g = find_group(gid)) {
      if (config_.stateful) maybe_reduce(*g);
      CORONA_CHECK_INVARIANTS(*g);
    }
  }
}

void CoronaServer::fanout_batch(std::vector<PendingDelivery>& items) {
  if (items.size() == 1) {
    PendingDelivery& p = items.front();
    if (Group* g = find_group(p.group)) {
      deliver_to_members(*g, p.rec, p.sender_inclusive, p.sender);
    }
    return;
  }
  if (config_.use_ip_multicast) {
    // One-to-many transport already coalesces the fan-out; batching the
    // frames on top buys nothing, so keep per-record multicast.
    for (PendingDelivery& p : items) {
      if (Group* g = find_group(p.group)) {
        deliver_to_members(*g, p.rec, p.sender_inclusive, p.sender);
      }
    }
    return;
  }
  // One coalesced frame per client covering its whole run, in sequence
  // order.  std::map keeps the per-client send order deterministic.
  std::map<NodeId, std::vector<Message>> per_client;
  for (PendingDelivery& p : items) {
    Group* group = find_group(p.group);
    if (group == nullptr) continue;
    const Message out = make_deliver(p.group, p.rec);
    for (const auto& [member, info] : group->members()) {
      if (!p.sender_inclusive && member == p.sender) continue;
      per_client[member].push_back(out);
      ++stats_.deliveries_sent;
      stats_.delivery_bytes += p.rec.data.size();
    }
  }
  for (auto& [member, msgs] : per_client) {
    if (config_.debug_drop_batch_tail && msgs.size() > 1) msgs.pop_back();
    if (msgs.size() > 1) ++stats_.batch_frames_sent;
    send_batch(member, msgs);
  }
}

void CoronaServer::deliver_to_members(Group& group, const UpdateRecord& rec,
                                      bool sender_inclusive, NodeId sender) {
  const Message out = make_deliver(group.meta().id, rec);
  if (config_.use_ip_multicast) {
    std::vector<NodeId> recipients;
    recipients.reserve(group.member_count());
    for (const auto& [member, info] : group.members()) {
      if (!sender_inclusive && member == sender) continue;
      recipients.push_back(member);
    }
    multicast(recipients, out);
    stats_.deliveries_sent += recipients.size();
    stats_.delivery_bytes += rec.data.size() * recipients.size();
    return;
  }
  // Point-to-point fan-out of the one kDeliver: engines that serialize at
  // the sender encode `out` once for all recipients instead of per member.
  std::vector<NodeId> recipients;
  recipients.reserve(group.member_count());
  for (const auto& [member, info] : group.members()) {
    if (!sender_inclusive && member == sender) continue;
    recipients.push_back(member);
  }
  fanout(recipients, out);
  stats_.deliveries_sent += recipients.size();
  stats_.delivery_bytes += rec.data.size() * recipients.size();
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

void CoronaServer::handle_lock_request(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
  if (group == nullptr || !group->is_member(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  const auto outcome = group->locks().acquire(m.object, from);
  if (outcome == LockTable::AcquireOutcome::kGranted) {
    Message grant;
    grant.type = MsgType::kLockGrant;
    grant.group = m.group;
    grant.object = m.object;
    grant.request_id = m.request_id;
    send(from, grant);
  } else {
    // Queued (or duplicate): acknowledge receipt; the grant follows when the
    // holder releases.
    send(from, make_reply(Status::error(Errc::kLockHeld, "queued"),
                          m.request_id));
  }
}

void CoronaServer::handle_lock_release(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  auto result = group->locks().release(m.object, from);
  if (!result) {
    send(from, make_reply(result.status(), m.request_id));
    return;
  }
  send(from, make_reply(Status::ok(), m.request_id));
  if (auto next = result.value()) {
    Message grant;
    grant.type = MsgType::kLockGrant;
    grant.group = m.group;
    grant.object = m.object;
    send(*next, grant);
  }
}

// ---------------------------------------------------------------------------
// Log reduction
// ---------------------------------------------------------------------------

void CoronaServer::handle_reduce_log(NodeId from, const Message& m) {
  if (Status s = authorize(from, m.group, GroupAction::kReduceLog); !s) {
    send(from, make_reply(s, m.request_id));
    return;
  }
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  const SeqNo upto = m.seq == 0 ? group->state().head_seq() : m.seq;
  perform_reduction(*group, upto);
  Message done;
  done.type = MsgType::kLogReduced;
  done.group = m.group;
  done.seq = group->state().base_seq();
  done.request_id = m.request_id;
  send(from, done);
}

void CoronaServer::maybe_reduce(Group& group) {
  auto it = reduction_.find(group.meta().id);
  if (it == reduction_.end()) return;
  if (const SeqNo upto = it->second->should_reduce(group.state()); upto > 0) {
    perform_reduction(group, upto);
  }
}

void CoronaServer::perform_reduction(Group& group, SeqNo upto) {
  // "The history of state updates ... may be trimmed up to a point and
  // replaced with the consistent group state existing at that point" (§3.2).
  // SharedState folds the dropped prefix into its base snapshot, which then
  // becomes the durable checkpoint.
  const std::size_t dropped = group.state().reduce_to(upto);
  if (dropped == 0) return;
  if (config_.stateful) {
    store_->install_checkpoint(group.meta().id, group.state().base_seq(),
                               group.state().snapshot_at_base());
  }
  ++stats_.reductions;
  stats_.records_dropped_by_reduction += dropped;
}

// ---------------------------------------------------------------------------
// Retransmission + recovery resends
// ---------------------------------------------------------------------------

void CoronaServer::handle_retransmit(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  Message reply;
  reply.type = MsgType::kStateReply;
  reply.group = m.group;
  reply.request_id = m.request_id;
  const SharedState& st = group->state();
  if (m.seq <= st.base_seq() + 1 && st.base_seq() > 0) {
    // The requested range was reduced away; ship the consolidated state.
    reply.seq = st.head_seq();
    reply.state = st.snapshot();
  } else {
    reply.seq = st.base_seq();
    for (const UpdateRecord& u : st.since(m.seq - 1)) {
      if (m.seq2 != 0 && u.seq > m.seq2) break;
      reply.updates.push_back(u);
    }
  }
  ++stats_.retransmits_served;
  send(from, reply);
}

void CoronaServer::handle_resend_reply(NodeId from, const Message& m) {
  // Crash recovery (§6): updates lost with the unflushed log tail are
  // re-submitted by their original senders and sequenced afresh; the
  // (sender, request-id) dedup set recovered from the durable log keeps
  // already-stable updates from being applied twice.
  Group* group = find_group(m.group);
  if (group == nullptr) return;
  for (const UpdateRecord& orig : m.updates) {
    if (group->was_seen(orig.sender, orig.request_id)) continue;
    if (!group->is_member(orig.sender)) continue;
    UpdateRecord rec = orig;
    rec.timestamp = now();
    ++stats_.resends_applied;
    sequence_and_deliver(*group, std::move(rec), /*sender_inclusive=*/true,
                         from);
  }
}

// ---------------------------------------------------------------------------
// Flushing
// ---------------------------------------------------------------------------

void CoronaServer::schedule_flush() {
  set_timer(config_.flush_interval, kFlushTimer);
}

void CoronaServer::submit_commit(std::uint64_t tag) {
  ++stats_.flushes;
  rt().submit_commit(id(), store_->commit_job(), tag);
}

void CoronaServer::drop_member_everywhere(NodeId who) {
  std::vector<GroupId> to_erase;
  for (auto& [gid, group] : groups_) {
    if (!group.is_member(who)) continue;
    group.remove_member(who);
    for (auto& [obj, grantee] : group.locks().drop_member(who)) {
      Message grant;
      grant.type = MsgType::kLockGrant;
      grant.group = gid;
      grant.object = obj;
      send(grantee, grant);
    }
    send_membership_notices(group, who, MemberRole::kPrincipal,
                            /*joined=*/false);
    CORONA_CHECK_INVARIANTS(group);
    if (group.member_count() == 0 && !group.persistent()) to_erase.push_back(gid);
  }
  for (GroupId gid : to_erase) {
    groups_.erase(gid);
    reduction_.erase(gid);
    if (config_.stateful) store_->remove_group(gid);
  }
}

}  // namespace corona
