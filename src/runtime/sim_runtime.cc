#include "runtime/sim_runtime.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "util/logging.h"

namespace corona {

SimRuntime::SimRuntime() = default;

void SimRuntime::add_node(NodeId id, Node* node, HostId host) {
  assert(node != nullptr);
  assert(!nodes_.contains(id) && "node id already registered");
  nodes_[id] = node;
  network_.place(id, host);
  node->bind(this, id);
}

void SimRuntime::start() {
  // Schedule on_start in node-id order so startup is deterministic
  // regardless of hash-map iteration order.
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, _] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (NodeId id : ids) {
    if (!started_.insert(id).second) continue;
    Node* node = nodes_[id];
    sim_.queue().schedule_after(0, EventTag{EventKind::kStart, id.value, 0},
                                [node] { node->on_start(); });
  }
}

void SimRuntime::crash(NodeId id) {
  network_.crash_node(id);
  ++incarnation_[id];
}

void SimRuntime::restart(NodeId id, Node* fresh_node) {
  assert(fresh_node != nullptr);
  assert(nodes_.contains(id) && "restart of unknown node");
  network_.restart_node(id);
  ++incarnation_[id];
  nodes_[id] = fresh_node;
  fresh_node->bind(this, id);
  const std::uint64_t inc = incarnation_[id];
  sim_.queue().schedule_after(0, EventTag{EventKind::kStart, id.value, 0},
                              [this, id, inc] {
                                if (incarnation_[id] != inc ||
                                    network_.is_crashed(id))
                                  return;
                                nodes_[id]->on_start();
                              });
}

void SimRuntime::send(NodeId from, NodeId to, const Message& m) {
  assert(nodes_.contains(to) && "send to unregistered node");
  const Bytes wire = m.encode();
  const auto arrival = network_.transmit(from, to, wire.size(), sim_.now());
  if (!arrival) {
    LOG_TRACE("sim", "dropped ", msg_type_name(m.type), " ", from.value,
              " -> ", to.value);
    return;
  }
  if (drop_filter_ && drop_filter_(from, to, m)) {
    ++dropped_by_filter_;
    return;
  }
  schedule_arrival(from, to, wire, *arrival);
}

void SimRuntime::schedule_arrival(NodeId from, NodeId to, Bytes wire,
                                  TimePoint arrival) {
  // Two-stage delivery: the receive-side CPU is booked when the message
  // actually arrives, so receivers serialize in arrival order regardless of
  // when senders issued their sends.
  const std::uint64_t inc = incarnation_[to];
  const std::size_t size = wire.size();
  sim_.queue().schedule_at(
      arrival, EventTag{EventKind::kArrival, from.value, to.value},
      [this, from, to, wire = std::move(wire), inc, size] {
        if (incarnation_[to] != inc || network_.is_crashed(to)) return;
        const TimePoint deliver_at =
            network_.book_receive(to, size, sim_.now());
        sim_.queue().schedule_at(
            deliver_at, EventTag{EventKind::kDeliver, from.value, to.value},
            [this, from, to, wire, inc] {
              if (incarnation_[to] != inc || network_.is_crashed(to)) return;
              auto decoded = Message::decode(wire);
              assert(decoded.is_ok() &&
                     "self-encoded message failed to decode");
              nodes_[to]->on_message(from, decoded.value());
            });
      });
}

void SimRuntime::multicast(NodeId from, const std::vector<NodeId>& to,
                           const Message& m) {
  const Bytes wire = m.encode();
  const auto arrivals =
      network_.transmit_multicast(from, to, wire.size(), sim_.now());
  for (std::size_t i = 0; i < to.size(); ++i) {
    if (!arrivals[i]) continue;
    const NodeId dest = to[i];
    assert(nodes_.contains(dest) && "multicast to unregistered node");
    if (drop_filter_ && drop_filter_(from, dest, m)) {
      ++dropped_by_filter_;
      continue;
    }
    schedule_arrival(from, dest, wire, *arrivals[i]);
  }
}

void SimRuntime::send_batch(NodeId from, NodeId to,
                            const std::vector<Message>& ms) {
  if (ms.empty()) return;
  if (ms.size() == 1) {
    send(from, to, ms.front());
    return;
  }
  assert(nodes_.contains(to) && "send_batch to unregistered node");
  // The batch rides as one coalesced frame: per-message framing is unchanged
  // (each message is encoded exactly as it would be alone) but the sender
  // and receiver each pay a single per-message CPU cost for the whole run.
  std::vector<Bytes> wires;
  wires.reserve(ms.size());
  std::size_t total = 0;
  for (const Message& m : ms) {
    wires.push_back(m.encode());
    total += wires.back().size();
  }
  const auto arrival = network_.transmit_batch(from, to, total, ms.size(),
                                               sim_.now());
  if (!arrival) {
    LOG_TRACE("sim", "dropped batch of ", ms.size(), " ", from.value, " -> ",
              to.value);
    return;
  }
  if (drop_filter_) {
    // The filter sees each message; a batch is atomic on the wire, so any
    // filtered message drops the whole frame (a dying connection loses the
    // segment run, not individual messages inside it).
    for (const Message& m : ms) {
      if (drop_filter_(from, to, m)) {
        ++dropped_by_filter_;
        return;
      }
    }
  }
  const std::uint64_t inc = incarnation_[to];
  sim_.queue().schedule_at(
      *arrival, EventTag{EventKind::kArrival, from.value, to.value},
      [this, from, to, wires = std::move(wires), inc, total] {
        if (incarnation_[to] != inc || network_.is_crashed(to)) return;
        // One receive booking for the coalesced frame...
        const TimePoint deliver_at =
            network_.book_receive(to, total, sim_.now());
        sim_.queue().schedule_at(
            deliver_at, EventTag{EventKind::kDeliver, from.value, to.value},
            [this, from, to, wires, inc] {
              if (incarnation_[to] != inc || network_.is_crashed(to)) return;
              // ...then the messages surface back-to-back, in send order.
              for (const Bytes& wire : wires) {
                if (incarnation_[to] != inc || network_.is_crashed(to)) return;
                auto decoded = Message::decode(wire);
                assert(decoded.is_ok() &&
                       "self-encoded message failed to decode");
                nodes_[to]->on_message(from, decoded.value());
              }
            });
      });
}

TimerHandle SimRuntime::set_timer(NodeId owner, Duration delay,
                                  std::uint64_t tag) {
  return schedule_timer(owner, delay, tag, /*commit=*/false);
}

TimerHandle SimRuntime::schedule_timer(NodeId owner, Duration delay,
                                       std::uint64_t tag, bool commit) {
  const TimerHandle handle = next_timer_++;
  const std::uint64_t inc = incarnation_[owner];
  const EventQueue::EventId ev = sim_.queue().schedule_after(
      delay, EventTag{EventKind::kTimer, owner.value, tag},
      [this, owner, tag, handle, inc, commit] {
        timers_.erase(handle);
        if (incarnation_[owner] != inc || network_.is_crashed(owner)) return;
        if (commit && commit_observer_) commit_observer_(owner, tag, true);
        nodes_[owner]->on_timer(tag);
      });
  timers_[handle] = TimerRecord{owner, ev};
  return handle;
}

void SimRuntime::charge_cpu(NodeId node, Duration d) {
  network_.charge_cpu(node, d, sim_.now());
}

void SimRuntime::submit_commit(NodeId owner, CommitJob job,
                               std::uint64_t tag) {
  const CommitResult r = job();
  TimePoint done = now();
  if (r.bytes > 0) {
    done = disk_write(owner, r.bytes, std::max<std::size_t>(r.records, 1));
  } else if (const SimDisk* disk = disk_of(owner)) {
    done = std::max(done, disk->busy_until());
  }
  if (tag == 0) return;
  if (commit_observer_) commit_observer_(owner, tag, false);
  schedule_timer(owner, done - now(), tag, /*commit=*/true);
}

TimePoint SimRuntime::disk_write(NodeId node, std::size_t bytes,
                                 std::size_t records) {
  auto [it, inserted] = disks_.try_emplace(node, DiskProfile{});
  return it->second.write(bytes, sim_.now(), records);
}

void SimRuntime::set_disk(NodeId node, DiskProfile profile) {
  disks_.insert_or_assign(node, SimDisk(profile));
}

const SimDisk* SimRuntime::disk_of(NodeId node) const {
  auto it = disks_.find(node);
  return it != disks_.end() ? &it->second : nullptr;
}

void SimRuntime::cancel_timer(TimerHandle handle) {
  auto it = timers_.find(handle);
  if (it == timers_.end()) return;  // already fired or cancelled
  sim_.queue().cancel(it->second.event);
  timers_.erase(it);
}

}  // namespace corona
