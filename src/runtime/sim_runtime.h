// Deterministic engine: drives Nodes from the discrete-event simulator
// through the SimNetwork cost model.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "runtime/runtime.h"
#include "sim/sim_disk.h"
#include "sim/sim_network.h"
#include "sim/simulator.h"

namespace corona {

class SimRuntime : public Runtime {
 public:
  SimRuntime();

  Simulator& sim() { return sim_; }
  SimNetwork& network() { return network_; }

  // Registers `node` under `id`, placed on `host`.  The engine does not own
  // the node; harnesses keep nodes alive for the duration of the run.
  void add_node(NodeId id, Node* node, HostId host);

  // Calls on_start for every node that hasn't been started yet.
  void start();

  // Failure injection ----------------------------------------------------
  // Crash: in-flight and future messages to/from the node are dropped and
  // its pending timers are discarded.  The node object is NOT destroyed —
  // its in-memory state is simply unreachable, like a halted process.
  void crash(NodeId id);
  // Restart with a fresh node object (a rebooted process recovering from
  // stable storage).  Runs its on_start.
  void restart(NodeId id, Node* fresh_node);
  bool is_crashed(NodeId id) const { return network_.is_crashed(id); }

  // Runtime interface ------------------------------------------------------
  // Fault injection: messages for which the filter returns true are dropped
  // after the sender has paid its costs (a lossy link / dying connection).
  using DropFilter = std::function<bool(NodeId from, NodeId to, const Message&)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }
  void clear_drop_filter() { drop_filter_ = nullptr; }
  std::uint64_t dropped_by_filter() const { return dropped_by_filter_; }

  TimePoint now() const override { return sim_.now(); }
  void send(NodeId from, NodeId to, const Message& m) override;
  void multicast(NodeId from, const std::vector<NodeId>& to,
                 const Message& m) override;
  void send_batch(NodeId from, NodeId to,
                  const std::vector<Message>& ms) override;
  TimerHandle set_timer(NodeId owner, Duration delay,
                        std::uint64_t tag) override;
  void cancel_timer(TimerHandle handle) override;
  void charge_cpu(NodeId node, Duration d) override;
  // Runs `job` inline, queues what it wrote at the owner's log device and
  // fires the completion when the device finishes.  A commit that wrote
  // nothing completes once the device has drained every earlier write.
  void submit_commit(NodeId owner, CommitJob job, std::uint64_t tag) override;

  // Queues `bytes` at `node`'s log device and returns the completion time.
  // `records` is the number of log records the write covers — 1 for a
  // classic per-message flush, more for a group commit — used by the device
  // model for amortization accounting.  Models the write by advancing
  // virtual time — never parks a thread, so the reach lint must not follow
  // it into real disk paths.
  CORONA_NONBLOCKING TimePoint disk_write(NodeId node, std::size_t bytes,
                                          std::size_t records = 1);

  // Checker hook: called for every commit submitted with a completion tag,
  // once right after its job ran (`completed` false) and once when its
  // completion fires, just before the owner's on_timer(tag) (`completed`
  // true).  Observing adds no events, so journals are unchanged.
  using CommitObserver =
      std::function<void(NodeId owner, std::uint64_t tag, bool completed)>;
  void set_commit_observer(CommitObserver observer) {
    commit_observer_ = std::move(observer);
  }

  // Configures the log-device model for `node` (default: paper-era disk).
  void set_disk(NodeId node, DiskProfile profile);
  const SimDisk* disk_of(NodeId node) const;

  // Run-loop passthrough.
  std::uint64_t run_until_idle(std::uint64_t max_events = UINT64_MAX) {
    return sim_.run_until_idle(max_events);
  }
  std::uint64_t run_for(Duration d) { return sim_.run_for(d); }
  std::uint64_t run_until(TimePoint t) { return sim_.run_until(t); }

 private:
  struct TimerRecord {
    NodeId owner;
    EventQueue::EventId event;
  };

  void schedule_arrival(NodeId from, NodeId to, Bytes wire, TimePoint arrival);
  // set_timer, with the commit observer told just before a commit
  // completion (`commit`) reaches on_timer.
  TimerHandle schedule_timer(NodeId owner, Duration delay, std::uint64_t tag,
                             bool commit);

  Simulator sim_;
  SimNetwork network_;
  std::unordered_map<NodeId, Node*> nodes_;
  std::unordered_set<NodeId> started_;
  std::unordered_map<TimerHandle, TimerRecord> timers_;
  std::unordered_map<NodeId, SimDisk> disks_;
  DropFilter drop_filter_;
  CommitObserver commit_observer_;
  std::uint64_t dropped_by_filter_ = 0;
  TimerHandle next_timer_ = 1;
  // Incremented per node at crash/restart so stale deliveries and timers
  // scheduled for a previous incarnation are discarded.
  std::unordered_map<NodeId, std::uint64_t> incarnation_;
};

}  // namespace corona
