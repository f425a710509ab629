// The system under test and the load generator's side of it.
//
// Server hosts:
//   * DaemonHost      — the shipped corona-serverd as a child process;
//   * StarHost        — coordinator + 2 leaves, each ReplicaServer on its
//                       own SocketRuntime; run as a child process
//                       (`perfbench --serve-star`) or in-process (traced);
//   * InProcessHost   — CoronaServer in-process with the daemon's config,
//                       wrapped for tracing (the per-layer run).
//
// Generator: 1-2 SocketRuntimes, each multiplexing many CoronaClient nodes
// over one TCP connection.  Long-lived members record what they deliver
// for the oracle; a pool of joiners serves the join stream.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "inputs.h"
#include "net/socket_runtime.h"
#include "oracle.h"
#include "trace.h"

namespace perfbench {

// Where one generator connection attaches: the server node its members
// talk to, and its port on 127.0.0.1.
struct Access {
  corona::NodeId server;
  std::uint16_t port = 0;
};

class ServerHost {
 public:
  virtual ~ServerHost() = default;
  virtual const std::vector<Access>& access() const = 0;
  // Child-process hosts: the pid /proc is read from (-1 in-process).
  virtual pid_t pid() const { return -1; }
  virtual void kill_hard() {}
  // Clean shutdown; returns the shutdown ledger as key=value pairs.
  virtual std::map<std::string, double> stop() = 0;
  // -- in-process (traced) hosts; child-process hosts read 0 -------------
  // Allocations the server loop thread(s) have made.
  virtual std::uint64_t loop_allocs() const { return 0; }
  // Runtime counters summed over the server runtimes.
  virtual corona::net::SocketRuntime::Stats net_stats() const { return {}; }
  virtual std::uint64_t fsyncs() const { return 0; }
  // After stop(): seconds for GroupStore construction + recover() over the
  // same storage (0 without persistent groups).
  virtual double time_store_recovery() { return 0; }
};

struct HostOptions {
  std::string bin_dir;   // directory holding corona-serverd and perfbench
  std::string data_dir;  // durable workloads only
  bool recover = false;  // restart over an existing data dir
  bool traced = false;   // in-process with tracing wrappers
};

// Launches the host the workload names (throws std::runtime_error).
std::unique_ptr<ServerHost> launch_host(const WorkloadSpec& spec,
                                        const HostOptions& opt);

// `perfbench --serve-star`: hosts the star until SIGTERM, then prints a
// ledger like corona-serverd's.
int serve_star_main();

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

struct GenCounters {
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> hash_bad{0};
  std::atomic<std::uint64_t> ok_replies{0};
  std::atomic<std::uint64_t> error_replies{0};
  std::atomic<std::uint64_t> members_joined{0};
  std::atomic<std::uint64_t> member_join_failed{0};
  std::atomic<std::uint64_t> joins_done{0};
  std::atomic<std::int64_t> last_deliver_ns{0};
  // Open loop: a send due at Inputs::open[i].due_ns was due at
  // open_epoch_ns + due_ns (set per slice of the schedule).
  std::atomic<std::int64_t> open_epoch_ns{0};
};

class Generator {
 public:
  Generator(const WorkloadSpec& spec, const Inputs& in,
            const std::vector<Access>& access, bool traced);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void start();
  void stop();

  // Setup: each group's first member creates it with the preloaded
  // objects, then every member joins.  False on timeout or error.
  bool create_groups(int timeout_ms);
  bool join_members(int timeout_ms);

  // Closed loop over Inputs::closed, cut into `rounds` equal rounds that
  // each start from an empty pipeline: runs round `k` and returns its
  // multicasts/s (0 on timeout).
  double run_closed(int k, int rounds, int timeout_ms);
  // Open loop over Inputs::open, with Inputs::joins merged into the
  // schedule when the workload's joins_with_writes: runs slice `k` of
  // `slices` consecutive slices of the schedule and returns each event's
  // generator lag.  Waits for every delivery and join of the slice;
  // `complete` is false on timeout.
  std::vector<std::int64_t> run_open(int k, int slices, int timeout_ms,
                                     bool* complete);
  // Otherwise Inputs::joins, on their own schedule, cut the same way.
  std::vector<std::int64_t> run_joins(int k, int slices, int timeout_ms,
                                      bool* complete);

  // -- read after stop() -------------------------------------------------
  // Open-loop delivery latencies (every message, member pair) and join
  // latencies, split into `segments` consecutive slices of the schedule.
  std::vector<std::vector<double>> delivery_latencies_ms(int segments) const;
  std::vector<std::vector<double>> join_latencies_ms(int segments) const;
  std::vector<std::vector<const DeliveryLog*>> logs_by_group() const;
  std::vector<const JoinRecord*> join_records() const;
  std::vector<std::vector<std::uint64_t>> sent_by_group() const;
  std::uint64_t gaps_detected() const;
  std::uint64_t messages_sent() const { return sent_; }
  corona::net::SocketRuntime::Stats net_stats() const;
  const GenCounters& counters() const { return c_; }

 private:
  struct Member;
  struct Joiner;
  struct Event {
    std::int64_t due;   // offset from the schedule's start
    std::size_t index;  // into Inputs::open, or Inputs::joins if `join`
    bool join;
  };

  void on_member_deliver(Member& m, const corona::UpdateRecord& rec);
  void send_next_closed(Member& m);
  void send_op(Member& m, const SendOp& op);
  void issue_join(std::size_t index);
  void on_joiner_joined(Joiner& j, corona::GroupId g, corona::Status st);
  std::vector<std::int64_t> run_timeline(const std::vector<Event>& events, int k,
                                         int slices, int timeout_ms, bool* complete);

  const WorkloadSpec& spec_;
  const Inputs& in_;
  bool traced_;
  std::uint64_t first_closed_id_ = 0, first_open_id_ = 0, end_open_id_ = 0;
  std::vector<Event> open_events_, join_events_;  // in due order
  std::vector<std::unique_ptr<corona::net::SocketRuntime>> rts_;
  std::vector<std::unique_ptr<Member>> members_;
  std::vector<std::unique_ptr<Joiner>> joiners_;
  std::vector<std::vector<std::uint64_t>> sent_by_group_;
  std::uint64_t sent_ = 0;
  GenCounters c_;
};

// A short-lived client set for the crash/restart cycles: one runtime and a
// few nodes with blocking helpers.
class Probe {
 public:
  Probe(const Access& access, int nodes, std::uint64_t first_node);
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // Each blocking helper returns false on timeout or an error reply.
  bool create(int node, corona::GroupId g,
              std::vector<corona::StateEntry> state, int timeout_ms);
  bool join(int node, corona::GroupId g, int timeout_ms);
  // Sends `ops` sender-inclusive from `node` and waits for its own
  // deliveries, which delivered() then lists.
  bool write(int node, const Inputs& in, const std::vector<SendOp>& ops,
             int timeout_ms);
  const corona::SharedState* state(int node, corona::GroupId g) const;
  // Deliveries seen by `node`, per group index, in arrival order.
  const std::map<std::uint32_t, DeliveryLog>& delivered(int node) const;
  void stop();

 private:
  struct Node;
  std::unique_ptr<corona::net::SocketRuntime> rt_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace perfbench
