#include "cluster.h"

#include <signal.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/log_reduction.h"
#include "core/server.h"
#include "process.h"
#include "replica/replica_server.h"
#include "stats.h"
#include "storage/disk/disk_env.h"
#include "storage/group_store.h"
#include "storage/mem_env.h"

namespace perfbench {

using corona::GroupId;
using corona::NodeId;
using corona::ObjectId;
using corona::SharedState;
using corona::StateEntry;
using corona::Status;
using corona::UpdateRecord;
using corona::net::Endpoint;
using corona::net::SocketRuntime;

namespace {

constexpr char kLoopback[] = "127.0.0.1";
constexpr std::size_t kTrimEvery = 1024;
// Joiner nodes serving the join stream; a join waits for a free one.
constexpr int kJoinerPool = 16;
// Phase ends are timed from the deliveries themselves, so the generator's
// coarse poll only keeps its main thread off the loop threads' CPUs.  The
// probes time a join by the poll's return and poll finer.
constexpr auto kPhasePoll = std::chrono::milliseconds(1);
constexpr auto kProbePoll = std::chrono::microseconds(200);

// Polls `done` until it holds (true) or `timeout_ms` passes (false).
bool wait_until(const std::function<bool()>& done, int timeout_ms,
                std::chrono::microseconds poll) {
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  while (!done()) {
    if (now_ns() > deadline) return false;
    std::this_thread::sleep_for(poll);
  }
  return true;
}

std::unique_ptr<SocketRuntime> make_runtime(bool traced, bool server_side,
                                             std::set<NodeId> servers) {
  if (traced) {
    return std::make_unique<TracingSocketRuntime>(server_side,
                                                  std::move(servers));
  }
  return std::make_unique<SocketRuntime>();
}

std::uint16_t port_after(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return 0;
  return static_cast<std::uint16_t>(
      std::strtoul(line.c_str() + at + key.size(), nullptr, 10));
}

void add_stats(SocketRuntime::Stats& a, const SocketRuntime::Stats& b) {
  a.frames_sent += b.frames_sent;
  a.frames_received += b.frames_received;
  a.bytes_sent += b.bytes_sent;
  a.bytes_received += b.bytes_received;
  a.accepts += b.accepts;
  a.corrupt_frames += b.corrupt_frames;
  a.messages_dropped += b.messages_dropped;
  a.writev_calls += b.writev_calls;
  a.frames_coalesced += b.frames_coalesced;
}

std::map<std::string, double> ledger_of(const SocketRuntime::Stats& s) {
  return {{"accepts", static_cast<double>(s.accepts)},
          {"frames_rx", static_cast<double>(s.frames_received)},
          {"frames_tx", static_cast<double>(s.frames_sent)}};
}

// ---------------------------------------------------------------------------
// corona-serverd as a child process
// ---------------------------------------------------------------------------

class DaemonHost final : public ServerHost {
 public:
  DaemonHost(const WorkloadSpec& spec, const HostOptions& opt) {
    std::vector<std::string> args{"--listen", std::string(kLoopback) + ":0"};
    if (spec.durable) {
      args.insert(args.end(), {"--data-dir", opt.data_dir, "--sync"});
      if (opt.recover) args.push_back("--recover");
    }
    proc_ = std::make_unique<ChildProcess>(opt.bin_dir + "/corona-serverd", args);
    const std::string line = proc_->wait_line("listening on", 30000);
    const std::size_t colon = line.rfind(':');
    if (line.empty() || colon == std::string::npos) {
      throw std::runtime_error("corona-serverd did not start");
    }
    access_ = {Access{NodeId{1}, static_cast<std::uint16_t>(std::strtoul(
                                     line.c_str() + colon + 1, nullptr, 10))}};
  }

  const std::vector<Access>& access() const override { return access_; }
  pid_t pid() const override { return proc_->pid(); }
  void kill_hard() override {
    bool clean = false;
    (void)proc_->signal_and_wait(SIGKILL, &clean, 10000);
  }
  std::map<std::string, double> stop() override {
    bool clean = false;
    return parse_ledger(proc_->signal_and_wait(SIGTERM, &clean, 30000));
  }

 private:
  std::unique_ptr<ChildProcess> proc_;
  std::vector<Access> access_;
};

// ---------------------------------------------------------------------------
// The replicated star: coordinator (node 1) + leaves (nodes 2, 3)
// ---------------------------------------------------------------------------

class StarHost final : public ServerHost {
 public:
  explicit StarHost(bool traced) {
    const std::vector<NodeId> ids{NodeId{1}, NodeId{2}, NodeId{3}};
    const std::set<NodeId> id_set(ids.begin(), ids.end());
    std::vector<std::uint16_t> ports;
    for (NodeId id : ids) {
      servers_.push_back(std::make_unique<corona::ReplicaServer>(
          corona::ReplicaConfig{}, ids, nullptr));
      rts_.push_back(make_runtime(traced, true, id_set));
      corona::ReplicaServer* s = servers_.back().get();
      if (traced) {
        traced_.push_back(std::make_unique<TracedNode>(
            s, TracedNode::Role::kReplica, s));
        rts_.back()->add_node(id, traced_.back().get());
        s->bind(rts_.back().get(), id);
      } else {
        rts_.back()->add_node(id, s);
      }
      auto port = rts_.back()->listen(kLoopback, 0);
      if (!port.is_ok()) throw std::runtime_error("star listen failed");
      ports.push_back(port.value());
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (std::size_t j = 0; j < ids.size(); ++j) {
        if (i != j) rts_[i]->set_peer_address(ids[j], Endpoint{kLoopback, ports[j]});
      }
    }
    for (auto& rt : rts_) rt->start();
    coord_port_ = ports[0];
    access_ = {Access{ids[1], ports[1]}, Access{ids[2], ports[2]}};
  }
  ~StarHost() override {
    for (auto& rt : rts_) rt->stop();
  }

  const std::vector<Access>& access() const override { return access_; }
  std::uint16_t coordinator_port() const { return coord_port_; }
  std::map<std::string, double> stop() override {
    for (auto& rt : rts_) rt->stop();
    return ledger_of(net_stats());
  }
  std::uint64_t loop_allocs() const override {
    std::uint64_t n = 0;
    for (const auto& t : traced_) n += t->last_allocs();
    return n;
  }
  SocketRuntime::Stats net_stats() const override {
    SocketRuntime::Stats s;
    for (const auto& rt : rts_) add_stats(s, rt->stats());
    return s;
  }

 private:
  std::vector<std::unique_ptr<corona::ReplicaServer>> servers_;
  std::vector<std::unique_ptr<TracedNode>> traced_;
  std::vector<std::unique_ptr<SocketRuntime>> rts_;
  std::vector<Access> access_;
  std::uint16_t coord_port_ = 0;
};

class StarProcessHost final : public ServerHost {
 public:
  explicit StarProcessHost(const HostOptions& opt) {
    proc_ = std::make_unique<ChildProcess>(
        opt.bin_dir + "/perfbench", std::vector<std::string>{"--serve-star"});
    const std::string line = proc_->wait_line("listening", 30000);
    const std::uint16_t a = port_after(line, "leaves=");
    const std::size_t comma = line.find(',', line.find("leaves="));
    if (line.empty() || a == 0 || comma == std::string::npos) {
      throw std::runtime_error("perfbench --serve-star did not start");
    }
    const auto b = static_cast<std::uint16_t>(
        std::strtoul(line.c_str() + comma + 1, nullptr, 10));
    access_ = {Access{NodeId{2}, a}, Access{NodeId{3}, b}};
  }
  const std::vector<Access>& access() const override { return access_; }
  pid_t pid() const override { return proc_->pid(); }
  void kill_hard() override {
    bool clean = false;
    (void)proc_->signal_and_wait(SIGKILL, &clean, 10000);
  }
  std::map<std::string, double> stop() override {
    bool clean = false;
    return parse_ledger(proc_->signal_and_wait(SIGTERM, &clean, 30000));
  }

 private:
  std::unique_ptr<ChildProcess> proc_;
  std::vector<Access> access_;
};

volatile std::sig_atomic_t g_star_stop = 0;
void on_star_signal(int) { g_star_stop = 1; }

// ---------------------------------------------------------------------------
// In-process single server with the daemon's configuration (traced run)
// ---------------------------------------------------------------------------

class InProcessHost final : public ServerHost {
 public:
  InProcessHost(const WorkloadSpec& spec, const HostOptions& opt)
      : durable_(spec.durable), dir_(opt.data_dir) {
    corona::StorageEnv* base = nullptr;
    if (durable_) {
      disk_ = std::make_unique<corona::disk::DiskEnv>(
          corona::disk::DiskEnvConfig{dir_, 1u << 20});
      base = disk_.get();
    } else {
      mem_ = std::make_unique<corona::MemStorageEnv>();
      base = mem_.get();
    }
    env_ = std::make_unique<TracingEnv>(base);
    store_ = std::make_unique<corona::GroupStore>(env_.get());
    if (durable_) (void)store_->recover();
    // corona-serverd's defaults, plus --sync on the durable workload.
    corona::ServerConfig cfg;
    if (durable_) cfg.flush = corona::FlushPolicy::kSync;
    cfg.reduction_factory = [] { return corona::make_count_threshold(1024); };
    server_ = std::make_unique<corona::CoronaServer>(cfg, store_.get());
    node_ = std::make_unique<TracedNode>(server_.get(), TracedNode::Role::kServer);
    rt_ = std::make_unique<TracingSocketRuntime>(true, std::set<NodeId>{NodeId{1}});
    rt_->add_node(NodeId{1}, node_.get());
    server_->bind(rt_.get(), NodeId{1});
    auto port = rt_->listen(kLoopback, 0);
    if (!port.is_ok()) throw std::runtime_error("listen failed");
    access_ = {Access{NodeId{1}, port.value()}};
    rt_->start();
  }
  ~InProcessHost() override { rt_->stop(); }

  const std::vector<Access>& access() const override { return access_; }
  std::map<std::string, double> stop() override {
    rt_->stop();
    if (durable_) (void)store_->flush();
    return ledger_of(rt_->stats());
  }
  std::uint64_t loop_allocs() const override { return node_->last_allocs(); }
  SocketRuntime::Stats net_stats() const override { return rt_->stats(); }
  std::uint64_t fsyncs() const override {
    return disk_ ? disk_->stats().fsyncs : 0;
  }
  double time_store_recovery() override {
    const std::int64_t t0 = now_ns();
    std::size_t groups = 0;
    if (durable_) {
      corona::disk::DiskEnv env(corona::disk::DiskEnvConfig{dir_, 1u << 20});
      corona::GroupStore store(&env);
      groups = store.recover().size();
    } else {
      groups = store_->recover().size();
    }
    const std::int64_t t1 = now_ns();
    return groups == 0 ? 0.0 : static_cast<double>(t1 - t0) / 1e9;
  }

 private:
  bool durable_;
  std::string dir_;
  std::unique_ptr<corona::disk::DiskEnv> disk_;
  std::unique_ptr<corona::MemStorageEnv> mem_;
  std::unique_ptr<TracingEnv> env_;
  std::unique_ptr<corona::GroupStore> store_;
  std::unique_ptr<corona::CoronaServer> server_;
  std::unique_ptr<TracedNode> node_;
  std::unique_ptr<TracingSocketRuntime> rt_;
  std::vector<Access> access_;
};

}  // namespace

std::unique_ptr<ServerHost> launch_host(const WorkloadSpec& spec,
                                        const HostOptions& opt) {
  if (spec.topology == Topology::kStar) {
    if (opt.traced) return std::make_unique<StarHost>(true);
    return std::make_unique<StarProcessHost>(opt);
  }
  if (opt.traced) return std::make_unique<InProcessHost>(spec, opt);
  return std::make_unique<DaemonHost>(spec, opt);
}

int serve_star_main() {
  StarHost host(false);
  std::signal(SIGINT, on_star_signal);
  std::signal(SIGTERM, on_star_signal);
  std::printf("perfbench-star: listening coordinator=%u leaves=%u,%u\n",
              host.coordinator_port(), host.access()[0].port,
              host.access()[1].port);
  std::fflush(stdout);
  while (!g_star_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const auto ledger = host.stop();
  std::printf("perfbench-star: shut down; accepts=%.0f frames_rx=%.0f "
              "frames_tx=%.0f\n",
              ledger.at("accepts"), ledger.at("frames_rx"),
              ledger.at("frames_tx"));
  return 0;
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

struct Generator::Member {
  NodeId id;
  int index = 0;
  int group = 0;
  std::unique_ptr<corona::CoronaClient> client;
  std::unique_ptr<TracedNode> traced;
  // Loop-thread only while the runtime runs.
  DeliveryLog log;
  std::vector<std::pair<std::uint32_t, std::int64_t>> lat_ns;  // (op, ns)
  std::size_t next_closed = 0;
  std::size_t closed_end = 0;  // end of the current closed-loop round
  std::size_t since_trim = 0;
};

struct Generator::Joiner {
  NodeId id;
  std::unique_ptr<corona::CoronaClient> client;
  std::unique_ptr<TracedNode> traced;
  std::atomic<bool> busy{false};
  JoinRecord cur;  // main thread before join(), loop thread after
  std::int64_t call_ns = 0;
  std::vector<JoinRecord> done;
};

Generator::Generator(const WorkloadSpec& spec, const Inputs& in,
                     const std::vector<Access>& access, bool traced)
    : spec_(spec), in_(in), traced_(traced) {
  first_closed_id_ = static_cast<std::uint64_t>(in.groups) *
                         static_cast<std::uint64_t>(in.objects_per_group) + 1;
  first_open_id_ = first_closed_id_ + in.closed_count();
  end_open_id_ = first_open_id_ + in.open.size();
  for (std::size_t i = 0; i < in.open.size(); ++i) {
    open_events_.push_back({in.open[i].due_ns, i, false});
  }
  if (spec.joins_with_writes) {
    for (std::size_t i = 0; i < in.joins.size(); ++i) {
      open_events_.push_back({in.joins[i].due_ns, i, true});
    }
  } else {
    for (std::size_t i = 0; i < in.joins.size(); ++i) {
      join_events_.push_back({in.joins[i].due_ns, i, true});
    }
  }
  std::stable_sort(open_events_.begin(), open_events_.end(),
                   [](const Event& a, const Event& b) { return a.due < b.due; });

  std::set<NodeId> servers;
  for (const Access& a : access) servers.insert(a.server);
  for (int c = 0; c < kConnections; ++c) {
    rts_.push_back(make_runtime(traced, false, servers));
    const Access& a = access[static_cast<std::size_t>(c) % access.size()];
    rts_.back()->set_peer_address(a.server, Endpoint{kLoopback, a.port});
  }
  auto attach = [&](corona::CoronaClient* client, std::unique_ptr<TracedNode>& t,
                    NodeId id, int conn) {
    SocketRuntime& rt = *rts_[static_cast<std::size_t>(conn)];
    if (traced) {
      t = std::make_unique<TracedNode>(client, TracedNode::Role::kClient);
      rt.add_node(id, t.get());
      client->bind(&rt, id);
    } else {
      rt.add_node(id, client);
    }
  };
  auto server_of = [&](int conn) {
    return access[static_cast<std::size_t>(conn) % access.size()].server;
  };

  const int members = spec.groups * spec.members_per_group;
  sent_by_group_.resize(static_cast<std::size_t>(spec.groups));
  for (int i = 0; i < members; ++i) {
    auto m = std::make_unique<Member>();
    m->id = NodeId{static_cast<std::uint64_t>(100 + i)};
    m->index = i;
    m->group = i / spec.members_per_group;
    const int conn = i % kConnections;
    Member* mp = m.get();
    corona::CoronaClient::Callbacks cb;
    cb.on_deliver = [this, mp](GroupId, const UpdateRecord& rec) {
      on_member_deliver(*mp, rec);
    };
    cb.on_joined = [this](GroupId, Status st) {
      (st.is_ok() ? c_.members_joined : c_.member_join_failed).fetch_add(1);
    };
    cb.on_reply = [this](corona::RequestId, Status st) {
      (st.is_ok() ? c_.ok_replies : c_.error_replies).fetch_add(1);
    };
    m->client = std::make_unique<corona::CoronaClient>(server_of(conn), cb);
    attach(m->client.get(), m->traced, m->id, conn);
    members_.push_back(std::move(m));
  }
  for (const auto& per_sender : in.closed) {
    for (const SendOp& op : per_sender) sent_by_group_[op.group].push_back(op.id);
  }
  for (const SendOp& op : in.open) sent_by_group_[op.group].push_back(op.id);

  const int joiners = in.joins.empty() ? 0 : kJoinerPool;
  for (int i = 0; i < joiners; ++i) {
    auto j = std::make_unique<Joiner>();
    j->id = NodeId{static_cast<std::uint64_t>(5000 + i)};
    const int conn = i % kConnections;
    Joiner* jp = j.get();
    corona::CoronaClient::Callbacks cb;
    cb.on_joined = [this, jp](GroupId g, Status st) {
      on_joiner_joined(*jp, g, std::move(st));
    };
    cb.on_reply = [this](corona::RequestId, Status st) {
      if (!st.is_ok()) c_.error_replies.fetch_add(1);
    };
    j->client = std::make_unique<corona::CoronaClient>(server_of(conn), cb);
    attach(j->client.get(), j->traced, j->id, conn);
    joiners_.push_back(std::move(j));
  }
}

Generator::~Generator() { stop(); }

void Generator::start() {
  for (auto& rt : rts_) rt->start();
}

void Generator::stop() {
  for (auto& rt : rts_) rt->stop();
}

bool Generator::create_groups(int timeout_ms) {
  const std::uint64_t before = c_.ok_replies.load();
  for (int g = 0; g < spec_.groups; ++g) {
    std::vector<StateEntry> state;
    for (int o = 0; o < in_.objects_per_group; ++o) {
      state.push_back(StateEntry{ObjectId{static_cast<std::uint64_t>(o + 1)},
                                 in_.payload(in_.preload_id(g, o))});
    }
    Member& creator = *members_[static_cast<std::size_t>(g * spec_.members_per_group)];
    (void)creator.client->create_group(
        GroupId{static_cast<std::uint64_t>(g + 1)}, "perfbench", true,
        std::move(state));
  }
  return wait_until(
      [&] {
        return c_.ok_replies.load() >= before + static_cast<std::uint64_t>(spec_.groups) ||
               c_.error_replies.load() > 0;
      },
      timeout_ms, kPhasePoll) &&
         c_.error_replies.load() == 0;
}

bool Generator::join_members(int timeout_ms) {
  for (auto& m : members_) {
    // No membership-notice subscription: with it every joiner's join and
    // leave would fan a notice out to each member, and the join stream
    // would measure notices rather than state transfer.
    (void)m->client->join(GroupId{static_cast<std::uint64_t>(m->group + 1)},
                          corona::TransferPolicySpec::full(),
                          corona::MemberRole::kPrincipal,
                          /*notify_membership=*/false);
  }
  const std::uint64_t n = members_.size();
  return wait_until(
      [&] {
        return c_.members_joined.load() >= n ||
               c_.member_join_failed.load() > 0;
      },
      timeout_ms, kPhasePoll) &&
         c_.member_join_failed.load() == 0;
}

void Generator::send_op(Member& m, const SendOp& op) {
  if (traced_) Tracer::get().stamp_call(op.id, now_ns());
  (void)m.client->bcast_state(GroupId{static_cast<std::uint64_t>(op.group + 1)},
                              ObjectId{static_cast<std::uint64_t>(op.object + 1)},
                              in_.payload(op.id), /*sender_inclusive=*/true);
}

void Generator::send_next_closed(Member& m) {
  const auto& ops = in_.closed[static_cast<std::size_t>(m.index)];
  if (m.next_closed < m.closed_end) send_op(m, ops[m.next_closed++]);
}

void Generator::on_member_deliver(Member& m, const UpdateRecord& rec) {
  Span tracer_work(SpanKind::kTracer);
  const std::int64_t now = now_ns();
  const std::uint64_t id = payload_id(rec.data);
  if (id == 0 || id > in_.max_id() || payload_hash(rec.data) != in_.hash_of[id]) {
    c_.hash_bad.fetch_add(1);
  }
  m.log.emplace_back(rec.seq, id);
  if (id >= first_open_id_ && id < end_open_id_) {
    const auto op = static_cast<std::uint32_t>(id - first_open_id_);
    const std::int64_t due =
        c_.open_epoch_ns.load(std::memory_order_relaxed) + in_.open[op].due_ns;
    m.lat_ns.emplace_back(op, latency_ns(due, now));
  } else if (id >= first_closed_id_ && id < first_open_id_ && rec.sender == m.id) {
    send_next_closed(m);
  }
  if (++m.since_trim >= kTrimEvery) {
    // CoronaClient leaves trimming its replica's history to the
    // application; without it generator memory grows with run length.
    m.since_trim = 0;
    auto* st = const_cast<SharedState*>(m.client->group_state(
        GroupId{static_cast<std::uint64_t>(m.group + 1)}));
    if (st != nullptr) (void)st->reduce_to(st->head_seq());
  }
  c_.last_deliver_ns.store(now, std::memory_order_relaxed);
  c_.delivered.fetch_add(1, std::memory_order_release);
}

double Generator::run_closed(int k, int rounds, int timeout_ms) {
  const std::size_t per_sender = in_.closed.front().size();
  const std::size_t lo = per_sender * static_cast<std::size_t>(k) /
                         static_cast<std::size_t>(rounds);
  const std::size_t hi = per_sender * static_cast<std::size_t>(k + 1) /
                         static_cast<std::size_t>(rounds);
  const std::size_t msgs = (hi - lo) * members_.size();
  const std::uint64_t target =
      c_.delivered.load() +
      msgs * static_cast<std::uint64_t>(spec_.members_per_group);
  // Set every member's round before the first send: the loop threads
  // advance next_closed from here on.
  const std::size_t first_end = std::min(hi, lo + static_cast<std::size_t>(spec_.window));
  for (auto& m : members_) {
    m->closed_end = hi;
    m->next_closed = first_end;
  }
  const std::int64_t t0 = now_ns();
  for (auto& m : members_) {
    const auto& ops = in_.closed[static_cast<std::size_t>(m->index)];
    for (std::size_t i = lo; i < first_end; ++i) send_op(*m, ops[i]);
  }
  sent_ += msgs;
  if (!wait_until([&] { return c_.delivered.load(std::memory_order_acquire) >= target; },
                  timeout_ms, kPhasePoll)) {
    return 0;
  }
  const double secs = static_cast<double>(c_.last_deliver_ns.load() - t0) / 1e9;
  return static_cast<double>(msgs) / secs;
}

void Generator::issue_join(std::size_t index) {
  const JoinOp& op = in_.joins[index];
  // A free joiner; waiting here shows up as generator lag.
  for (;;) {
    for (auto& j : joiners_) {
      if (j->busy.load(std::memory_order_acquire)) continue;
      j->busy.store(true);
      j->cur = JoinRecord{};
      j->cur.index = static_cast<std::uint32_t>(index);
      j->cur.group = op.group;
      j->cur.last_n = op.last_n;
      j->call_ns = now_ns();
      (void)j->client->join(GroupId{static_cast<std::uint64_t>(op.group + 1)},
                            op.last_n ? corona::TransferPolicySpec::last_n_updates(kLastN)
                                      : corona::TransferPolicySpec::full(),
                            corona::MemberRole::kPrincipal,
                            /*notify_membership=*/false);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
}

void Generator::on_joiner_joined(Joiner& j, GroupId g, Status st) {
  const std::int64_t now = now_ns();
  Span tracer_work(SpanKind::kTracer);
  JoinRecord r = std::move(j.cur);
  r.latency_ns = now - j.call_ns;
  r.ok = st.is_ok();
  if (r.ok) {
    const SharedState* s = j.client->group_state(g);
    r.head = s->head_seq();
    auto check = [&](const corona::Bytes& data) {
      const std::uint64_t id = payload_id(data);
      if (id == 0 || id > in_.max_id() || payload_hash(data) != in_.hash_of[id]) {
        r.hash_ok = false;
      }
      return id;
    };
    if (!r.last_n) {
      r.ids.resize(static_cast<std::size_t>(in_.objects_per_group));
      for (int o = 0; o < in_.objects_per_group; ++o) {
        const corona::Bytes* b = s->object(ObjectId{static_cast<std::uint64_t>(o + 1)});
        r.ids[static_cast<std::size_t>(o)] = b != nullptr ? check(*b) : 0;
      }
    } else {
      for (const UpdateRecord& u : s->history()) {
        r.seqs.push_back(u.seq);
        r.ids.push_back(check(u.data));
      }
    }
    (void)j.client->leave(g);
  }
  j.done.push_back(std::move(r));
  c_.joins_done.fetch_add(1, std::memory_order_release);
  j.busy.store(false, std::memory_order_release);
}

std::vector<std::int64_t> Generator::run_timeline(const std::vector<Event>& events,
                                                  int k, int slices, int timeout_ms,
                                                  bool* complete) {
  const std::size_t lo = events.size() * static_cast<std::size_t>(k) /
                         static_cast<std::size_t>(slices);
  const std::size_t hi = events.size() * static_cast<std::size_t>(k + 1) /
                         static_cast<std::size_t>(slices);
  *complete = true;
  if (lo == hi) return {};
  std::vector<std::int64_t> due;
  std::uint64_t sends = 0, joins = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    due.push_back(events[i].due - events[lo].due);
    ++(events[i].join ? joins : sends);
  }
  const std::uint64_t target =
      c_.delivered.load() + sends * static_cast<std::uint64_t>(spec_.members_per_group);
  const std::uint64_t joins_target = c_.joins_done.load() + joins;
  // The slice's schedule starts 2 ms from now; deliveries are timed from
  // epoch + the send's due offset within the whole schedule.
  const std::int64_t start = now_ns() + 2'000'000;
  c_.open_epoch_ns.store(start - events[lo].due);
  std::vector<std::int64_t> lag = run_open_loop(
      due, start, steady_pace_clock(), [&](std::size_t i, std::int64_t) {
        const Event& e = events[lo + i];
        if (e.join) {
          issue_join(e.index);
        } else {
          const SendOp& op = in_.open[e.index];
          send_op(*members_[op.sender], op);
        }
      });
  sent_ += sends;
  *complete = wait_until(
      [&] {
        return c_.delivered.load(std::memory_order_acquire) >= target &&
               c_.joins_done.load(std::memory_order_acquire) >= joins_target;
      },
      timeout_ms, kPhasePoll);
  return lag;
}

std::vector<std::int64_t> Generator::run_open(int k, int slices, int timeout_ms,
                                              bool* complete) {
  return run_timeline(open_events_, k, slices, timeout_ms, complete);
}

std::vector<std::int64_t> Generator::run_joins(int k, int slices, int timeout_ms,
                                               bool* complete) {
  return run_timeline(join_events_, k, slices, timeout_ms, complete);
}

std::vector<std::vector<double>> Generator::delivery_latencies_ms(
    int segments) const {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(segments));
  const std::size_t n = std::max<std::size_t>(in_.open.size(), 1);
  for (const auto& m : members_) {
    for (const auto& [op, ns] : m->lat_ns) {
      out[op * static_cast<std::size_t>(segments) / n].push_back(
          static_cast<double>(ns) / 1e6);
    }
  }
  return out;
}

std::vector<std::vector<double>> Generator::join_latencies_ms(int segments) const {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(segments));
  const std::size_t n = std::max<std::size_t>(in_.joins.size(), 1);
  for (const auto& j : joiners_) {
    for (const JoinRecord& r : j->done) {
      if (r.ok) {
        out[r.index * static_cast<std::size_t>(segments) / n].push_back(
            static_cast<double>(r.latency_ns) / 1e6);
      }
    }
  }
  return out;
}

std::vector<std::vector<const DeliveryLog*>> Generator::logs_by_group() const {
  std::vector<std::vector<const DeliveryLog*>> out(
      static_cast<std::size_t>(spec_.groups));
  for (const auto& m : members_) {
    out[static_cast<std::size_t>(m->group)].push_back(&m->log);
  }
  return out;
}

std::vector<const JoinRecord*> Generator::join_records() const {
  std::vector<const JoinRecord*> out;
  for (const auto& j : joiners_) {
    for (const JoinRecord& r : j->done) out.push_back(&r);
  }
  return out;
}

std::vector<std::vector<std::uint64_t>> Generator::sent_by_group() const {
  return sent_by_group_;
}

std::uint64_t Generator::gaps_detected() const {
  std::uint64_t n = 0;
  for (const auto& m : members_) n += m->client->gaps_detected();
  for (const auto& j : joiners_) n += j->client->gaps_detected();
  return n;
}

SocketRuntime::Stats Generator::net_stats() const {
  SocketRuntime::Stats s;
  for (const auto& rt : rts_) add_stats(s, rt->stats());
  return s;
}

// ---------------------------------------------------------------------------
// Probe
// ---------------------------------------------------------------------------

struct Probe::Node {
  NodeId id;
  std::unique_ptr<corona::CoronaClient> client;
  std::atomic<std::uint64_t> ok{0}, err{0}, joined{0}, own{0};
  std::map<std::uint32_t, DeliveryLog> log;  // loop thread while running
};

Probe::Probe(const Access& access, int nodes, std::uint64_t first_node) {
  rt_ = std::make_unique<SocketRuntime>();
  rt_->set_peer_address(access.server, Endpoint{kLoopback, access.port});
  for (int i = 0; i < nodes; ++i) {
    auto n = std::make_unique<Node>();
    n->id = NodeId{first_node + static_cast<std::uint64_t>(i)};
    Node* np = n.get();
    corona::CoronaClient::Callbacks cb;
    cb.on_reply = [np](corona::RequestId, Status st) {
      (st.is_ok() ? np->ok : np->err).fetch_add(1);
    };
    cb.on_joined = [np](GroupId, Status st) {
      (st.is_ok() ? np->joined : np->err).fetch_add(1);
    };
    cb.on_deliver = [np](GroupId g, const UpdateRecord& rec) {
      np->log[static_cast<std::uint32_t>(g.value - 1)].emplace_back(
          rec.seq, payload_id(rec.data));
      if (rec.sender == np->id) np->own.fetch_add(1);
    };
    n->client = std::make_unique<corona::CoronaClient>(access.server, cb);
    rt_->add_node(n->id, n->client.get());
    nodes_.push_back(std::move(n));
  }
  rt_->start();
}

Probe::~Probe() { stop(); }

void Probe::stop() { rt_->stop(); }

bool Probe::create(int node, GroupId g, std::vector<StateEntry> state,
                   int timeout_ms) {
  Node& n = *nodes_[static_cast<std::size_t>(node)];
  const std::uint64_t before = n.ok.load();
  (void)n.client->create_group(g, "perfbench", true, std::move(state));
  return wait_until([&] { return n.ok.load() > before || n.err.load() > 0; },
                    timeout_ms, kProbePoll) &&
         n.err.load() == 0;
}

bool Probe::join(int node, GroupId g, int timeout_ms) {
  Node& n = *nodes_[static_cast<std::size_t>(node)];
  const std::uint64_t before = n.joined.load();
  (void)n.client->join(g);
  return wait_until([&] { return n.joined.load() > before || n.err.load() > 0; },
                    timeout_ms, kProbePoll) &&
         n.err.load() == 0;
}

bool Probe::write(int node, const Inputs& in, const std::vector<SendOp>& ops,
                  int timeout_ms) {
  Node& n = *nodes_[static_cast<std::size_t>(node)];
  const std::uint64_t target = n.own.load() + ops.size();
  for (const SendOp& op : ops) {
    (void)n.client->bcast_state(GroupId{static_cast<std::uint64_t>(op.group + 1)},
                                ObjectId{static_cast<std::uint64_t>(op.object + 1)},
                                in.payload(op.id), true);
  }
  return wait_until([&] { return n.own.load() >= target || n.err.load() > 0; },
                    timeout_ms, kProbePoll) &&
         n.err.load() == 0;
}

const SharedState* Probe::state(int node, GroupId g) const {
  return nodes_[static_cast<std::size_t>(node)]->client->group_state(g);
}

const std::map<std::uint32_t, DeliveryLog>& Probe::delivered(int node) const {
  return nodes_[static_cast<std::size_t>(node)]->log;
}

}  // namespace perfbench
