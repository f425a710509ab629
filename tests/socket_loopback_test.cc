// End-to-end Corona over real TCP on 127.0.0.1: one SocketRuntime process
// hosting the stateful server, three more hosting one CoronaClient each —
// four event loops, four real sockets, the unchanged protocol code from
// src/core.  Covers the full session: create, join with customized state
// transfer, >100 sequenced multicasts in identical total order, locks, a
// dropped-and-reconnected client resyncing via retransmission, and leave.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/log_reduction.h"
#include "core/server.h"
#include "core/stateless_server.h"
#include "net/socket_runtime.h"
#include "storage/disk/disk_env.h"
#include "storage/disk/disk_io.h"

namespace corona::net {
namespace {

const NodeId kServerId{1};
const GroupId kG{1};
const ObjectId kObj{1};

// Polls `pred` until it holds or `timeout` wall-clock elapses.  Generous
// timeouts keep this stable under sanitizers on loaded machines.
bool wait_until(const std::function<bool()>& pred,
                Duration timeout = 30 * kSecond) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// One client "process": its own SocketRuntime whose address book holds just
// the server, plus journals filled from the delivery callback.
struct ClientProc {
  explicit ClientProc(NodeId id, std::uint16_t server_port,
                      SocketRuntimeConfig cfg = {},
                      int first_deliver_stall_ms = 0)
      : rt(cfg), id(id) {
    CoronaClient::Callbacks cb;
    cb.on_deliver = [this, first_deliver_stall_ms](GroupId g,
                                                   const UpdateRecord& rec) {
      // A positive stall blocks this client's event loop on its first
      // delivery.  While it sleeps nothing is read, so the kernel buffers
      // behind it stay at their small initial sizes and a concurrent
      // fan-out burst sees genuine EAGAIN backpressure at the server.
      if (first_deliver_stall_ms > 0 && !stalled) {
        stalled = true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(first_deliver_stall_ms));
      }
      std::lock_guard<std::mutex> lock(mu);
      journal.push_back(rec.seq);
      by_group[g].push_back(rec.seq);
    };
    cb.on_joined = [this](GroupId, Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.is_ok()) ++joins_ok;
    };
    cb.on_lock_granted = [this](GroupId, ObjectId) {
      std::lock_guard<std::mutex> lock(mu);
      ++lock_grants;
    };
    cb.on_reply = [this](RequestId, Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.is_ok()) ++replies_ok;
    };
    cb.on_membership_info = [this](GroupId, const std::vector<MemberInfo>&) {
      std::lock_guard<std::mutex> lock(mu);
      ++membership_infos;
    };
    client = std::make_unique<CoronaClient>(kServerId, cb);
    rt.add_node(id, client.get());
    rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", server_port});
    rt.start();
  }
  ~ClientProc() { rt.stop(); }

  std::size_t journal_size() {
    std::lock_guard<std::mutex> lock(mu);
    return journal.size();
  }
  std::vector<SeqNo> journal_copy() {
    std::lock_guard<std::mutex> lock(mu);
    return journal;
  }
  std::vector<SeqNo> group_journal(GroupId g) {
    std::lock_guard<std::mutex> lock(mu);
    return by_group[g];
  }
  void clear_journal() {
    std::lock_guard<std::mutex> lock(mu);
    journal.clear();
  }
  int joins() {
    std::lock_guard<std::mutex> lock(mu);
    return joins_ok;
  }
  int grants() {
    std::lock_guard<std::mutex> lock(mu);
    return lock_grants;
  }
  int replies() {
    std::lock_guard<std::mutex> lock(mu);
    return replies_ok;
  }
  int memberships() {
    std::lock_guard<std::mutex> lock(mu);
    return membership_infos;
  }
  // After a reconnect: one request/answer round trip over the new
  // connection.  The server learns the route back to this client from the
  // hello that leads the connection, so once it has answered, fan-outs to
  // this client are no longer dropped for want of a route.
  bool round_trip(GroupId g) {
    const int before = memberships();
    client->get_membership(g);
    return wait_until([&] { return memberships() > before; });
  }

  SocketRuntime rt;
  NodeId id;
  std::unique_ptr<CoronaClient> client;

  std::mutex mu;
  std::vector<SeqNo> journal;
  std::map<GroupId, std::vector<SeqNo>> by_group;
  bool stalled = false;  // loop-thread only
  int joins_ok = 0;
  int lock_grants = 0;
  int replies_ok = 0;
  int membership_infos = 0;
};

TEST(SocketLoopback, FullSessionOverRealTcp) {
  // --- server process ---
  SocketRuntime server_rt;
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  // --- three client processes, real connections over 127.0.0.1 ---
  ClientProc c0(NodeId{100}, port.value());
  ClientProc c1(NodeId{101}, port.value());
  // c2 gets a long reconnect backoff so the disconnect window below is wide
  // enough that deliveries are provably lost and must be re-fetched.
  SocketRuntimeConfig slow_redial;
  slow_redial.reconnect_backoff_min = 500 * kMillisecond;
  ClientProc c2(NodeId{102}, port.value(), slow_redial);

  ASSERT_TRUE(wait_until([&] { return server_rt.stats().accepts >= 3; }));

  // --- create + join (full transfer for c0/c1) ---
  c0.client->create_group(kG, "g", true);
  // c1's join rides a different TCP connection than c0's create, so nothing
  // orders them at the server; wait for the create ack before c1 joins.
  ASSERT_TRUE(wait_until([&] { return c0.replies() >= 1; }));
  c0.client->join(kG);
  c1.client->join(kG);
  ASSERT_TRUE(wait_until([&] { return c0.joins() == 1 && c1.joins() == 1; }));

  // --- customized state transfer: 20 updates, then join with last-5 ---
  for (int i = 0; i < 20; ++i) {
    c0.client->bcast_update(kG, kObj, to_bytes("u"));
  }
  ASSERT_TRUE(wait_until([&] { return c1.journal_size() >= 20; }));
  c2.client->join(kG, TransferPolicySpec::last_n_updates(5));
  ASSERT_TRUE(wait_until([&] { return c2.joins() == 1; }));
  {
    const SharedState* st = c2.client->group_state(kG);
    ASSERT_NE(st, nullptr);
    ASSERT_NE(st->object(kObj), nullptr);
    EXPECT_EQ(st->object(kObj)->size(), 5u)
        << "last_n_updates(5) must transfer exactly the 5 newest updates";
    const SharedState* full = c1.client->group_state(kG);
    ASSERT_NE(full, nullptr);
    EXPECT_EQ(full->object(kObj)->size(), 20u);
  }

  // --- >100 sequenced multicasts from all three, identical total order ---
  c0.clear_journal();
  c1.clear_journal();
  c2.clear_journal();
  constexpr int kRounds = 35;  // 3 * 35 = 105 multicasts
  for (int round = 0; round < kRounds; ++round) {
    c0.client->bcast_update(kG, kObj, to_bytes("a"));
    c1.client->bcast_update(kG, kObj, to_bytes("b"));
    c2.client->bcast_update(kG, kObj, to_bytes("c"));
  }
  const std::size_t expect = 3 * kRounds;
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= expect && c1.journal_size() >= expect &&
           c2.journal_size() >= expect;
  }));
  const auto j0 = c0.journal_copy();
  const auto j1 = c1.journal_copy();
  const auto j2 = c2.journal_copy();
  ASSERT_EQ(j0.size(), expect);
  EXPECT_EQ(j0, j1) << "clients saw different total orders";
  EXPECT_EQ(j0, j2) << "clients saw different total orders";
  for (std::size_t i = 1; i < j0.size(); ++i) {
    ASSERT_EQ(j0[i - 1] + 1, j0[i]) << "sequence gap in the total order";
  }

  // --- locks serialize across real connections ---
  c0.client->lock(kG, kObj);
  ASSERT_TRUE(wait_until([&] { return c0.grants() == 1; }));
  c1.client->lock(kG, kObj);  // must queue behind c0
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(c1.grants(), 0);
  c0.client->unlock(kG, kObj);
  ASSERT_TRUE(wait_until([&] { return c1.grants() == 1; }));
  c1.client->unlock(kG, kObj);

  // --- disconnect c2, lose deliveries, reconnect, resync via retransmit ---
  const auto disconnects_before = server_rt.stats().disconnects;
  server_rt.drop_connection(NodeId{102});
  ASSERT_TRUE(wait_until(
      [&] { return server_rt.stats().disconnects > disconnects_before; }));
  // These fan-outs happen while c2 has no connection (its redial waits
  // 500 ms), so its copies are dropped at the server and must come back
  // through the retransmission path.
  for (int i = 0; i < 5; ++i) {
    c0.client->bcast_update(kG, kObj, to_bytes("lost"));
  }
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= expect + 5 && c1.journal_size() >= expect + 5;
  }));
  EXPECT_LT(c2.journal_size(), expect + 5) << "c2 was supposed to be offline";
  // Wait out the redial and a round trip over the new connection, then send
  // one more update: its sequence number exposes the gap to c2, which
  // requests retransmission and catches up.
  ASSERT_TRUE(wait_until(
      [&] { return c2.rt.stats().connects_ok >= 2; }, 60 * kSecond));
  ASSERT_TRUE(c2.round_trip(kG));
  c0.client->bcast_update(kG, kObj, to_bytes("after"));
  // c2 can deliver "after" before c0 does: wait for both before comparing.
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= expect + 6 && c2.journal_size() >= expect + 6;
  }));
  EXPECT_GE(c2.client->gaps_detected(), 1u);
  EXPECT_EQ(c2.journal_copy(), c0.journal_copy())
      << "resynced client diverged from the total order";

  // --- leave: no further deliveries reach c2 ---
  c2.client->leave(kG);
  ASSERT_TRUE(wait_until([&] { return !c2.client->is_joined(kG); }));
  const std::size_t c2_final = c2.journal_size();
  c0.client->bcast_update(kG, kObj, to_bytes("bye"));
  ASSERT_TRUE(wait_until([&] { return c0.journal_size() >= expect + 7; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(c2.journal_size(), c2_final);

  c2.rt.stop();
  c1.rt.stop();
  c0.rt.stop();
  server_rt.stop();
}

// Batched fan-out over real TCP: the server coalesces deliveries into
// multi-frame gathered writes, and a client severed *mid-batch* — the
// connection dies while coalesced frames are still being pushed — resyncs
// via retransmission to the exact unacked suffix.  A torn batch would show
// up as a duplicate, a gap, or a divergent journal.
TEST(SocketLoopback, BatchedFanoutSurvivesMidBatchDisconnect) {
  SocketRuntime server_rt;
  GroupStore store;
  ServerConfig scfg;
  scfg.batch_max_msgs = 8;
  scfg.batch_max_delay = 20 * kMillisecond;
  CoronaServer server(scfg, &store);
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  ClientProc c0(NodeId{100}, port.value());
  ClientProc c1(NodeId{101}, port.value());
  // The victim gets a long redial backoff so its offline window straddles
  // whole batches, not just single frames.
  SocketRuntimeConfig slow_redial;
  slow_redial.reconnect_backoff_min = 500 * kMillisecond;
  ClientProc c2(NodeId{102}, port.value(), slow_redial);
  ASSERT_TRUE(wait_until([&] { return server_rt.stats().accepts >= 3; }));

  c0.client->create_group(kG, "g", true);
  ASSERT_TRUE(wait_until([&] { return c0.replies() >= 1; }));
  c0.client->join(kG);
  c1.client->join(kG);
  c2.client->join(kG);
  ASSERT_TRUE(wait_until(
      [&] { return c0.joins() == 1 && c1.joins() == 1 && c2.joins() == 1; }));

  // --- warm burst: back-to-back sends fill the batch queue, so fan-out
  // frames leave in gathered writes ---
  constexpr std::size_t kWarm = 40;
  for (std::size_t i = 0; i < kWarm; ++i) {
    c0.client->bcast_update(kG, kObj, to_bytes("w"));
  }
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= kWarm && c1.journal_size() >= kWarm &&
           c2.journal_size() >= kWarm;
  }));
  EXPECT_GE(server_rt.stats().writev_calls, 1u);
  EXPECT_GE(server_rt.stats().frames_coalesced, 2u)
      << "no fan-out frame was ever coalesced into a gathered write";

  // --- sever c2 mid-stream, then push two more batches while it is gone ---
  const auto disconnects_before = server_rt.stats().disconnects;
  server_rt.drop_connection(NodeId{102});
  ASSERT_TRUE(wait_until(
      [&] { return server_rt.stats().disconnects > disconnects_before; }));
  constexpr std::size_t kLost = 16;
  for (std::size_t i = 0; i < kLost; ++i) {
    c0.client->bcast_update(kG, kObj, to_bytes("lost"));
  }
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= kWarm + kLost &&
           c1.journal_size() >= kWarm + kLost;
  }));
  EXPECT_LT(c2.journal_size(), kWarm + kLost)
      << "c2 was supposed to be offline";

  // --- redial, round trip, nudge, resync: exactly the unacked suffix
  // comes back ---
  ASSERT_TRUE(wait_until(
      [&] { return c2.rt.stats().connects_ok >= 2; }, 60 * kSecond));
  ASSERT_TRUE(c2.round_trip(kG));
  c0.client->bcast_update(kG, kObj, to_bytes("after"));
  // c2 can deliver "after" before c0 does: wait for both before comparing.
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= kWarm + kLost + 1 &&
           c2.journal_size() >= kWarm + kLost + 1;
  }));
  EXPECT_GE(c2.client->gaps_detected(), 1u);

  const auto j0 = c0.journal_copy();
  const auto j2 = c2.journal_copy();
  EXPECT_EQ(j2, j0) << "resynced client diverged from the total order";
  for (std::size_t i = 1; i < j2.size(); ++i) {
    ASSERT_EQ(j2[i - 1] + 1, j2[i])
        << "duplicate or gap at delivery " << i
        << " — resync replayed something other than the unacked suffix";
  }

  c2.rt.stop();
  c1.rt.stop();
  c0.rt.stop();
  server_rt.stop();
  // The loop thread is joined; server counters are safe to read now.
  EXPECT_GE(server.stats().batches_sequenced, 1u);
  EXPECT_GE(server.stats().batch_frames_sent, 1u)
      << "batching was configured but no coalesced frame was sent";
}

TEST(SocketLoopback, StatelessServerSequencesOverSockets) {
  // The Figure-3 stateless configuration deploys over TCP unchanged too.
  SocketRuntime server_rt;
  StatelessServer server;
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  ClientProc a(NodeId{100}, port.value());
  ClientProc b(NodeId{101}, port.value());

  a.client->create_group(kG, "g", false);
  // b's join is on a different connection than a's create; wait for the ack.
  ASSERT_TRUE(wait_until([&] { return a.replies() >= 1; }));
  a.client->join(kG, TransferPolicySpec::nothing());
  b.client->join(kG, TransferPolicySpec::nothing());
  ASSERT_TRUE(wait_until([&] { return a.joins() == 1 && b.joins() == 1; }));

  for (int i = 0; i < 10; ++i) {
    a.client->bcast_update(kG, kObj, to_bytes("x"));
  }
  ASSERT_TRUE(wait_until(
      [&] { return a.journal_size() >= 10 && b.journal_size() >= 10; }));
  EXPECT_EQ(a.journal_copy(), b.journal_copy());

  a.rt.stop();
  b.rt.stop();
  server_rt.stop();
}

// Node::on_timer must work unchanged on the socket engine.
class TickNode : public Node {
 public:
  std::atomic<int> fired{0};
  TimerHandle cancelled = 0;

  void on_start() override {
    set_timer(5 * kMillisecond, 1);
    cancelled = set_timer(10 * kMillisecond, 2);
    cancel_timer(cancelled);
    set_timer(15 * kMillisecond, 3);
  }
  void on_message(NodeId, const Message&) override {}
  void on_timer(std::uint64_t tag) override {
    EXPECT_NE(tag, 2u) << "cancelled timer fired";
    fired.fetch_add(1);
  }
};

// A daemon may run with stdin closed, so socket() can hand the listener
// descriptor 0; it is a valid socket and must serve connections.
TEST(SocketLoopback, ListenerOnDescriptorZeroServes) {
  const int saved_stdin = ::dup(0);
  ASSERT_GE(saved_stdin, 0);
  {
    SocketRuntime server_rt;
    ::close(0);
    auto port = server_rt.listen("127.0.0.1", 0);
    ASSERT_TRUE(port.is_ok()) << port.status().to_string();
    server_rt.start();
    ClientProc c(NodeId{100}, port.value());
    EXPECT_TRUE(wait_until([&] { return server_rt.stats().accepts >= 1; }));
    c.rt.stop();
    server_rt.stop();
  }  // the runtime closes the listener, freeing descriptor 0 again
  ASSERT_EQ(::dup2(saved_stdin, 0), 0);
  ::close(saved_stdin);
}

TEST(SocketLoopback, TimersFireAndCancelOnLoopThread) {
  SocketRuntime rt;
  TickNode n;
  rt.add_node(NodeId{1}, &n);
  rt.start();
  ASSERT_TRUE(wait_until([&] { return n.fired.load() >= 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rt.stop();
  EXPECT_EQ(n.fired.load(), 2);
}

TEST(SocketLoopback, TransportKeepaliveKeepsIdleConnectionAlive) {
  SocketRuntime server_rt;
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok());
  server_rt.start();

  SocketRuntimeConfig cfg;
  cfg.keepalive_interval = 20 * kMillisecond;
  ClientProc c(NodeId{100}, port.value(), cfg);
  ASSERT_TRUE(wait_until([&] { return c.rt.stats().pings_sent >= 3; }));
  // Pongs came back on the same connection; no reconnect happened.
  EXPECT_EQ(c.rt.stats().connects_ok, 1u);
  EXPECT_EQ(c.rt.stats().disconnects, 0u);

  c.rt.stop();
  server_rt.stop();
}

TEST(SocketLoopback, ServerUnreachableThenReachable) {
  // A client started before its server exists must keep redialing with
  // backoff and deliver the queued traffic once the server appears.
  SocketRuntime probe;
  auto port = probe.listen("127.0.0.1", 0);  // reserve an ephemeral port
  ASSERT_TRUE(port.is_ok());
  const std::uint16_t p = port.value();
  // Release the port (nothing listens there now).
  probe.stop();

  ClientProc c(NodeId{100}, p);
  c.client->create_group(kG, "g", true);  // queued toward the absent server
  ASSERT_TRUE(wait_until(
      [&] { return c.rt.stats().reconnects_scheduled >= 2; }));

  SocketRuntime server_rt;
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  server_rt.add_node(kServerId, &server);
  auto rebind = server_rt.listen("127.0.0.1", p);
  ASSERT_TRUE(rebind.is_ok()) << rebind.status().to_string();
  server_rt.start();

  c.client->join(kG);
  ASSERT_TRUE(wait_until([&] { return c.joins() == 1; }, 60 * kSecond));

  c.rt.stop();
  server_rt.stop();
}

// Counts messages arriving at a node, independent of protocol role.
struct SinkNode final : Node {
  std::mutex mu;
  std::vector<SeqNo> seqs;
  void on_message(NodeId, const Message& m) override {
    std::lock_guard<std::mutex> lock(mu);
    seqs.push_back(m.seq);
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return seqs.size();
  }
};

TEST(SocketLoopback, BatchOfOneStillDelivers) {
  // send_batch is the transport's public API, and a run of one message is a
  // legal batch: it must take the single-frame fast path, not vanish.
  SocketRuntime server_rt;
  SinkNode sink;
  server_rt.add_node(kServerId, &sink);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  SocketRuntime sender_rt;
  SinkNode unused;
  sender_rt.add_node(NodeId{100}, &unused);
  sender_rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", port.value()});
  sender_rt.start();

  Message one;
  one.type = MsgType::kHeartbeat;
  one.seq = 7;
  sender_rt.send_batch(NodeId{100}, kServerId, {one});
  ASSERT_TRUE(wait_until([&] { return sink.count() >= 1; }));

  Message a = one, b = one;
  a.seq = 8;
  b.seq = 9;
  sender_rt.send_batch(NodeId{100}, kServerId, {a, b});
  ASSERT_TRUE(wait_until([&] { return sink.count() >= 3; }));

  sender_rt.stop();
  server_rt.stop();
  EXPECT_EQ(sink.seqs, (std::vector<SeqNo>{7, 8, 9}));
  EXPECT_EQ(server_rt.stats().messages_dropped, 0u);
}

TEST(SocketLoopback, StopWhileRedialTimerPending) {
  // Shutdown-ordering: stop() must join the loop cleanly while the
  // reconnect-backoff timer is armed and a connect may be in flight.
  SocketRuntime probe;
  auto port = probe.listen("127.0.0.1", 0);  // reserve an ephemeral port
  ASSERT_TRUE(port.is_ok());
  const std::uint16_t p = port.value();
  probe.stop();  // nothing listens there now

  SocketRuntimeConfig cfg;
  cfg.reconnect_backoff_min = 5 * kMillisecond;
  cfg.reconnect_backoff_max = 20 * kMillisecond;
  auto c = std::make_unique<ClientProc>(NodeId{100}, p, cfg);
  c->client->create_group(kG, "g", true);  // traffic queued toward nobody
  ASSERT_TRUE(wait_until(
      [&] { return c->rt.stats().reconnects_scheduled >= 1; }));
  c->rt.stop();  // redial timer still pending
  c->rt.stop();  // second stop is a no-op
  c.reset();     // and the destructor's stop is a third
}

TEST(SocketLoopback, StopWhileBatchPartiallyDrained) {
  // Shutdown-ordering: stop() right after a large send_batch — the loop
  // may be mid-writev with most of the batch still queued.  The contract
  // is that loss cuts only the tail: whatever arrives is an in-order
  // prefix, and the teardown itself must be race-free (tsan checks that).
  SocketRuntime server_rt;
  SinkNode sink;
  server_rt.add_node(kServerId, &sink);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  SocketRuntime sender_rt;
  SinkNode unused;
  sender_rt.add_node(NodeId{100}, &unused);
  sender_rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", port.value()});
  sender_rt.start();

  Message m;
  m.type = MsgType::kHeartbeat;
  m.payload = Bytes(1024, 0x5a);
  std::vector<Message> batch;
  for (SeqNo i = 0; i < 512; ++i) {
    m.seq = i;
    batch.push_back(m);
  }
  sender_rt.send_batch(NodeId{100}, kServerId, batch);
  sender_rt.stop();  // no settling: the batch is at best partially written
  server_rt.stop();

  const std::vector<SeqNo> got = sink.seqs;  // loops joined; no lock needed
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i) << "delivered batch is not an in-order prefix";
  }
}

TEST(SocketLoopback, WriteBackpressureDrainsViaEpollout) {
  // A fan-out burst larger than the kernel socket buffers forces sendmsg
  // into EAGAIN with frames still queued in user space.  Nothing else ever
  // pokes that connection again — client heartbeats are off, delivers are
  // unacknowledged, and the burst is over — so the backlog drains only if
  // the loop registered EPOLLOUT for the queued bytes.  The receiver stalls
  // its event loop on the first delivery: with nothing being read, TCP
  // autotuning cannot grow the buffers past their small initial sizes, so
  // most of the burst provably lands in the server's user-space queue
  // rather than being absorbed by the kernel.
  SocketRuntime server_rt;
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  ClientProc sender(NodeId{100}, port.value());
  ClientProc receiver(NodeId{101}, port.value(), {},
                      /*first_deliver_stall_ms=*/800);
  ASSERT_TRUE(wait_until([&] { return server_rt.stats().accepts >= 2; }));

  sender.client->create_group(kG, "g", true);
  ASSERT_TRUE(wait_until([&] { return sender.replies() >= 1; }));
  sender.client->join(kG);
  receiver.client->join(kG);
  ASSERT_TRUE(wait_until(
      [&] { return sender.joins() == 1 && receiver.joins() == 1; }));

  // ~6.4 MB of deliveries per client: beyond what the kernel can absorb
  // for the stalled connection (sndbuf autotunes to at most 4 MB and the
  // frozen rcvbuf holds a few hundred KB), yet the post-EAGAIN backlog
  // stays comfortably under the 8 MB per-connection queue cap (overflow
  // there would drop frames and fail the messages_dropped check below).
  constexpr std::size_t kBurst = 200;
  const std::string payload(32 * 1024, 'x');
  for (std::size_t i = 0; i < kBurst; ++i) {
    sender.client->bcast_update(kG, kObj, to_bytes(payload));
  }
  EXPECT_TRUE(wait_until([&] { return receiver.journal_size() >= kBurst; }))
      << "fan-out stalled at " << receiver.journal_size() << "/" << kBurst
      << " -- backlogged frames drain only via EPOLLOUT";
  EXPECT_TRUE(wait_until([&] { return sender.journal_size() >= kBurst; }));
  EXPECT_EQ(server_rt.stats().messages_dropped, 0u);
  server_rt.stop();  // the loop reads `store`, which dies before server_rt
}

namespace sync_commit {

// Holds the commit thread inside a log flush on demand, so a test can call
// stop() with a commit provably in flight.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  bool entered = false;
  bool open = false;

  void pass() {
    std::unique_lock<std::mutex> lock(mu);
    if (!armed) return;
    armed = false;
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
  void arm() {
    std::lock_guard<std::mutex> lock(mu);
    armed = true;
  }
  bool wait_entered() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(30),
                       [this] { return entered; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

class GateLog final : public LogBackend {
 public:
  GateLog(std::unique_ptr<LogBackend> inner, Gate* gate)
      : inner_(std::move(inner)), gate_(gate) {}
  void append(Bytes record) override { inner_->append(std::move(record)); }
  std::size_t flush() override {
    if (inner_->unflushed() > 0) gate_->pass();
    return inner_->flush();
  }
  void crash() override { inner_->crash(); }
  void drop_prefix(std::size_t n) override { inner_->drop_prefix(n); }
  std::size_t size() const override { return inner_->size(); }
  std::size_t durable_size() const override { return inner_->durable_size(); }
  std::size_t unflushed() const override { return inner_->unflushed(); }
  const Bytes& record(std::size_t i) const override {
    return inner_->record(i);
  }
  std::uint64_t bytes_appended() const override {
    return inner_->bytes_appended();
  }
  std::uint64_t bytes_flushed() const override {
    return inner_->bytes_flushed();
  }
  std::uint64_t pending_bytes() const override {
    return inner_->pending_bytes();
  }
  std::uint64_t commits() const override { return inner_->commits(); }
  std::uint64_t records_flushed() const override {
    return inner_->records_flushed();
  }
  std::size_t max_commit_records() const override {
    return inner_->max_commit_records();
  }

 private:
  std::unique_ptr<LogBackend> inner_;
  Gate* gate_;
};

class GateEnv final : public StorageEnv {
 public:
  GateEnv(StorageEnv* inner, Gate* gate) : inner_(inner), gate_(gate) {}
  std::unique_ptr<LogBackend> open_log(GroupId id) override {
    return std::make_unique<GateLog>(inner_->open_log(id), gate_);
  }
  void remove_log(GroupId id) override { inner_->remove_log(id); }
  std::vector<GroupId> list_logs() const override {
    return inner_->list_logs();
  }
  CheckpointBackend& checkpoints() override { return inner_->checkpoints(); }
  const CheckpointBackend& checkpoints() const override {
    return static_cast<const StorageEnv*>(inner_)->checkpoints();
  }

 private:
  StorageEnv* inner_;
  Gate* gate_;
};

bool contiguous_from_one(const std::vector<SeqNo>& seqs) {
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (seqs[i] != i + 1) return false;
  }
  return true;
}

}  // namespace sync_commit

// --sync over real TCP with the commit pipeline: acknowledged multicasts to
// two groups on a DiskEnv while a count-threshold checkpoint install and a
// group delete (control-plane calls that wait out the running commit) race
// the commit thread, then stop() with a commit parked mid-flush and the
// daemon's shutdown order (rt.stop(), then the store's final flush).
TEST(SocketLoopback, SyncCommitsRunOffLoopBesideControlPlane) {
  using namespace sync_commit;
  char tmpl[] = "/tmp/corona_sync_commit_XXXXXX";
  const char* root = ::mkdtemp(tmpl);
  ASSERT_NE(root, nullptr);
  const GroupId kA{1}, kB{2}, kC{3};
  constexpr int kPerGroup = 30;
  {
    disk::DiskEnv disk(disk::DiskEnvConfig{std::string(root) + "/data", 4096});
    Gate gate;
    GateEnv env(&disk, &gate);
    GroupStore store(&env);
    ServerConfig cfg;
    cfg.flush = FlushPolicy::kSync;
    cfg.reduction_factory = [] { return make_count_threshold(8); };
    SocketRuntime server_rt;
    CoronaServer server(cfg, &store);
    server_rt.add_node(kServerId, &server);
    auto port = server_rt.listen("127.0.0.1", 0);
    ASSERT_TRUE(port.is_ok());
    server_rt.start();

    ClientProc c0(NodeId{100}, port.value());
    ClientProc c1(NodeId{101}, port.value());
    for (GroupId g : {kA, kB, kC}) c0.client->create_group(g, "g", true);
    ASSERT_TRUE(wait_until([&] { return c0.replies() >= 3; }));
    for (GroupId g : {kA, kB, kC}) c0.client->join(g);
    c1.client->join(kA);
    c1.client->join(kB);
    ASSERT_TRUE(wait_until([&] { return c0.joins() == 3 && c1.joins() == 2; }));

    for (int i = 0; i < kPerGroup; ++i) {
      c0.client->bcast_update(kA, kObj, to_bytes("a" + std::to_string(i)));
      c1.client->bcast_update(kB, kObj, to_bytes("b" + std::to_string(i)));
      c0.client->bcast_update(kC, kObj, to_bytes("c"));
      if (i == kPerGroup / 2) c0.client->delete_group(kC);
    }
    const auto all_in = [&] {
      return c0.group_journal(kA).size() >= kPerGroup &&
             c0.group_journal(kB).size() >= kPerGroup &&
             c1.group_journal(kA).size() >= kPerGroup &&
             c1.group_journal(kB).size() >= kPerGroup;
    };
    ASSERT_TRUE(wait_until(all_in));
    for (GroupId g : {kA, kB}) {
      const auto j0 = c0.group_journal(g);
      EXPECT_EQ(j0.size(), static_cast<std::size_t>(kPerGroup));
      EXPECT_TRUE(contiguous_from_one(j0)) << "gap in group " << g.value;
      EXPECT_EQ(j0, c1.group_journal(g)) << "clients diverged";
    }

    // Park the commit thread inside the next commit, then stop the server
    // runtime under it.  stop() returns only after the commit finished and
    // the commit thread is joined, so the final flush runs alone.
    gate.arm();
    for (int i = 0; i < 5; ++i) {
      c0.client->bcast_update(kA, kObj, to_bytes("tail"));
    }
    ASSERT_TRUE(gate.wait_entered()) << "no commit reached the log";
    std::thread releaser([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      gate.release();
    });
    server_rt.stop();
    releaser.join();
    (void)store.flush();

    const std::vector<RecoveredGroup> groups = store.recover();
    ASSERT_EQ(groups.size(), 2u) << "the deleted group must stay gone";
    for (const RecoveredGroup& g : groups) {
      SeqNo expect = g.base_seq + 1;
      for (const UpdateRecord& u : g.updates) {
        ASSERT_EQ(u.seq, expect) << "gap in the durable log";
        ++expect;
      }
      EXPECT_GE(expect - 1, static_cast<SeqNo>(kPerGroup));
      EXPECT_EQ(store.durable_head(g.meta.id), expect - 1);
    }
    c1.rt.stop();
    c0.rt.stop();
  }
  disk::remove_tree(root);
}

}  // namespace
}  // namespace corona::net
