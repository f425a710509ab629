// Batching equivalence (ISSUE: proven equivalent by tests).
//
// The batched fan-out and group-commit paths must be *observationally
// equivalent* to per-message delivery: same workload, same seed, same
// virtual send instants — then batch 1, 8 and 64 must produce byte-identical
// per-client delivery streams (every UpdateRecord field, timestamps
// included: records are stamped at sequencer arrival, which batching does
// not move) and identical final SharedState content (snapshot + retained
// history) at every replica.
//
// The workload is open-loop: send instants are scheduled by the test, never
// derived from deliveries, so the client -> server half of every run is
// identical by construction and any divergence is the batching layer's
// fault.  Covered: single server (async and sync/group-commit flush) and
// the replicated star (coordinator sequencing + leaf fan-out batching).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "harness.h"
#include "util/rng.h"

namespace corona {
namespace {

using testing::client_id;

const GroupId kG{1};

// One scripted open-loop workload, pre-generated once per seed so every
// batch setting replays the exact same (client, object, payload, instant)
// sequence.
struct ScriptedOp {
  std::size_t client;
  bool is_state;
  ObjectId obj;
  Bytes payload;
  bool settle_after;  // advance virtual time between bursts
};

std::vector<ScriptedOp> make_script(std::uint64_t seed, std::size_t clients,
                                    std::size_t ops) {
  Rng rng(seed * 0x9e3779b9ull + 17);
  std::vector<ScriptedOp> script;
  script.reserve(ops);
  for (std::size_t i = 0; i < ops; ++i) {
    ScriptedOp op;
    op.client = rng.next_below(clients);
    op.is_state = rng.next_bool(0.2);
    op.obj = ObjectId{1 + rng.next_below(5)};
    op.payload = filler_bytes(1 + rng.next_below(48),
                              static_cast<std::uint8_t>(rng.next_u64()));
    op.settle_after = rng.next_bool(0.25);
    script.push_back(std::move(op));
  }
  return script;
}

// Everything observable about one run: per-client delivery journals plus
// the authority's final consolidated state and retained history.
struct RunOutput {
  std::map<std::size_t, std::vector<UpdateRecord>> journals;
  std::vector<StateEntry> snapshot;
  std::vector<UpdateRecord> history;
};

void expect_identical(const RunOutput& base, const RunOutput& got,
                      std::size_t batch) {
  ASSERT_EQ(base.journals.size(), got.journals.size()) << "batch " << batch;
  for (const auto& [idx, ref] : base.journals) {
    const auto it = got.journals.find(idx);
    ASSERT_NE(it, got.journals.end()) << "batch " << batch;
    ASSERT_EQ(it->second.size(), ref.size())
        << "client " << idx << " delivery count, batch " << batch;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(it->second[i], ref[i])
          << "client " << idx << " diverges at delivery " << i << ", batch "
          << batch << " (seq " << ref[i].seq << " vs " << it->second[i].seq
          << ")";
    }
  }
  EXPECT_EQ(got.snapshot, base.snapshot) << "final state, batch " << batch;
  EXPECT_EQ(got.history, base.history) << "retained history, batch " << batch;
}

// ---------------------------------------------------------------------------
// Single server.
// ---------------------------------------------------------------------------

RunOutput run_single(const std::vector<ScriptedOp>& script,
                     std::size_t n_clients, std::size_t batch,
                     FlushPolicy flush) {
  RunOutput out;
  SimRuntime rt;
  GroupStore store;
  ServerConfig cfg;
  cfg.flush = flush;
  cfg.batch_max_msgs = batch;
  cfg.batch_max_delay = 3 * kMillisecond;
  CoronaServer server(cfg, &store);
  rt.add_node(testing::kServerId, &server,
              rt.network().add_host(HostProfile{}));
  std::vector<std::unique_ptr<CoronaClient>> clients;
  for (std::size_t i = 0; i < n_clients; ++i) {
    CoronaClient::Callbacks cb;
    cb.on_deliver = [&out, i](GroupId, const UpdateRecord& rec) {
      out.journals[i].push_back(rec);
    };
    clients.push_back(std::make_unique<CoronaClient>(testing::kServerId, cb));
    rt.add_node(client_id(i), clients.back().get(),
                rt.network().add_host(HostProfile{}));
  }
  rt.start();
  rt.run_for(100 * kMillisecond);
  clients[0]->create_group(kG, "batch-eq", true);
  rt.run_for(100 * kMillisecond);
  for (auto& c : clients) c->join(kG);
  rt.run_for(200 * kMillisecond);

  for (const ScriptedOp& op : script) {
    if (op.is_state) {
      clients[op.client]->bcast_state(kG, op.obj, op.payload);
    } else {
      clients[op.client]->bcast_update(kG, op.obj, op.payload);
    }
    if (op.settle_after) rt.run_for(20 * kMillisecond);
  }
  rt.run_for(2 * kSecond);  // drain: batch timers, sync commits, fan-out

  out.snapshot = server.group(kG)->state().snapshot();
  out.history = server.group(kG)->state().history();
  return out;
}

struct BatchEquivalenceParams {
  std::uint64_t seed;
  std::size_t clients;
  std::size_t ops;
  FlushPolicy flush;
  // Fills what would be tail padding: gtest names each instance by a byte
  // dump of this struct, and uninitialized bytes would vary per run.
  std::uint32_t zero_tail = 0;
};

class SingleServerBatchEquivalence
    : public ::testing::TestWithParam<BatchEquivalenceParams> {};

TEST_P(SingleServerBatchEquivalence, Batch1Vs8Vs64ByteIdentical) {
  const auto p = GetParam();
  const auto script = make_script(p.seed, p.clients, p.ops);
  const RunOutput base = run_single(script, p.clients, 1, p.flush);
  ASSERT_FALSE(base.journals.empty());
  ASSERT_FALSE(base.journals.begin()->second.empty());
  for (const std::size_t batch : {std::size_t{8}, std::size_t{64}}) {
    const RunOutput got = run_single(script, p.clients, batch, p.flush);
    expect_identical(base, got, batch);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Async, SingleServerBatchEquivalence,
    ::testing::Values(BatchEquivalenceParams{1, 3, 120, FlushPolicy::kAsync},
                      BatchEquivalenceParams{2, 5, 200, FlushPolicy::kAsync},
                      BatchEquivalenceParams{3, 2, 80, FlushPolicy::kAsync}));

// Group commit: under synchronous flushing a batch rides ONE device write;
// the commit boundary must not change any delivered byte either.
INSTANTIATE_TEST_SUITE_P(
    SyncGroupCommit, SingleServerBatchEquivalence,
    ::testing::Values(BatchEquivalenceParams{4, 3, 120, FlushPolicy::kSync},
                      BatchEquivalenceParams{5, 4, 160, FlushPolicy::kSync}));

// ---------------------------------------------------------------------------
// Replicated star: the coordinator's sequenced-multicast fan-out to leaves
// and each leaf's fan-out to clients both batch; sequencing itself stays
// per-message, so the streams must not move by a byte.
// ---------------------------------------------------------------------------

RunOutput run_replicated(const std::vector<ScriptedOp>& script,
                         std::size_t n_clients, std::size_t batch) {
  RunOutput out;
  SimRuntime rt;
  ReplicaConfig cfg;
  cfg.batch_max_msgs = batch;
  cfg.batch_max_delay = 3 * kMillisecond;
  constexpr std::size_t kServers = 3;  // coordinator + 2 leaves
  std::vector<NodeId> server_ids;
  for (std::size_t i = 0; i < kServers; ++i) {
    server_ids.push_back(testing::server_id(i));
  }
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  for (std::size_t i = 0; i < kServers; ++i) {
    servers.push_back(
        std::make_unique<ReplicaServer>(cfg, server_ids, nullptr));
    rt.add_node(server_ids[i], servers[i].get(),
                rt.network().add_host(HostProfile{}));
  }
  std::vector<std::unique_ptr<CoronaClient>> clients;
  for (std::size_t i = 0; i < n_clients; ++i) {
    CoronaClient::Callbacks cb;
    cb.on_deliver = [&out, i](GroupId, const UpdateRecord& rec) {
      out.journals[i].push_back(rec);
    };
    const std::size_t leaf = 1 + (i % (kServers - 1));
    clients.push_back(
        std::make_unique<CoronaClient>(server_ids[leaf], cb));
    rt.add_node(client_id(i), clients.back().get(),
                rt.network().add_host(HostProfile{}));
  }
  rt.start();
  rt.run_for(200 * kMillisecond);
  clients[0]->create_group(kG, "batch-eq-rep", true);
  rt.run_for(200 * kMillisecond);
  for (auto& c : clients) c->join(kG);
  rt.run_for(400 * kMillisecond);

  for (const ScriptedOp& op : script) {
    if (op.is_state) {
      clients[op.client]->bcast_state(kG, op.obj, op.payload);
    } else {
      clients[op.client]->bcast_update(kG, op.obj, op.payload);
    }
    if (op.settle_after) rt.run_for(20 * kMillisecond);
  }
  rt.run_for(3 * kSecond);

  const SharedState* coord = servers[0]->coord_state(kG);
  EXPECT_NE(coord, nullptr);
  if (coord != nullptr) {
    out.snapshot = coord->snapshot();
    out.history = coord->history();
    // Every leaf copy must match the coordinator byte-for-byte too.
    for (std::size_t i = 1; i < kServers; ++i) {
      const SharedState* ls = servers[i]->local_state(kG);
      EXPECT_NE(ls, nullptr) << "leaf " << i;
      if (ls != nullptr) {
        EXPECT_EQ(ls->snapshot(), out.snapshot) << "leaf " << i;
      }
    }
  }
  return out;
}

class ReplicatedBatchEquivalence
    : public ::testing::TestWithParam<BatchEquivalenceParams> {};

TEST_P(ReplicatedBatchEquivalence, Batch1Vs8Vs64ByteIdentical) {
  const auto p = GetParam();
  const auto script = make_script(p.seed, p.clients, p.ops);
  const RunOutput base = run_replicated(script, p.clients, 1);
  ASSERT_FALSE(base.journals.empty());
  ASSERT_FALSE(base.journals.begin()->second.empty());
  for (const std::size_t batch : {std::size_t{8}, std::size_t{64}}) {
    const RunOutput got = run_replicated(script, p.clients, batch);
    expect_identical(base, got, batch);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Star, ReplicatedBatchEquivalence,
    ::testing::Values(
        BatchEquivalenceParams{11, 4, 100, FlushPolicy::kAsync},
        BatchEquivalenceParams{12, 6, 150, FlushPolicy::kAsync}));

// Degenerate setting: batch_max_msgs = 1 with a delay bound configured is
// exactly the unbatched path — no timers armed, no frames coalesced.
TEST(BatchDegenerate, BatchOneLeavesNoBatchingFootprint) {
  const auto script = make_script(21, 3, 60);
  SimRuntime rt;
  GroupStore store;
  ServerConfig cfg;
  cfg.batch_max_msgs = 1;
  cfg.batch_max_delay = 3 * kMillisecond;
  CoronaServer server(cfg, &store);
  rt.add_node(testing::kServerId, &server,
              rt.network().add_host(HostProfile{}));
  std::vector<std::unique_ptr<CoronaClient>> clients;
  for (std::size_t i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<CoronaClient>(testing::kServerId));
    rt.add_node(client_id(i), clients.back().get(),
                rt.network().add_host(HostProfile{}));
  }
  rt.start();
  rt.run_for(100 * kMillisecond);
  clients[0]->create_group(kG, "degenerate", true);
  rt.run_for(100 * kMillisecond);
  for (auto& c : clients) c->join(kG);
  rt.run_for(200 * kMillisecond);
  for (const ScriptedOp& op : script) {
    clients[op.client]->bcast_update(kG, op.obj, op.payload);
    if (op.settle_after) rt.run_for(20 * kMillisecond);
  }
  rt.run_for(1 * kSecond);

  EXPECT_EQ(server.stats().batches_sequenced, 0u);
  EXPECT_EQ(server.stats().batched_messages, 0u);
  EXPECT_EQ(server.stats().batch_frames_sent, 0u);
  EXPECT_EQ(rt.network().batches_sent(), 0u);
  EXPECT_EQ(server.stats().messages_sequenced, script.size());
}

// A threshold drain must CANCEL the armed delay timer, not merely beat it.
// If the cancel is skipped (the timer handle leaks), the stale timer stays
// scheduled and the next message enqueued after the drain rides it out the
// door early — before its own batch_max_delay has elapsed — and, because
// batch_timer_ still looks armed, no fresh timer is ever set for it.  The
// observable contract: a solo message that never reaches the threshold is
// delivered no earlier than its enqueue time plus the full delay bound.
TEST(BatchTimerDiscipline, ThresholdDrainCancelsDelayTimer) {
  SimRuntime rt;
  GroupStore store;
  ServerConfig cfg;
  cfg.batch_max_msgs = 3;
  cfg.batch_max_delay = 500 * kMillisecond;
  CoronaServer server(cfg, &store);
  rt.add_node(testing::kServerId, &server,
              rt.network().add_host(HostProfile{}));
  std::vector<TimePoint> delivered_at;
  CoronaClient::Callbacks cb;
  cb.on_deliver = [&rt, &delivered_at](GroupId, const UpdateRecord&) {
    delivered_at.push_back(rt.now());
  };
  CoronaClient client(testing::kServerId, cb);
  rt.add_node(client_id(0), &client, rt.network().add_host(HostProfile{}));
  rt.start();
  rt.run_for(100 * kMillisecond);
  client.create_group(kG, "timer-discipline", true);
  rt.run_for(100 * kMillisecond);
  client.join(kG);
  rt.run_for(200 * kMillisecond);

  // Burst to exactly the threshold: the delay timer armed by the first
  // message must be canceled by the drain.
  for (int i = 0; i < 3; ++i) {
    client.bcast_update(kG, ObjectId{1}, to_bytes("burst"));
  }
  rt.run_for(100 * kMillisecond);
  ASSERT_EQ(delivered_at.size(), 3u) << "threshold drain did not deliver";

  // A single follow-up, sent well inside what the stale timer's window
  // would be.  Correct code arms a fresh timer at its arrival; leaked-timer
  // code ships it when the stale timer (armed at the burst) fires.
  const TimePoint sent_at = rt.now();
  client.bcast_update(kG, ObjectId{1}, to_bytes("straggler"));
  rt.run_for(450 * kMillisecond);  // stale timer would have fired by now
  EXPECT_EQ(delivered_at.size(), 3u)
      << "straggler shipped early on a timer armed before it was enqueued";

  rt.run_for(300 * kMillisecond);
  ASSERT_EQ(delivered_at.size(), 4u) << "straggler never delivered";
  EXPECT_GE(delivered_at.back(), sent_at + cfg.batch_max_delay)
      << "solo message delivered before its own batch_max_delay elapsed";
}

}  // namespace
}  // namespace corona
