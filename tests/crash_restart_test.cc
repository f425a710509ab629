// The SIGKILL-recovery property, with a real kill(2): a writer process is
// killed at a random moment — possibly mid-flush, mid-checkpoint, or
// mid-segment-rotation — and the reopened store must come back to a
// byte-identical prefix of what the writer produced:
//   * every update the writer observed as flushed survives (the durable
//     floor, communicated through an atomically-replaced progress file);
//   * recovered sequence numbers are contiguous from the checkpoint base,
//     with no gap, duplicate, or resurrected record beyond the unflushed
//     tail;
//   * recovered payloads are byte-identical to what was written (payloads
//     are a pure function of seq, so the check needs no shared memory).
//
// This is the process-level half of the recovery gate; the in-process
// randomized crash-point equivalence property lives in disk_storage_test.cc
// and the daemon-level loopback resync scenario in the CI crash-restart job.
// The last case runs the same property through the served path: a forked
// CoronaServer on SocketRuntime with --sync semantics, whose commits run on
// the runtime's commit thread, killed under live client traffic.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "net/socket_runtime.h"
#include "storage/disk/disk_env.h"
#include "storage/disk/disk_format.h"
#include "storage/disk/disk_io.h"
#include "storage/group_store.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace corona {
namespace {

constexpr GroupId kGroup{1};
constexpr std::size_t kSegmentBytes = 512;  // plenty of rotations per run

Bytes payload_for(SeqNo seq) {
  return filler_bytes(8 + seq % 48, static_cast<std::uint8_t>(seq * 131u));
}

Bytes snapshot_for(SeqNo base) {
  return filler_bytes(4 + base % 32, static_cast<std::uint8_t>(base));
}

UpdateRecord update_for(SeqNo seq) {
  UpdateRecord u;
  u.seq = seq;
  u.kind = PayloadKind::kUpdate;
  u.object = ObjectId{seq % 3};
  u.data = payload_for(seq);
  u.sender = NodeId{100 + seq % 4};
  u.request_id = seq;
  return u;
}

// The victim: writes updates as fast as it can, flushing in small batches
// and checkpointing periodically, until it is killed.  After every flush it
// publishes the durable floor via an atomic file replace, so the parent
// knows a lower bound on what recovery must yield.
[[noreturn]] void run_writer(const std::string& data_dir,
                             const std::string& progress_path,
                             std::uint64_t seed) {
  ::alarm(30);  // backstop: never outlive a parent that failed to kill us
  disk::DiskEnv env(disk::DiskEnvConfig{data_dir, kSegmentBytes});
  GroupStore gs(&env);
  gs.create_group(GroupMeta{kGroup, "victim", true},
                  {StateEntry{ObjectId{0}, snapshot_for(0)}});
  Rng rng(seed);
  disk::DiskCounters progress_counters;
  SeqNo seq = 0;
  SeqNo base = 0;  // checkpoints only ever move forward
  for (;;) {
    const std::size_t batch = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < batch; ++i) {
      gs.append_update(kGroup, update_for(++seq));
    }
    (void)gs.flush();
    disk::atomic_write_file(progress_path, disk::encode_log_meta(seq),
                            &progress_counters);
    if (rng.next_bool(0.1)) {
      base += rng.next_below(seq - base + 1);
      gs.install_checkpoint(kGroup, base,
                            {StateEntry{ObjectId{0}, snapshot_for(base)}});
      (void)gs.flush();
    }
  }
}

TEST(CrashRestart, SigkilledWriterRecoversDurablePrefixExactly) {
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    char tmpl[] = "/tmp/corona_crash_restart_XXXXXX";
    const char* root = ::mkdtemp(tmpl);
    ASSERT_NE(root, nullptr);
    const std::string data_dir = std::string(root) + "/data";
    const std::string progress_path = std::string(root) + "/progress";

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      run_writer(data_dir, progress_path,
                 0xdeadbeefULL + static_cast<std::uint64_t>(round));
    }

    // Wait for the writer's first flush (the progress file appearing with a
    // nonzero floor) — on a loaded machine the child may take a while to be
    // scheduled at all — then kill it without warning.  Varying the extra
    // delay scatters the kill across flushes, rotations, checkpoints.
    SeqNo first_floor = 0;
    for (int spins = 0; spins < 2000 && first_floor == 0; ++spins) {
      if (const auto buf = disk::read_file(progress_path)) {
        if (const auto decoded = disk::decode_log_meta(*buf)) {
          first_floor = *decoded;
        }
      }
      if (first_floor == 0) ::usleep(5000);
    }
    ASSERT_GT(first_floor, 0u) << "writer never reached its first flush";
    ::usleep(1000 + 17000 * static_cast<useconds_t>(round));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Durable floor: the highest seq the writer saw flush() return for.
    SeqNo floor = 0;
    if (const auto buf = disk::read_file(progress_path)) {
      const auto decoded = disk::decode_log_meta(*buf);
      ASSERT_TRUE(decoded.has_value());  // atomic replace: old or new, whole
      floor = *decoded;
    }
    ASSERT_GT(floor, 0u) << "writer was killed before any flush";

    // Recover through a cold reopen of the data directory.
    disk::DiskEnv env(disk::DiskEnvConfig{data_dir, kSegmentBytes});
    GroupStore gs(&env);
    const std::vector<RecoveredGroup> groups = gs.recover();
    ASSERT_EQ(groups.size(), 1u);
    const RecoveredGroup& g = groups[0];
    EXPECT_EQ(g.meta.id, kGroup);
    EXPECT_EQ(g.meta.name, "victim");
    ASSERT_EQ(g.snapshot.size(), 1u);
    EXPECT_EQ(g.snapshot[0].data, snapshot_for(g.base_seq));

    // Contiguity: updates run base_seq+1 .. head with no gap or duplicate,
    // and nothing below the floor was lost.
    SeqNo expect = g.base_seq + 1;
    for (const UpdateRecord& u : g.updates) {
      ASSERT_EQ(u.seq, expect) << "gap or duplicate in recovered sequence";
      ASSERT_EQ(u.data, payload_for(u.seq)) << "payload altered by recovery";
      EXPECT_EQ(u.request_id, u.seq);
      ++expect;
    }
    const SeqNo head = expect - 1;
    EXPECT_GE(head, floor)
        << "a flush()-acknowledged update vanished across SIGKILL";

    disk::remove_tree(root);
  }
}

// Kill, recover, write more, kill again: recovery must compose — the second
// incarnation's appends chain onto the first's durable records.
TEST(CrashRestart, RecoveryComposesAcrossTwoKills) {
  char tmpl[] = "/tmp/corona_crash_restart2_XXXXXX";
  const char* root = ::mkdtemp(tmpl);
  ASSERT_NE(root, nullptr);
  const std::string data_dir = std::string(root) + "/data";
  const std::string progress_path = std::string(root) + "/progress";

  SeqNo resume_floor = 0;
  for (int life = 0; life < 2; ++life) {
    SCOPED_TRACE("life=" + std::to_string(life));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      if (life == 0) {
        run_writer(data_dir, progress_path, 0xabcdef);
      }
      // Second life: recover, then continue writing from the recovered head.
      ::alarm(30);
      disk::DiskEnv env(disk::DiskEnvConfig{data_dir, kSegmentBytes});
      GroupStore gs(&env);
      const auto groups = gs.recover();
      if (groups.size() != 1) ::_exit(3);
      SeqNo seq = groups[0].base_seq;
      for (const UpdateRecord& u : groups[0].updates) {
        if (u.seq != seq + 1) ::_exit(4);  // first life left a gap
        seq = u.seq;
      }
      disk::DiskCounters progress_counters;
      for (;;) {
        gs.append_update(kGroup, update_for(++seq));
        (void)gs.flush();
        disk::atomic_write_file(progress_path, disk::encode_log_meta(seq),
                                &progress_counters);
      }
    }
    ::usleep(life == 0 ? 30000 : 40000);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "writer exited: rc="
                                     << WEXITSTATUS(status);
    const auto buf = disk::read_file(progress_path);
    ASSERT_TRUE(buf.has_value());
    const auto decoded = disk::decode_log_meta(*buf);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_GT(*decoded, resume_floor) << "second life made no progress";
    resume_floor = *decoded;
  }

  disk::DiskEnv env(disk::DiskEnvConfig{data_dir, kSegmentBytes});
  GroupStore gs(&env);
  const auto groups = gs.recover();
  ASSERT_EQ(groups.size(), 1u);
  SeqNo expect = groups[0].base_seq + 1;
  for (const UpdateRecord& u : groups[0].updates) {
    ASSERT_EQ(u.seq, expect);
    ASSERT_EQ(u.data, payload_for(u.seq));
    ++expect;
  }
  EXPECT_GE(expect - 1, resume_floor);
  disk::remove_tree(root);
}

// -- the served path -----------------------------------------------------

constexpr NodeId kServerNode{1};
constexpr NodeId kClientNode{100};

// The victim: a --sync server on a real socket whose log commits run on the
// runtime's commit thread.  It publishes its port, then serves until killed.
[[noreturn]] void run_sync_server(const std::string& data_dir,
                                  const std::string& port_path) {
  ::alarm(30);  // backstop: never outlive a parent that failed to kill us
  disk::DiskEnv env(disk::DiskEnvConfig{data_dir, kSegmentBytes});
  GroupStore store(&env);
  ServerConfig cfg;
  cfg.flush = FlushPolicy::kSync;
  CoronaServer server(cfg, &store);
  net::SocketRuntime rt;
  rt.add_node(kServerNode, &server);
  const auto port = rt.listen("127.0.0.1", 0);
  if (!port.is_ok()) ::_exit(2);
  rt.start();
  disk::DiskCounters counters;
  disk::atomic_write_file(port_path, disk::encode_log_meta(port.value()),
                          &counters);
  for (;;) ::pause();
}

// The client side: every sender-inclusive delivery is logged by seq.  A
// delivery is the server's acknowledgement that the update is durable.
struct AckLog {
  std::mutex mu;
  std::map<SeqNo, Bytes> delivered;
  int replies_ok = 0;
  bool joined = false;

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return delivered.size();
  }
};

bool wait_for(const std::function<bool()>& pred, int ms) {
  for (int waited = 0; waited < ms; waited += 2) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

TEST(CrashRestart, SigkilledSyncServerKeepsEveryAcknowledgedUpdate) {
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    char tmpl[] = "/tmp/corona_crash_served_XXXXXX";
    const char* root = ::mkdtemp(tmpl);
    ASSERT_NE(root, nullptr);
    const std::string data_dir = std::string(root) + "/data";
    const std::string port_path = std::string(root) + "/port";

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) run_sync_server(data_dir, port_path);

    std::uint64_t port = 0;
    ASSERT_TRUE(wait_for([&] {
      if (const auto buf = disk::read_file(port_path)) {
        if (const auto decoded = disk::decode_log_meta(*buf)) port = *decoded;
      }
      return port != 0;
    }, 10000)) << "server never published its port";

    AckLog acks;
    CoronaClient::Callbacks cb;
    cb.on_deliver = [&acks](GroupId, const UpdateRecord& rec) {
      std::lock_guard<std::mutex> lock(acks.mu);
      acks.delivered.emplace(rec.seq, rec.data);
    };
    cb.on_reply = [&acks](RequestId, Status s) {
      std::lock_guard<std::mutex> lock(acks.mu);
      if (s.is_ok()) ++acks.replies_ok;
    };
    cb.on_joined = [&acks](GroupId, Status s) {
      std::lock_guard<std::mutex> lock(acks.mu);
      acks.joined = s.is_ok();
    };
    net::SocketRuntime client_rt;
    CoronaClient client(kServerNode, cb);
    client_rt.add_node(kClientNode, &client);
    client_rt.set_peer_address(
        kServerNode, net::Endpoint{"127.0.0.1", static_cast<std::uint16_t>(port)});
    client_rt.start();

    client.create_group(kGroup, "served", true);
    ASSERT_TRUE(wait_for([&] {
      std::lock_guard<std::mutex> lock(acks.mu);
      return acks.replies_ok >= 1;
    }, 10000));
    client.join(kGroup);
    ASSERT_TRUE(wait_for([&] {
      std::lock_guard<std::mutex> lock(acks.mu);
      return acks.joined;
    }, 10000));

    // Keep a window of multicasts outstanding so commits are in flight
    // almost all the time, and kill at a seeded moment.
    Rng rng(0x5eedULL + static_cast<std::uint64_t>(round));
    const auto start = std::chrono::steady_clock::now();
    const auto kill_at =
        start + std::chrono::milliseconds(5 + rng.next_below(60));
    const auto give_up = start + std::chrono::seconds(10);
    std::size_t sent = 0;
    for (auto now = start; now < kill_at || (acks.size() == 0 && now < give_up);
         now = std::chrono::steady_clock::now()) {
      if (sent - acks.size() < 16) {
        ++sent;
        client.bcast_update(kGroup, ObjectId{sent % 3}, payload_for(sent));
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    client_rt.stop();

    disk::DiskEnv env(disk::DiskEnvConfig{data_dir, kSegmentBytes});
    GroupStore gs(&env);
    const std::vector<RecoveredGroup> groups = gs.recover();
    ASSERT_EQ(groups.size(), 1u);
    const RecoveredGroup& g = groups[0];
    std::map<SeqNo, const Bytes*> recovered;
    SeqNo expect = g.base_seq + 1;
    for (const UpdateRecord& u : g.updates) {
      ASSERT_EQ(u.seq, expect) << "gap or duplicate in recovered sequence";
      recovered.emplace(u.seq, &u.data);
      ++expect;
    }
    std::lock_guard<std::mutex> lock(acks.mu);
    ASSERT_FALSE(acks.delivered.empty());
    for (const auto& [seq, data] : acks.delivered) {
      const auto it = recovered.find(seq);
      ASSERT_NE(it, recovered.end())
          << "acknowledged seq " << seq << " lost across SIGKILL";
      ASSERT_EQ(*it->second, data) << "payload altered by recovery";
    }
    disk::remove_tree(root);
  }
}

}  // namespace
}  // namespace corona
