// The SIGKILL-recovery property, with a real kill(2): a writer process is
// killed at a random moment — possibly mid-flush, mid-checkpoint,
// mid-segment-rotation or mid-copy-forward — and the reopened store must
// come back to a byte-identical prefix of what the writer produced, for
// every group of the one shared log:
//   * every update the writer observed as flushed survives (the durable
//     floor, communicated through an atomically-replaced progress file);
//   * recovered sequence numbers are contiguous from the checkpoint base,
//     with no gap, duplicate, or resurrected record beyond the unflushed
//     tail;
//   * recovered payloads are byte-identical to what was written, and no
//     record of an earlier incarnation of a removed and re-created group
//     comes back (payloads name their group, incarnation and seq, so the
//     check needs no shared memory).
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
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "net/socket_runtime.h"
#include "storage/disk/crc32c.h"
#include "storage/disk/disk_env.h"
#include "storage/disk/disk_io.h"
#include "storage/group_store.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace corona {
namespace {

constexpr GroupId kGroup{1};
constexpr std::size_t kSegmentBytes = 512;  // plenty of rotations per run

// The writer's groups: 1 trickles records and never checkpoints, so its
// records are copied forward again and again; 4 is removed and created
// again under the same id; 2 and 3 just write and checkpoint.
constexpr std::uint64_t kGroups = 4;
constexpr GroupId kTrickleGroup{1};
constexpr GroupId kRecycledGroup{4};
constexpr SeqNo kRemoving = UINT64_MAX;  // progress: a removal has begun

// A small checksummed file of u64s, atomically replaced: how a child
// process tells the parent how far it got.
Bytes encode_u64s(const std::vector<std::uint64_t>& values) {
  Bytes out = to_bytes("CPF1");
  for (std::uint64_t v : values) {
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  const std::uint32_t crc = disk::crc32c(out);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return out;
}

std::optional<std::vector<std::uint64_t>> decode_u64s(BytesView buf,
                                                      std::size_t n) {
  if (buf.size() != 4 + 8 * n + 4 || to_string(buf.first(4)) != "CPF1") {
    return std::nullopt;
  }
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) {
    crc |= static_cast<std::uint32_t>(buf[4 + 8 * n + i]) << (8 * i);
  }
  if (crc != disk::crc32c(buf.first(4 + 8 * n))) return std::nullopt;
  std::vector<std::uint64_t> values(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (int i = 0; i < 8; ++i) {
      values[k] |= static_cast<std::uint64_t>(buf[4 + 8 * k + i]) << (8 * i);
    }
  }
  return values;
}

void publish(const std::string& path, const std::vector<std::uint64_t>& v) {
  disk::DiskCounters counters;
  disk::atomic_write_file(path, encode_u64s(v), &counters);
}

std::optional<std::vector<std::uint64_t>> read_published(
    const std::string& path, std::size_t n) {
  const auto buf = disk::read_file(path);
  if (!buf) return std::nullopt;
  return decode_u64s(*buf, n);
}

// What the writer has seen committed: per group its incarnation and its
// durable floor (kRemoving while a removal is under way), plus the records
// its log has copied forward so far.
struct Progress {
  std::uint64_t inc[kGroups + 1] = {};
  SeqNo floor[kGroups + 1] = {};
  std::uint64_t copied = 0;

  std::vector<std::uint64_t> values() const {
    std::vector<std::uint64_t> v;
    for (std::uint64_t g = 1; g <= kGroups; ++g) {
      v.push_back(inc[g]);
      v.push_back(floor[g]);
    }
    v.push_back(copied);
    return v;
  }
  static std::optional<Progress> read(const std::string& path) {
    const auto v = read_published(path, 2 * kGroups + 1);
    if (!v) return std::nullopt;
    Progress p;
    for (std::uint64_t g = 1; g <= kGroups; ++g) {
      p.inc[g] = (*v)[2 * (g - 1)];
      p.floor[g] = (*v)[2 * (g - 1) + 1];
    }
    p.copied = (*v)[2 * kGroups];
    return p;
  }
};

std::string name_for(GroupId g, std::uint64_t inc) {
  return "g" + std::to_string(g.value) + "-inc" + std::to_string(inc);
}

std::uint64_t inc_of(const std::string& name) {
  const std::size_t at = name.find("-inc");
  return at == std::string::npos
             ? 0
             : std::strtoull(name.c_str() + at + 4, nullptr, 10);
}

// Payloads and snapshots spell out their group, incarnation and seq, so a
// record of another group or of an earlier incarnation never passes.
Bytes payload_for(GroupId g, std::uint64_t inc, SeqNo seq) {
  Bytes b = to_bytes(name_for(g, inc) + "-s" + std::to_string(seq) + ":");
  const Bytes fill =
      filler_bytes(8 + seq % 48, static_cast<std::uint8_t>(seq * 131u));
  b.insert(b.end(), fill.begin(), fill.end());
  return b;
}

Bytes snapshot_for(GroupId g, std::uint64_t inc, SeqNo base) {
  Bytes b = to_bytes(name_for(g, inc) + "-b" + std::to_string(base) + ":");
  const Bytes fill =
      filler_bytes(4 + base % 32, static_cast<std::uint8_t>(base));
  b.insert(b.end(), fill.begin(), fill.end());
  return b;
}

UpdateRecord update_for(GroupId g, std::uint64_t inc, SeqNo seq) {
  UpdateRecord u;
  u.seq = seq;
  u.kind = PayloadKind::kUpdate;
  u.object = ObjectId{seq % 3};
  u.data = payload_for(g, inc, seq);
  u.sender = NodeId{100 + seq % 4};
  u.request_id = seq;
  return u;
}

// The victim: resumes every group an earlier life left (creating the rest),
// then writes to all of them as fast as it can, flushing in small batches,
// checkpointing groups 2-4 now and then and recycling group 4, until it is
// killed.  After every step it publishes its progress.
[[noreturn]] void run_writer(const std::string& data_dir,
                             const std::string& progress_path,
                             std::uint64_t seed) {
  ::alarm(30);  // backstop: never outlive a parent that failed to kill us
  disk::DiskEnv env(disk::DiskEnvConfig{data_dir, kSegmentBytes});
  GroupStore gs(&env);
  Progress p = Progress::read(progress_path).value_or(Progress{});
  SeqNo seq[kGroups + 1] = {};
  SeqNo base[kGroups + 1] = {};
  bool present[kGroups + 1] = {};
  for (const RecoveredGroup& g : gs.recover()) {
    const std::uint64_t id = g.meta.id.value;
    if (id < 1 || id > kGroups) ::_exit(3);
    SeqNo s = g.base_seq;
    for (const UpdateRecord& u : g.updates) {
      if (u.seq != s + 1) ::_exit(4);  // an earlier life left a gap
      s = u.seq;
    }
    p.inc[id] = inc_of(g.meta.name);
    seq[id] = s;
    base[id] = g.base_seq;
    present[id] = true;
  }
  const auto create = [&](GroupId g) {
    ++p.inc[g.value];  // a number no earlier incarnation used
    seq[g.value] = base[g.value] = 0;
    const std::uint64_t inc = p.inc[g.value];
    gs.create_group(GroupMeta{g, name_for(g, inc), true},
                    {StateEntry{ObjectId{0}, snapshot_for(g, inc, 0)}},
                    /*durable=*/true);
  };
  for (std::uint64_t id = 1; id <= kGroups; ++id) {
    if (!present[id]) create(GroupId{id});
  }
  Rng rng(seed);
  for (;;) {
    const std::size_t batch = 1 + rng.next_below(5);
    for (std::size_t i = 0; i < batch; ++i) {
      const GroupId g = rng.next_bool(0.05)
                            ? kTrickleGroup
                            : GroupId{2 + rng.next_below(kGroups - 1)};
      gs.append_update(g, update_for(g, p.inc[g.value], ++seq[g.value]));
    }
    (void)gs.flush();
    for (std::uint64_t id = 1; id <= kGroups; ++id) p.floor[id] = seq[id];
    p.copied = env.stats().records_copied;
    publish(progress_path, p.values());
    for (std::uint64_t id = 2; id <= kGroups; ++id) {
      if (!rng.next_bool(0.1)) continue;
      // Checkpoints only ever move forward, and leave a few records live.
      const SeqNo live = std::min<SeqNo>(seq[id], rng.next_below(4));
      base[id] = std::max(base[id], seq[id] - live);
      const Bytes snap = snapshot_for(GroupId{id}, p.inc[id], base[id]);
      gs.install_checkpoint(GroupId{id}, base[id],
                            {StateEntry{ObjectId{0}, snap}});
      (void)gs.flush();
    }
    if (rng.next_bool(0.02)) {
      p.floor[kRecycledGroup.value] = kRemoving;
      publish(progress_path, p.values());
      gs.remove_group(kRecycledGroup);
      create(kRecycledGroup);
      p.floor[kRecycledGroup.value] = 0;
      publish(progress_path, p.values());
    }
  }
}

// A cold reopen of `data_dir` must hold, for every group, a byte-exact
// prefix of what the writer wrote, at least up to the published floor.
void expect_recovers_progress(const std::string& data_dir, const Progress& p) {
  disk::DiskEnv env(disk::DiskEnvConfig{data_dir, kSegmentBytes});
  GroupStore gs(&env);
  bool seen[kGroups + 1] = {};
  for (const RecoveredGroup& g : gs.recover()) {
    const std::uint64_t id = g.meta.id.value;
    ASSERT_TRUE(id >= 1 && id <= kGroups) << "unknown group " << id;
    SCOPED_TRACE("group=" + std::to_string(id));
    seen[id] = true;
    const std::uint64_t inc = inc_of(g.meta.name);
    if (p.floor[id] == kRemoving) {
      ASSERT_TRUE(inc == p.inc[id] || inc == p.inc[id] + 1) << g.meta.name;
    } else {
      ASSERT_EQ(inc, p.inc[id]) << "another incarnation came back";
    }
    ASSERT_EQ(g.snapshot.size(), 1u);
    EXPECT_EQ(g.snapshot[0].data, snapshot_for(g.meta.id, inc, g.base_seq));
    // Contiguity: updates run base_seq+1 .. head with no gap or duplicate,
    // and nothing below the floor was lost.
    SeqNo expect = g.base_seq + 1;
    for (const UpdateRecord& u : g.updates) {
      ASSERT_EQ(u.seq, expect) << "gap or duplicate in recovered sequence";
      ASSERT_EQ(u.data, payload_for(g.meta.id, inc, u.seq))
          << "payload altered, or of another group or incarnation";
      EXPECT_EQ(u.request_id, u.seq);
      ++expect;
    }
    if (p.floor[id] != kRemoving) {
      EXPECT_GE(expect - 1, p.floor[id])
          << "a flush()-acknowledged update vanished across SIGKILL";
    }
  }
  for (std::uint64_t id = 1; id <= kGroups; ++id) {
    if (!seen[id]) {
      EXPECT_EQ(p.floor[id], kRemoving) << "group " << id << " vanished";
    }
  }
}

// Polls the writer's progress until group 2's floor passes `above` and,
// with `after_copy`, its log has copied records forward.
std::optional<Progress> wait_for_floor(const std::string& progress_path,
                                       SeqNo above, bool after_copy = false) {
  for (int spins = 0; spins < 2000; ++spins) {
    if (const auto p = Progress::read(progress_path)) {
      if (p->floor[2] != kRemoving && p->floor[2] > above &&
          (!after_copy || p->copied > 0)) {
        return p;
      }
    }
    ::usleep(5000);
  }
  return std::nullopt;
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
    // delay scatters the kill across flushes, rotations, checkpoints and
    // removals; the later rounds first wait for copy-forward to start, so
    // their kills land while the trickling group's records move.
    const bool after_copy = round >= 3;
    ASSERT_TRUE(wait_for_floor(progress_path, 0, after_copy).has_value())
        << "writer never reached its first flush"
        << (after_copy ? " after a copy-forward" : "");
    ::usleep(1000 + 17000 * static_cast<useconds_t>(round));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));

    // Atomic replace: the progress file is old or new, whole.
    const auto progress = Progress::read(progress_path);
    ASSERT_TRUE(progress.has_value());
    // Recover through a cold reopen of the data directory.
    ASSERT_NO_FATAL_FAILURE(expect_recovers_progress(data_dir, *progress));
    disk::remove_tree(root);
  }
}

// Kill, recover, write more, kill again: recovery must compose — the second
// life's appends chain onto the first's durable records, in every group.
TEST(CrashRestart, RecoveryComposesAcrossTwoKills) {
  char tmpl[] = "/tmp/corona_crash_restart2_XXXXXX";
  const char* root = ::mkdtemp(tmpl);
  ASSERT_NE(root, nullptr);
  const std::string data_dir = std::string(root) + "/data";
  const std::string progress_path = std::string(root) + "/progress";

  Rng rng(0xabcdef);
  SeqNo resume_floor = 0;
  std::optional<Progress> progress;
  for (int life = 0; life < 2; ++life) {
    SCOPED_TRACE("life=" + std::to_string(life));
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      run_writer(data_dir, progress_path,
                 0xabcdef + static_cast<std::uint64_t>(life));
    }
    // Kill only once this life has published progress of its own, after a
    // short seeded delay.
    const bool progressed =
        wait_for_floor(progress_path, resume_floor).has_value();
    if (progressed) {
      ::usleep(1000 + static_cast<useconds_t>(rng.next_below(20000)));
    }
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "writer exited: rc="
                                     << WEXITSTATUS(status);
    ASSERT_TRUE(progressed) << "life made no progress";
    progress = Progress::read(progress_path);
    ASSERT_TRUE(progress.has_value());
    ASSERT_GT(progress->floor[2], resume_floor);
    resume_floor = progress->floor[2];
  }
  ASSERT_NO_FATAL_FAILURE(expect_recovers_progress(data_dir, *progress));
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
  publish(port_path, {port.value()});
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
      if (const auto v = read_published(port_path, 1)) port = (*v)[0];
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
        client.bcast_update(kGroup, ObjectId{sent % 3},
                            payload_for(kGroup, 1, sent));
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
