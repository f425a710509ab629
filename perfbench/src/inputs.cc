#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/rng.h"

namespace perfbench {

using corona::Bytes;
using corona::Rng;

const std::vector<WorkloadSpec>& all_workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    {
      WorkloadSpec w;
      w.name = "fanout";
      w.why = "32 members of one group, 100-B messages: per-message fan-out "
              "(net, serial, client delivery) dominates, storage is idle";
      w.groups = 1;
      w.members_per_group = 32;
      w.payload_bytes = 100;
      w.objects_per_group = 16;
      w.closed_per_s = 1700;
      w.window = 2;
      w.open_rate = 500;
      w.open_share = 0.5;
      w.join_rate = 3000;
      w.join_share = 0.2;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "durable_sync";
      w.why = "16 groups x 2 members, 1-KiB messages on --sync: one fdatasync "
              "per sequenced message dominates, fan-out is negligible";
      w.durable = true;
      // Each cycle replays the run's log (~0.1 s); few writes per cycle keep
      // that log, and so the cycles, alike.
      w.recover_cycles = 21;
      w.recover_writes_per_group = 2;
      w.groups = 16;
      w.members_per_group = 2;
      w.payload_bytes = 1024;
      w.objects_per_group = 4;
      w.closed_per_s = 1500;
      w.window = 1;
      w.open_rate = 400;
      w.open_share = 0.5;
      w.join_rate = 3000;
      w.join_share = 0.2;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "join_churn";
      w.why = "joins with 1-MiB state transfers beside a bcast_state writer "
              "stream: service-side state transfer, reads hurting writes";
      w.groups = 4;
      w.members_per_group = 2;
      w.payload_bytes = 1024;
      w.objects_per_group = 1024;
      // A window of 8 on 8 members keeps 64 multicasts in flight, enough
      // to keep the server busy; with 16 in flight the rate followed the
      // host's wake-up latency and spread 0.6 between runs.
      w.closed_per_s = 14000;
      w.window = 8;
      w.open_rate = 400;
      // A 1-MiB join holds the server loop for milliseconds.  At 56/s the
      // loop is busy with joins well under half the time, even when a
      // shared host halves its speed, so the writers' median delivery
      // stays on the fast path and their tail shows the joins.  At
      // 100/s a slowed host tipped the median itself into the tail.
      w.open_share = 0.9;  // 56/s x 0.9 x --seconds 20: 1008 joins
      w.join_rate = 56;
      w.joins_with_writes = true;
      w.recover_cycles = 21;  // each re-creates 4 MiB of state: ~0.06 s
      w.recover_writes_per_group = 8;
      v.push_back(w);
    }
    {
      WorkloadSpec w;
      w.name = "replicated_star";
      w.why = "coordinator + 2 leaves, 16 members split across the leaves, "
              "100-B messages: the only workload where the replica layer works";
      w.topology = Topology::kStar;
      w.groups = 1;
      w.members_per_group = 16;
      w.payload_bytes = 100;
      w.objects_per_group = 16;
      w.closed_per_s = 6000;
      w.window = 4;
      w.open_rate = 1000;
      w.open_share = 0.4;
      w.join_rate = 3000;
      w.join_share = 0.2;
      v.push_back(w);
    }
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t Inputs::closed_count() const {
  std::size_t n = 0;
  for (const auto& s : closed) n += s.size();
  return n;
}

std::uint64_t payload_hash(const std::uint8_t* p, std::size_t n) {
  // 64-bit multiply-xorshift over 8-byte words: fast enough to check every
  // delivered byte on the generator's loop threads.
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * 0xff51afd7ed558ccdull;
    h ^= h >> 32;
  }
  for (; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h ^ (h >> 29);
}

std::uint64_t payload_id(const Bytes& data) {
  if (data.size() < 8) return 0;
  std::uint64_t id = 0;
  for (int i = 7; i >= 0; --i) id = (id << 8) | data[static_cast<std::size_t>(i)];
  return id;
}

Bytes Inputs::payload(std::uint64_t id) const {
  Bytes b(std::max<std::size_t>(payload_bytes, 8));
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] = (id >> (8 * i)) & 0xff;
  Rng r(seed ^ (id * 0xd1b54a32d192ed03ull));
  for (std::size_t i = 8; i < b.size(); i += 8) {
    const std::uint64_t w = r.next_u64();
    const std::size_t n = std::min<std::size_t>(8, b.size() - i);
    std::memcpy(b.data() + i, &w, n);
  }
  return b;
}

namespace {

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back((v >> (8 * i)) & 0xff);
}

void put_op(Bytes& out, const SendOp& op) {
  put_u64(out, op.id);
  put_u64(out, op.sender);
  put_u64(out, op.group);
  put_u64(out, op.object);
  put_u64(out, static_cast<std::uint64_t>(op.due_ns));
}

// Poisson arrivals at `rate` per second: exponential gaps drawn from `r`.
std::vector<std::int64_t> poisson_dues(Rng& r, std::size_t n, double rate) {
  std::vector<std::int64_t> due(n);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += r.next_exponential(1e9 / rate);
    due[i] = static_cast<std::int64_t>(t);
  }
  return due;
}

}  // namespace

Bytes Inputs::serialize() const {
  Bytes out;
  put_u64(out, seed);
  put_u64(out, payload_bytes);
  for (const auto& per_sender : closed) {
    put_u64(out, per_sender.size());
    for (const SendOp& op : per_sender) put_op(out, op);
  }
  for (const SendOp& op : open) put_op(out, op);
  for (const JoinOp& j : joins) {
    put_u64(out, j.group);
    put_u64(out, j.last_n ? 1 : 0);
    put_u64(out, static_cast<std::uint64_t>(j.due_ns));
  }
  for (const auto& cycle : recover) {
    for (const auto& per_group : cycle) {
      for (const SendOp& op : per_group) put_op(out, op);
    }
  }
  for (std::uint64_t id = 1; id <= max_id(); ++id) {
    const Bytes p = payload(id);
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds) {
  Inputs in;
  in.seed = seed;
  in.payload_bytes = spec.payload_bytes;
  in.groups = spec.groups;
  in.objects_per_group = spec.objects_per_group;
  Rng r(seed * 0x2545f4914f6cdd1dull + 0x51);

  std::uint64_t next_id = 1;
  auto new_id = [&](std::uint32_t group, std::uint32_t object) {
    in.group_of.resize(next_id + 1);
    in.object_of.resize(next_id + 1);
    in.group_of[next_id] = group;
    in.object_of[next_id] = object;
    return next_id++;
  };
  in.group_of.push_back(0);
  in.object_of.push_back(0);
  for (int g = 0; g < spec.groups; ++g) {
    for (int o = 0; o < spec.objects_per_group; ++o) {
      new_id(static_cast<std::uint32_t>(g), static_cast<std::uint32_t>(o));
    }
  }

  const int members = spec.groups * spec.members_per_group;
  auto draw = [&](std::uint32_t sender, std::int64_t due) {
    SendOp op;
    op.sender = sender;
    op.group = sender / static_cast<std::uint32_t>(spec.members_per_group);
    op.object = static_cast<std::uint32_t>(
        r.next_below(static_cast<std::uint64_t>(spec.objects_per_group)));
    op.due_ns = due;
    op.id = new_id(op.group, op.object);
    return op;
  };

  // Closed loop: the same number of messages for every sender.
  const auto per_sender = static_cast<std::size_t>(std::max(
      1.0, std::round(spec.closed_per_s * seconds / members)));
  in.closed.resize(static_cast<std::size_t>(members));
  for (std::size_t k = 0; k < per_sender; ++k) {
    for (int s = 0; s < members; ++s) {
      in.closed[static_cast<std::size_t>(s)].push_back(
          draw(static_cast<std::uint32_t>(s), 0));
    }
  }

  // Open loop: Poisson schedule, random sender per message.
  const auto n_open = static_cast<std::size_t>(
      std::max(1.0, std::round(spec.open_rate * seconds * spec.open_share)));
  const std::vector<std::int64_t> due = poisson_dues(r, n_open, spec.open_rate);
  for (std::size_t i = 0; i < n_open; ++i) {
    const auto sender = static_cast<std::uint32_t>(
        r.next_below(static_cast<std::uint64_t>(members)));
    in.open.push_back(draw(sender, due[i]));
  }

  // Joins.
  const double join_secs =
      seconds * (spec.joins_with_writes ? spec.open_share : spec.join_share);
  const auto n_joins = static_cast<std::size_t>(
      std::max(1.0, std::round(spec.join_rate * join_secs)));
  const std::vector<std::int64_t> jdue =
      poisson_dues(r, n_joins, spec.join_rate);
  for (std::size_t i = 0; i < n_joins; ++i) {
    JoinOp j;
    j.group = static_cast<std::uint32_t>(
        r.next_below(static_cast<std::uint64_t>(spec.groups)));
    j.last_n = r.next_bool(kLastNShare);
    j.due_ns = jdue[i];
    in.joins.push_back(j);
  }

  // Writes a crash cycle's writer makes before the SIGKILL.
  in.recover.resize(static_cast<std::size_t>(spec.recover_cycles));
  for (auto& cycle : in.recover) {
    cycle.resize(static_cast<std::size_t>(spec.groups));
    for (int g = 0; g < spec.groups; ++g) {
      for (int k = 0; k < spec.recover_writes_per_group; ++k) {
        SendOp op = draw(static_cast<std::uint32_t>(
                             g * spec.members_per_group), 0);
        cycle[static_cast<std::size_t>(g)].push_back(op);
      }
    }
  }

  in.hash_of.resize(in.group_of.size());
  for (std::uint64_t id = 1; id < in.group_of.size(); ++id) {
    in.hash_of[id] = payload_hash(in.payload(id));
  }
  return in;
}

}  // namespace perfbench
