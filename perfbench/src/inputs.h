// Workload shapes and the seeded input stream.
//
// Everything the generator sends is drawn here from --seed before the
// server starts: which member sends, to which group and object, the payload
// bytes, the open-loop due times, and the join schedule.  The same seed
// gives a byte-identical stream (Inputs::serialize), and the program under
// test receives only these inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace perfbench {

enum class Topology { kSingle, kStar };

// Every workload's generator has this many SocketRuntimes, one TCP
// connection each; members are spread over them round-robin.
constexpr int kConnections = 2;
// Share of joins that ask for last_n_updates(kLastN) instead of a full
// transfer.
constexpr double kLastNShare = 0.2;
constexpr std::uint32_t kLastN = 64;

// Rates and counts are constants of the workload, never derived from the
// capacity a run measures, so a faster build faces the same load.  Phases
// are sized by message count: count = rate constant x --seconds.
struct WorkloadSpec {
  std::string name;
  std::string why;
  Topology topology = Topology::kSingle;
  bool durable = false;  // corona-serverd --data-dir <dir> --sync
  int groups = 1;
  int members_per_group = 32;  // long-lived, sender-inclusive members
  std::size_t payload_bytes = 100;
  int objects_per_group = 16;  // fixed object set, written with bcast_state
  // Closed loop: messages per --seconds, each sender keeping `window` of its
  // own multicasts outstanding.
  double closed_per_s = 0;
  int window = 2;
  // Open loop: Poisson arrivals at `open_rate`, for open_share x --seconds.
  double open_rate = 0;
  double open_share = 0;
  // Joins: Poisson arrivals at `join_rate`.  With joins_with_writes they run
  // during the open-loop phase (join_churn); otherwise after it, for
  // join_share x --seconds.
  double join_rate = 0;
  double join_share = 0;
  bool joins_with_writes = false;
  // Crash/restart cycles (recover_s) and the writes each one must keep.
  int recover_cycles = 41;
  int recover_writes_per_group = 16;
};

const std::vector<WorkloadSpec>& all_workloads();
const WorkloadSpec* find_workload(const std::string& name);

struct SendOp {
  std::uint64_t id = 0;  // generator message id, carried in the payload
  std::uint32_t sender = 0;  // member index
  std::uint32_t group = 0;
  std::uint32_t object = 0;
  std::int64_t due_ns = 0;  // open loop: offset from phase start
};

struct JoinOp {
  std::uint32_t group = 0;
  bool last_n = false;
  std::int64_t due_ns = 0;
};

struct Inputs {
  std::uint64_t seed = 0;
  std::size_t payload_bytes = 0;
  int groups = 0;
  int objects_per_group = 0;
  std::vector<std::vector<SendOp>> closed;  // per sender, in send order
  std::vector<SendOp> open;                 // in due order
  std::vector<JoinOp> joins;                // in due order
  // recover[c][g]: the writes a fresh writer sends to group g before crash c.
  std::vector<std::vector<std::vector<SendOp>>> recover;
  // By message id (index 0 unused).
  std::vector<std::uint32_t> group_of;
  std::vector<std::uint32_t> object_of;
  std::vector<std::uint64_t> hash_of;

  std::uint64_t preload_id(int group, int object) const {
    return 1 + static_cast<std::uint64_t>(group) * objects_per_group +
           static_cast<std::uint64_t>(object);
  }
  std::uint64_t max_id() const { return group_of.size() - 1; }
  std::size_t closed_count() const;
  // Payload bytes of message `id`: the id (8 bytes, little endian) then
  // filler drawn from (seed, id).
  corona::Bytes payload(std::uint64_t id) const;
  // Canonical byte image of the whole stream, payloads included.
  corona::Bytes serialize() const;
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds);

// Payload helpers shared with the oracle.
std::uint64_t payload_id(const corona::Bytes& data);
std::uint64_t payload_hash(const std::uint8_t* p, std::size_t n);
inline std::uint64_t payload_hash(const corona::Bytes& b) {
  return payload_hash(b.data(), b.size());
}

}  // namespace perfbench
