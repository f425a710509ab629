// The correctness oracle run on every benchmark run.
//
//   * Every member of a group sees the same seq -> message-id order, each
//     message exactly once, with contiguous seqs and the payload hash the
//     input stream gives for that id.
//   * A joiner's state equals the reference member's state at the same seq.
//   * After a crash and restart, a fresh member's state holds every update
//     delivered before the kill.
//
// Order and integrity violations are fatal (the run reports correct=false
// and exits non-zero); missing deliveries and failed joins count as failed
// operations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"
#include "util/ids.h"

namespace perfbench {

// Deliveries one long-lived member saw, in arrival order.
using DeliveryLog = std::vector<std::pair<corona::SeqNo, std::uint64_t>>;

struct JoinRecord {
  std::uint32_t index = 0;  // position in Inputs::joins
  std::uint32_t group = 0;
  bool last_n = false;
  bool ok = false;
  bool hash_ok = true;
  std::int64_t latency_ns = 0;
  corona::SeqNo head = 0;
  // Full transfer: message id held by each object (index = object).
  // last_n: message ids of the transferred history, ascending by seq,
  // with their seqs.
  std::vector<std::uint64_t> ids;
  std::vector<corona::SeqNo> seqs;
};

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> fatal;  // order / integrity violations

  void fail_fatal(std::string what) {
    ++failed;
    fatal.push_back(std::move(what));
  }
};

// Object -> message id: a group's state as the oracle tracks it.
using StateIds = std::vector<std::uint64_t>;

// seq-indexed message ids of one group (order[0] unused).
using GroupOrder = std::vector<std::uint64_t>;

// Checks the long-lived members' logs; `logs[g]` holds the logs of group g's
// members, the first being the reference.  `sent[g]` lists the ids sent to
// group g.  Returns each group's order.
std::vector<GroupOrder> check_deliveries(
    const Inputs& in, const std::vector<std::vector<const DeliveryLog*>>& logs,
    const std::vector<std::vector<std::uint64_t>>& sent, Verdict& v);

// State of group g at `seq`, starting from `base` at seq 0.
StateIds state_at(const Inputs& in, const StateIds& base,
                  const GroupOrder& order, corona::SeqNo seq);
StateIds preload_state(const Inputs& in, int group);

void check_joins(const Inputs& in, const std::vector<GroupOrder>& orders,
                 const std::vector<const JoinRecord*>& joins, Verdict& v);

}  // namespace perfbench
