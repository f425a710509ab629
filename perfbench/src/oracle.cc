#include "oracle.h"

#include <algorithm>

namespace perfbench {

using corona::SeqNo;

std::vector<GroupOrder> check_deliveries(
    const Inputs& in, const std::vector<std::vector<const DeliveryLog*>>& logs,
    const std::vector<std::vector<std::uint64_t>>& sent, Verdict& v) {
  std::vector<GroupOrder> orders(logs.size());
  std::vector<std::uint8_t> seen(in.max_id() + 1, 0);
  for (std::size_t g = 0; g < logs.size(); ++g) {
    const std::string where = "group " + std::to_string(g + 1) + ": ";
    GroupOrder& order = orders[g];
    order.push_back(0);
    if (logs[g].empty()) continue;
    const DeliveryLog& ref = *logs[g].front();
    for (std::size_t k = 0; k < ref.size(); ++k) {
      const auto [seq, id] = ref[k];
      if (seq != k + 1) {
        v.fail_fatal(where + "reference member saw seq " +
                     std::to_string(seq) + " at position " +
                     std::to_string(k + 1) + " (gap or reorder)");
        break;
      }
      if (id == 0 || id > in.max_id() || in.group_of[id] != g) {
        v.fail_fatal(where + "delivered foreign message id " +
                     std::to_string(id));
        break;
      }
      if (seen[id]++ != 0) {
        v.fail_fatal(where + "message " + std::to_string(id) +
                     " sequenced twice");
        break;
      }
      order.push_back(id);
    }
    // Every other member: the same sequence, nothing more, nothing less.
    for (std::size_t m = 1; m < logs[g].size(); ++m) {
      const DeliveryLog& log = *logs[g][m];
      const std::size_t n = std::min(log.size(), ref.size());
      for (std::size_t k = 0; k < n; ++k) {
        if (log[k] != ref[k]) {
          v.fail_fatal(where + "member " + std::to_string(m) +
                       " diverges from the reference at seq " +
                       std::to_string(k + 1));
          break;
        }
      }
      if (log.size() > ref.size()) {
        v.fail_fatal(where + "member " + std::to_string(m) +
                     " saw deliveries the reference did not");
      } else if (log.size() < ref.size()) {
        // Missing at this member: each such message is a failed multicast
        // (counted once below if the reference also lacks it).
        v.failed += ref.size() - log.size();
      }
    }
    // Every message sent to the group was sequenced.
    for (std::uint64_t id : sent[g]) {
      ++v.attempted;
      if (seen[id] == 0) ++v.failed;
    }
  }
  return orders;
}

StateIds preload_state(const Inputs& in, int group) {
  StateIds s(static_cast<std::size_t>(in.objects_per_group));
  for (int o = 0; o < in.objects_per_group; ++o) {
    s[static_cast<std::size_t>(o)] = in.preload_id(group, o);
  }
  return s;
}

StateIds state_at(const Inputs& in, const StateIds& base,
                  const GroupOrder& order, SeqNo seq) {
  StateIds s = base;
  for (SeqNo k = 1; k <= seq && k < order.size(); ++k) {
    s[in.object_of[order[k]]] = order[k];
  }
  return s;
}

void check_joins(const Inputs& in, const std::vector<GroupOrder>& orders,
                 const std::vector<const JoinRecord*>& joins, Verdict& v) {
  // Sweep each group's order once, visiting joins by ascending head seq.
  std::vector<const JoinRecord*> sorted = joins;
  std::sort(sorted.begin(), sorted.end(),
            [](const JoinRecord* a, const JoinRecord* b) {
              return std::pair(a->group, a->head) < std::pair(b->group, b->head);
            });
  std::uint32_t cur_group = ~0u;
  StateIds state;
  SeqNo at = 0;
  for (const JoinRecord* j : sorted) {
    ++v.attempted;
    if (!j->ok) {
      ++v.failed;
      continue;
    }
    if (!j->hash_ok) {
      v.fail_fatal("join to group " + std::to_string(j->group + 1) +
                   " transferred corrupt object bytes");
      continue;
    }
    const GroupOrder& order = orders[j->group];
    if (j->head >= order.size()) {
      v.fail_fatal("join to group " + std::to_string(j->group + 1) +
                   " saw seq " + std::to_string(j->head) +
                   " beyond the reference member's last delivery");
      continue;
    }
    if (j->group != cur_group) {
      cur_group = j->group;
      state = preload_state(in, static_cast<int>(j->group));
      at = 0;
    }
    for (; at < j->head; ++at) state[in.object_of[order[at + 1]]] = order[at + 1];
    bool match = true;
    if (!j->last_n) {
      match = j->ids == state;
    } else {
      // The latest records up to head, contiguous and in the reference order.
      for (std::size_t k = 0; k < j->ids.size() && match; ++k) {
        const SeqNo seq = j->seqs[k];
        match = seq <= j->head && seq >= 1 && order[seq] == j->ids[k] &&
                (k == 0 || seq == j->seqs[k - 1] + 1);
      }
      // An empty history is legal: a reduction may just have emptied it.
      match = match && (j->seqs.empty() || j->seqs.back() == j->head);
    }
    if (!match) {
      v.fail_fatal("join to group " + std::to_string(j->group + 1) + " at seq " +
                   std::to_string(j->head) +
                   ": transferred state differs from the reference member's");
    }
  }
}

}  // namespace perfbench
