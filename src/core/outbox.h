// Batched fan-out (ServerConfig / ReplicaConfig batch_max_msgs and
// batch_max_delay).
//
// BatchTrigger is the one threshold-or-timer rule of every batch point: a
// batch closes when it holds `max_msgs` items or `max_delay` after its first
// item, whichever comes first.  Outbox pairs that rule with per-destination
// runs of messages, so each destination gets one send_batch frame per batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "serial/message.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/time.h"

namespace corona {

class BatchTrigger {
 public:
  // `tag` is the owner's on_timer tag for the delay timer.
  BatchTrigger(std::size_t max_msgs, Duration max_delay, std::uint64_t tag)
      : max_msgs_(max_msgs), max_delay_(max_delay), tag_(tag) {}

  // max_msgs <= 1 turns batching off: every item goes out on its own.
  bool enabled() const { return max_msgs_ > 1; }

  // Counts one item into the open batch.  Returns true when the item fills
  // the batch: the delay timer, if armed, is cancelled and the caller drains
  // now.  Otherwise the batch's first item arms the delay timer.
  CORONA_HOT_PATH bool add_item(Runtime& rt, NodeId owner) {
    if (++count_ >= max_msgs_) {
      if (timer_ != 0) {
        rt.cancel_timer(timer_);
        timer_ = 0;
      }
      return true;
    }
    if (timer_ == 0) timer_ = rt.set_timer(owner, max_delay_, tag_);
    return false;
  }
  // The caller drained the batch.  A delay timer armed for it stays armed
  // and drains whatever has queued by the time it fires.
  void drained() { count_ = 0; }
  // The delay timer fired; the caller drains.
  void timer_fired() { timer_ = 0; }

 private:
  std::size_t max_msgs_;
  Duration max_delay_;
  std::uint64_t tag_;
  std::size_t count_ = 0;
  TimerHandle timer_ = 0;
};

class Outbox {
 public:
  using Runs = std::map<NodeId, std::vector<Message>>;

  Outbox(std::size_t max_msgs, Duration max_delay, std::uint64_t timer_tag)
      : trigger_(max_msgs, max_delay, timer_tag) {}

  bool enabled() const { return trigger_.enabled(); }
  // Appends `m` to `to`'s run.
  CORONA_HOT_PATH void push(NodeId to, const Message& m) {
    runs_[to].push_back(m);
  }
  // Ends one record's pushes.  Returns true when the outbox is full and
  // must be flushed now.
  CORONA_HOT_PATH bool end_record(Runtime& rt, NodeId owner) {
    return trigger_.add_item(rt, owner);
  }
  void timer_fired() { trigger_.timer_fired(); }
  // Empties the outbox and hands back its runs in destination order; the
  // caller sends each run as one send_batch.
  CORONA_HOT_PATH Runs take_runs() {
    trigger_.drained();
    return std::exchange(runs_, {});
  }

 private:
  BatchTrigger trigger_;
  Runs runs_;
};

}  // namespace corona
