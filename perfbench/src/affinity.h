// CPU helpers for the idle spinners: the CPUs a thread may use, pinning.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

namespace perfbench {

// Restricts the calling thread (and threads it creates later) to `cpus`;
// no-op for an empty list.
void pin_self(const std::vector<int>& cpus);

// The CPUs the calling thread may run on.
std::vector<int> allowed_cpus();

// Keeps every CPU in `cpus` out of the idle state for its lifetime: one
// SCHED_IDLE thread per CPU spins there, and any runnable thread preempts
// it at once.  On a virtual machine an idle vCPU is descheduled by the
// host, and waking it again (an IPI to a halted vCPU) takes from tens of
// microseconds to milliseconds depending on host load; without the
// spinners that wake-up, not the system under test, sets the latency
// figures.  The bare-metal analogue is disabling deep C-states.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench
