// Percentiles and the open-loop accounting rule.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

// Linear interpolation between the two closest ranks (the numpy default):
// p in [0, 100]; sorts `v` in place.  Returns 0 for an empty sample.
double percentile(std::vector<double>& v, double p);
double median(std::vector<double> v);

// The clock the open-loop pacer reads and waits on.  The real one is
// steady_clock; tests inject a fake to script stalls.
struct PaceClock {
  std::function<std::int64_t()> now_ns;
  std::function<void(std::int64_t)> sleep_until_ns;
};
PaceClock steady_pace_clock();

// Open-loop pacing: event i is due at start + due_ns[i] and is issued no
// earlier than that, however late the generator runs.  `issue(i, due_abs)`
// performs the send.  Returns each event's lag (issue time - due time).
// Latency is always measured from the due time (latency_ns), so a stall in
// the generator or the system is charged to every event it delays, not
// hidden by sending later (coordinated omission).
std::vector<std::int64_t> run_open_loop(
    const std::vector<std::int64_t>& due_ns, std::int64_t start_ns,
    const PaceClock& clock,
    const std::function<void(std::size_t, std::int64_t)>& issue);

inline std::int64_t latency_ns(std::int64_t due_abs_ns,
                               std::int64_t done_ns) {
  return done_ns - due_abs_ns;
}

std::int64_t now_ns();

}  // namespace perfbench
