#include "stats.h"

#include <time.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                      static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(v, 50.0); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

PaceClock steady_pace_clock() {
  PaceClock c;
  c.now_ns = now_ns;
  // An absolute-deadline sleep, no spinning: a spinning pacer competes with
  // the generator's loop threads for their CPUs and delays deliveries by
  // whole scheduler slices.  The wake-up delay it costs instead is
  // reported as generator lag and charged to latency.
  c.sleep_until_ns = [](std::int64_t t) {
    const timespec ts{static_cast<time_t>(t / 1'000'000'000),
                      static_cast<long>(t % 1'000'000'000)};
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
    }
  };
  return c;
}

std::vector<std::int64_t> run_open_loop(
    const std::vector<std::int64_t>& due_ns, std::int64_t start_ns,
    const PaceClock& clock,
    const std::function<void(std::size_t, std::int64_t)>& issue) {
  std::vector<std::int64_t> lag(due_ns.size(), 0);
  for (std::size_t i = 0; i < due_ns.size(); ++i) {
    const std::int64_t due = start_ns + due_ns[i];
    if (clock.now_ns() < due) clock.sleep_until_ns(due);
    lag[i] = clock.now_ns() - due;
    issue(i, due);
  }
  return lag;
}

}  // namespace perfbench
