// Child server processes and what the benchmark reads about them from
// outside: /proc counters and the shutdown ledger on stdout.
#pragma once

#include <map>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

// A child process with its stdout on a pipe.  The destructor SIGKILLs and
// reaps a child still running, so no process outlives the benchmark.
class ChildProcess {
 public:
  ChildProcess(const std::string& exe, const std::vector<std::string>& args);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }
  bool running() const { return pid_ > 0; }
  // Waits up to timeout_ms for a stdout line containing `needle`; returns
  // it, or "" on timeout / EOF.
  std::string wait_line(const std::string& needle, int timeout_ms);
  // Sends `sig`, then reaps; returns everything the child printed after the
  // last wait_line and whether it exited with status 0.
  std::string signal_and_wait(int sig, bool* clean_exit, int timeout_ms);

 private:
  bool read_some(int timeout_ms);

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

// CPU time (user + system, all threads) of `pid`, in microseconds; 0 for
// pid <= 0.
double proc_cpu_us(pid_t pid);
// VmHWM of `pid` in MiB (from /proc/<pid>/status).
double proc_hwm_mb(pid_t pid);
// key=value pairs from corona-serverd's "shut down" and "disk" ledger
// lines (frames_tx, fsyncs, bytes, ckpt_bytes, ...).
std::map<std::string, double> parse_ledger(const std::string& text);

}  // namespace perfbench
