#include "process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "stats.h"

namespace perfbench {

ChildProcess::ChildProcess(const std::string& exe,
                           const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  // vfork: the child borrows this process's memory until execv, so a
  // launch costs the same however large the generator's heap has grown
  // (fork copies the page tables).  The child makes system calls only.
  pid_ = ::vfork();
  if (pid_ < 0) throw std::runtime_error("vfork failed");
  if (pid_ == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    // The server dies with the benchmark even if the benchmark is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    ::execv(exe.c_str(), argv.data());
    static const char kMsg[] = "perfbench: cannot exec the server\n";
    (void)!::write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool ChildProcess::read_some(int timeout_ms) {
  pollfd p{out_fd_, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) return false;
  char chunk[4096];
  const ssize_t n = ::read(out_fd_, chunk, sizeof(chunk));
  if (n <= 0) return false;
  buf_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

std::string ChildProcess::wait_line(const std::string& needle,
                                    int timeout_ms) {
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  for (;;) {
    std::size_t start = 0;
    for (std::size_t nl; (nl = buf_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string line = buf_.substr(start, nl - start);
      if (line.find(needle) != std::string::npos) {
        buf_.erase(0, nl + 1);
        return line;
      }
    }
    const std::int64_t left = (deadline - now_ns()) / 1000000;
    if (left <= 0 || !read_some(static_cast<int>(left))) return "";
  }
}

std::string ChildProcess::signal_and_wait(int sig, bool* clean_exit,
                                          int timeout_ms) {
  *clean_exit = false;
  if (pid_ <= 0) return "";
  ::kill(pid_, sig);
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  int status = 0;
  for (;;) {
    while (read_some(0)) {
    }
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    read_some(5);
  }
  while (read_some(0)) {
  }
  pid_ = -1;
  *clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return std::exchange(buf_, std::string());
}

double proc_cpu_us(pid_t pid) {
  // The process's CPU-time clock counts in nanoseconds; /proc/<pid>/stat's
  // utime and stime count in 10-ms ticks, too coarse for one round.
  clockid_t clock;
  timespec ts{};
  if (pid <= 0 || ::clock_getcpuclockid(pid, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

double proc_hwm_mb(pid_t pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

std::map<std::string, double> parse_ledger(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("shut down") == std::string::npos &&
        line.find(" disk ") == std::string::npos) {
      continue;
    }
    std::istringstream words(line);
    std::string w;
    while (words >> w) {
      const std::size_t eq = w.find('=');
      if (eq == std::string::npos || eq == 0) continue;
      std::string value = w.substr(eq + 1);
      if (const std::size_t slash = value.find('/'); slash != std::string::npos) {
        value = value.substr(0, slash);  // segments=+a/-b keeps +a
      }
      try {
        out[w.substr(0, eq)] = std::stod(value);
      } catch (const std::exception&) {
      }
    }
  }
  return out;
}

}  // namespace perfbench
