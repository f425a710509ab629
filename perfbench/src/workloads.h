// One benchmark run of one workload: set-up, the timed phases, the join
// stream, crash/restart cycles, and the oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string bin_dir;   // corona-serverd, perfbench
  std::string work_dir;  // holds durable data directories; on the checkout's disk
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON result: end-to-end or per-layer
  std::vector<Metric> extra;    // printed diagnostics
  std::vector<std::string> notes;
};

Report run_workload(const WorkloadSpec& spec, const RunOptions& opt);

}  // namespace perfbench
