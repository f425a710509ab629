// corona-perfbench: runs one workload and prints every metric by name with
// its unit, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --bin-dir DIR --work-dir DIR
//   perfbench --serve-star     (the replicated star as a server process)
//   perfbench --list           (workload names and why each exists)
//
// Exit status: 0 when every correctness check passed, 1 on an order or
// integrity violation, 2 on bad usage or a harness failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "cluster.h"
#include "workloads.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --work-dir DIR\n"
               "       perfbench --serve-star | --list\n");
}

double or_zero(double v) { return std::isfinite(v) ? v : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--serve-star") return serve_star_main();
    if (a == "--list") {
      for (const WorkloadSpec& w : all_workloads()) {
        std::printf("%s\t%s\n", w.name.c_str(), w.why.c_str());
      }
      return 0;
    }
    if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.traced = next() == "1";
    } else if (a == "--bin-dir") {
      opt.bin_dir = next();
    } else if (a == "--work-dir") {
      opt.work_dir = next();
    } else {
      usage();
      return 2;
    }
  }
  const WorkloadSpec* spec = find_workload(workload);
  if (spec == nullptr || opt.bin_dir.empty() || opt.work_dir.empty() ||
      !(opt.seconds > 0)) {
    usage();
    return 2;
  }

  Report r;
  try {
    r = run_workload(*spec, opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  for (const Metric& m : r.extra) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), or_zero(m.value), m.unit.c_str());
  }
  for (const Metric& m : r.metrics) {
    std::printf("%-34s %14.6g %s\n", m.name.c_str(), or_zero(m.value), m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                r.metrics[i].name.c_str(), or_zero(r.metrics[i].value),
                r.metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
