// corona-check — systematic schedule & fault exploration over the
// deterministic simulator (docs/ANALYSIS.md, "Schedule exploration").
//
//   corona-check                           # bounded DFS, single-server world
//   corona-check --world replicated ...    # coordinator fail-stop + election
//   corona-check --mode random --seed 7    # seeded random walks (deep runs)
//   corona-check --replay 2,0,1            # re-execute one trace, twice,
//                                          # and verify byte-identical output
//
// Exit codes: 0 = all explored schedules quiet, 2 = violation found (the
// minimized trace is printed and, with --trace-out, written to a file),
// 3 = replay mismatch (nondeterminism — a harness bug), 1 = usage error.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "check/explorer.h"

namespace {

using corona::check::Explorer;
using corona::check::ExplorerOptions;
using corona::check::RunResult;
using corona::check::ScheduleTrace;
using corona::check::WorldOptions;

int usage() {
  std::cerr <<
      "usage: corona-check [options]\n"
      "  --world single|replicated   world shape (default single)\n"
      "  --mode dfs|random           search strategy (default dfs)\n"
      "  --schedules N               schedule budget (default 10000)\n"
      "  --depth N                   decision points per run (default 10)\n"
      "  --delay-bound N             delayed-delivery budget per run (default 3)\n"
      "  --branch N                  max candidates per decision (default 6)\n"
      "  --crash-bound N             server crashes per run (default 1)\n"
      "  --partition-bound N         client partitions per run (default 1)\n"
      "  --clients N / --servers N   world size (defaults 3 / 3)\n"
      "  --multicasts N              multicasts per client (default 2)\n"
      "  --seed N                    random-mode seed (default 1)\n"
      "  --seed-bug                  plant the ordering mutation (clients run\n"
      "                              without gap detection; search relaxes\n"
      "                              per-channel FIFO to expose it)\n"
      "  --batch N                   server batch_max_msgs (default 1 = off;\n"
      "                              > 1 arms the batch-boundary gap oracle)\n"
      "  --batch-delay MS            batch delay bound in ms (default 2)\n"
      "  --seed-batch-bug            plant the batch mutation (server drops\n"
      "                              every coalesced frame's tail record;\n"
      "                              the boundary oracle must catch it)\n"
      "  --seed-commit-bug           plant the commit mutation (server\n"
      "                              delivers at commit submission, not\n"
      "                              completion; the durable-before-ack\n"
      "                              oracle must catch it)\n"
      "  --no-prune                  disable revisited-state pruning\n"
      "  --replay TRACE|@FILE        re-execute one schedule trace twice\n"
      "  --trace-out FILE            write a violating trace here\n";
  return 1;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  WorldOptions world;
  ExplorerOptions options;
  std::string replay;
  std::string trace_out;

  auto need_value = [&](int& i) -> const char* {
    return i + 1 < argc ? argv[++i] : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t n = 0;
    const char* v = nullptr;
    if (arg == "--world") {
      if ((v = need_value(i)) == nullptr) return usage();
      const std::string value = v;
      if (value == "single") {
        world.mode = WorldOptions::Mode::kSingleServer;
      } else if (value == "replicated") {
        world.mode = WorldOptions::Mode::kReplicated;
      } else {
        return usage();
      }
    } else if (arg == "--mode") {
      if ((v = need_value(i)) == nullptr) return usage();
      const std::string value = v;
      if (value == "dfs") {
        options.mode = ExplorerOptions::Mode::kDfs;
      } else if (value == "random") {
        options.mode = ExplorerOptions::Mode::kRandom;
      } else {
        return usage();
      }
    } else if (arg == "--schedules") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      options.max_schedules = n;
    } else if (arg == "--depth") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      options.max_decisions = static_cast<int>(n);
    } else if (arg == "--delay-bound") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      options.delay_budget = static_cast<int>(n);
    } else if (arg == "--branch") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      options.max_branch = static_cast<int>(n);
    } else if (arg == "--crash-bound") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      world.max_crashes = static_cast<int>(n);
    } else if (arg == "--partition-bound") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      world.max_partitions = static_cast<int>(n);
    } else if (arg == "--clients") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      world.clients = n;
    } else if (arg == "--servers") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      world.servers = n;
    } else if (arg == "--multicasts") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      world.multicasts_per_client = static_cast<int>(n);
    } else if (arg == "--seed") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      options.seed = n;
    } else if (arg == "--seed-bug") {
      world.seed_ordering_bug = true;
      options.relax_channel_fifo = true;
    } else if (arg == "--batch") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      world.batch_max_msgs = n;
    } else if (arg == "--batch-delay") {
      if ((v = need_value(i)) == nullptr || !parse_u64(v, n)) return usage();
      world.batch_max_delay = static_cast<corona::Duration>(n) *
                              corona::kMillisecond;
    } else if (arg == "--seed-batch-bug") {
      world.seed_batch_bug = true;
    } else if (arg == "--seed-commit-bug") {
      world.seed_commit_bug = true;
    } else if (arg == "--no-prune") {
      options.prune_visited = false;
    } else if (arg == "--replay") {
      if ((v = need_value(i)) == nullptr) return usage();
      replay = v;
    } else if (arg == "--trace-out") {
      if ((v = need_value(i)) == nullptr) return usage();
      trace_out = v;
    } else {
      return usage();
    }
  }

  if (!replay.empty()) {
    std::string text = replay;
    if (text[0] == '@') {
      // Replay-trace read, user-supplied input; lint: file-io-ok
      std::ifstream in(text.substr(1));
      if (!in || !std::getline(in, text)) {
        std::cerr << "corona-check: cannot read trace file " << replay << "\n";
        return 1;
      }
    }
    const auto trace = ScheduleTrace::parse(text);
    if (!trace.has_value()) {
      std::cerr << "corona-check: malformed trace '" << text << "'\n";
      return 1;
    }
    Explorer explorer(world, options);
    const RunResult first = explorer.run_one(*trace);
    const RunResult second = explorer.run_one(*trace);
    if (first.report != second.report || first.steps != second.steps ||
        first.deliveries != second.deliveries) {
      std::cerr << "corona-check: REPLAY MISMATCH — run 1 ("
                << first.steps << " steps, " << first.deliveries
                << " deliveries, report '" << first.report << "') vs run 2 ("
                << second.steps << " steps, " << second.deliveries
                << " deliveries, report '" << second.report << "')\n";
      return 3;
    }
    std::cout << "replay " << trace->to_string() << ": " << first.steps
              << " steps, " << first.deliveries
              << " deliveries, deterministic\n";
    if (first.violated) {
      std::cout << "violation: " << first.report << "\n";
      return 2;
    }
    std::cout << "all oracles quiet\n";
    return 0;
  }

  Explorer explorer(world, options);
  const Explorer::Result result = explorer.explore();
  std::cout << "explored " << result.stats.schedules
            << " distinct schedules (" << result.stats.total_steps
            << " events, " << result.stats.pruned_branches
            << " subtrees pruned, " << result.stats.crash_runs
            << " with a crash, " << result.stats.partition_runs
            << " with a partition"
            << (result.stats.exhausted ? ", bounded tree exhausted" : "")
            << ")\n";
  if (!result.found) {
    std::cout << "all oracles quiet\n";
    return 0;
  }
  std::cout << "VIOLATION: " << result.report << "\n";
  std::cout << "minimized trace: " << result.trace.to_string() << "\n";
  // The hint repeats every option that shapes candidate enumeration, so the
  // replayed decision widths match the search exactly.
  std::cout << "replay with: corona-check"
            << (world.mode == WorldOptions::Mode::kReplicated
                    ? " --world replicated"
                    : "")
            << (world.seed_ordering_bug ? " --seed-bug" : "")
            << (world.seed_batch_bug ? " --seed-batch-bug" : "")
            << (world.seed_commit_bug ? " --seed-commit-bug" : "")
            << (world.batch_max_msgs > 1
                    ? " --batch " + std::to_string(world.batch_max_msgs)
                    : "")
            << " --delay-bound " << options.delay_budget << " --branch "
            << options.max_branch << " --replay " << result.trace.to_string()
            << "\n";
  if (!trace_out.empty()) {
    // Diagnostic trace dump; loss is harmless; lint: file-io-ok
    std::ofstream out(trace_out);
    out << result.trace.to_string() << "\n";
  }
  return 2;
}
