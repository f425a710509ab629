// Regression tests for corona-check, the schedule-exploration harness
// (src/check/).  Three contracts are pinned here:
//
//   1. The bounded default search is *quiet*: systematic delivery-reordering
//      and fault injection over the scripted worlds finds no oracle
//      violation (these bounds are a subset of what CI explores).
//   2. The harness *catches a planted bug*: with client gap detection off
//      (WorldOptions::seed_ordering_bug) a reordered delivery is applied out
//      of order and silently drops an update; the search must find it and
//      minimize the trace.
//   3. Replay is *byte-identical*: re-executing the minimized trace twice
//      produces the same violation report, step count and delivery count —
//      the property that makes a printed trace a usable bug report.
#include <gtest/gtest.h>

#include "check/explorer.h"
#include "check/trace.h"
#include "check/world.h"

namespace corona::check {
namespace {

TEST(ScheduleTrace, ParseAndPrintRoundTrip) {
  const auto t = ScheduleTrace::parse("0,3,1");
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->choices, (std::vector<std::uint32_t>{0, 3, 1}));
  EXPECT_EQ(t->to_string(), "0,3,1");
  EXPECT_EQ(ScheduleTrace{}.to_string(), "-");
  EXPECT_FALSE(ScheduleTrace::parse("1,x,2").has_value());
  EXPECT_FALSE(ScheduleTrace::parse("").has_value());
}

TEST(ScheduleTrace, StripTrailingZeros) {
  ScheduleTrace t;
  t.choices = {0, 2, 0, 0};
  t.strip_trailing_zeros();
  EXPECT_EQ(t.choices, (std::vector<std::uint32_t>{0, 2}));
}

TEST(CheckExplore, BoundedDfsSingleServerIsQuiet) {
  WorldOptions world;
  ExplorerOptions options;
  options.max_schedules = 400;
  options.max_decisions = 16;
  const auto result = Explorer(world, options).explore();
  EXPECT_FALSE(result.found) << result.report;
  EXPECT_GE(result.stats.schedules, 10u);
}

TEST(CheckExplore, BoundedDfsReplicatedIsQuiet) {
  WorldOptions world;
  world.mode = WorldOptions::Mode::kReplicated;
  ExplorerOptions options;
  options.max_schedules = 60;
  options.max_decisions = 12;
  const auto result = Explorer(world, options).explore();
  EXPECT_FALSE(result.found) << result.report;
  EXPECT_GE(result.stats.schedules, 5u);
}

TEST(CheckExplore, RandomWalksAreQuietAndDeterministicPerSeed) {
  WorldOptions world;
  ExplorerOptions options;
  options.mode = ExplorerOptions::Mode::kRandom;
  options.max_schedules = 50;
  options.max_decisions = 24;
  options.seed = 7;
  const auto a = Explorer(world, options).explore();
  const auto b = Explorer(world, options).explore();
  EXPECT_FALSE(a.found) << a.report;
  EXPECT_EQ(a.stats.total_steps, b.stats.total_steps);
}

// The harness's own mutation test (ISSUE acceptance): plant an ordering bug
// — clients skip gap detection, so an out-of-order delivery is applied and
// the skipped seq later dropped as a duplicate — and the search must catch
// it with a minimized, replayable trace.
TEST(CheckExplore, SeededOrderingBugIsCaughtAndMinimized) {
  WorldOptions world;
  world.seed_ordering_bug = true;
  ExplorerOptions options;
  options.relax_channel_fifo = true;  // the bug needs in-channel reordering
  options.max_decisions = 30;
  options.max_schedules = 2000;
  Explorer explorer(world, options);
  const auto result = explorer.explore();
  ASSERT_TRUE(result.found) << "bounded search missed the planted bug after "
                            << result.stats.schedules << " schedules";
  EXPECT_NE(result.report.find("convergence violation"), std::string::npos)
      << result.report;
  EXPECT_FALSE(result.trace.empty());

  // Byte-identical replay: same trace, same world — same report, step count
  // and delivery count, across two fresh executions.
  const RunResult first = explorer.run_one(result.trace);
  const RunResult second = explorer.run_one(result.trace);
  EXPECT_TRUE(first.violated);
  EXPECT_EQ(first.report, result.report);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.deliveries, second.deliveries);
  EXPECT_EQ(first.executed, second.executed);

  // Minimality: the trace still violates with its last choice defaulted
  // away only if that choice was already 0 — i.e. every non-zero choice is
  // load-bearing.  (minimize() greedily zeroes; spot-check the contract.)
  for (std::size_t i = 0; i < result.trace.size(); ++i) {
    if (result.trace.choices[i] == 0) continue;
    ScheduleTrace weakened = result.trace;
    weakened.choices[i] = 0;
    EXPECT_FALSE(explorer.run_one(weakened).violated)
        << "choice " << i << " was not load-bearing; minimize() should have "
        << "zeroed it";
  }
}

// Without the planted bug the very same relaxed search is quiet — the
// violation above is the mutation, not a harness artifact.
TEST(CheckExplore, RelaxedSearchWithoutMutationIsQuiet) {
  WorldOptions world;
  ExplorerOptions options;
  options.relax_channel_fifo = true;
  options.max_decisions = 30;
  options.max_schedules = 400;
  const auto result = Explorer(world, options).explore();
  EXPECT_FALSE(result.found) << result.report;
}

// Batched fan-out under exploration: with the server batch queue on the
// bounded DFS (including crash/partition schedules) must stay quiet — batch
// boundaries introduce no (group, seq) gaps or reorders at any client.
TEST(CheckExplore, BatchedDfsSingleServerIsQuiet) {
  WorldOptions world;
  world.batch_max_msgs = 4;
  ExplorerOptions options;
  options.max_schedules = 400;
  options.max_decisions = 16;
  const auto result = Explorer(world, options).explore();
  EXPECT_FALSE(result.found) << result.report;
  EXPECT_GE(result.stats.schedules, 10u);
}

TEST(CheckExplore, BatchedDfsReplicatedIsQuiet) {
  WorldOptions world;
  world.mode = WorldOptions::Mode::kReplicated;
  world.batch_max_msgs = 4;
  ExplorerOptions options;
  options.max_schedules = 60;
  options.max_decisions = 12;
  const auto result = Explorer(world, options).explore();
  EXPECT_FALSE(result.found) << result.report;
  EXPECT_GE(result.stats.schedules, 5u);
}

// The batch mutation: the server drops the tail record of every coalesced
// frame, clients run without gap detection, and the batch-boundary oracle
// must see the seq jump.  Replay of the violating trace is byte-identical.
TEST(CheckExplore, SeededBatchTailDropIsCaught) {
  WorldOptions world;
  world.seed_batch_bug = true;
  ExplorerOptions options;
  options.max_decisions = 30;
  options.max_schedules = 2000;
  Explorer explorer(world, options);
  const auto result = explorer.explore();
  ASSERT_TRUE(result.found) << "bounded search missed the planted batch bug "
                            << "after " << result.stats.schedules
                            << " schedules";
  EXPECT_NE(result.report.find("batch-boundary violation"), std::string::npos)
      << result.report;
  const RunResult first = explorer.run_one(result.trace);
  const RunResult second = explorer.run_one(result.trace);
  EXPECT_TRUE(first.violated);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.deliveries, second.deliveries);
}

// Durable-before-ack: a server that fans out at commit submission instead
// of completion is caught, and the violating schedule replays identically.
TEST(CheckExplore, SeededCommitBugIsCaught) {
  WorldOptions world;
  world.seed_commit_bug = true;
  ExplorerOptions options;
  options.max_decisions = 30;
  options.max_schedules = 2000;
  Explorer explorer(world, options);
  const auto result = explorer.explore();
  ASSERT_TRUE(result.found) << "bounded search missed the planted commit bug";
  EXPECT_NE(result.report.find("durability violation"), std::string::npos)
      << result.report;
  const RunResult first = explorer.run_one(result.trace);
  const RunResult second = explorer.run_one(result.trace);
  EXPECT_TRUE(first.violated);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.steps, second.steps);
  EXPECT_EQ(first.deliveries, second.deliveries);
}

// Fault injection actually runs: the bounded DFS reaches schedules that
// spend the crash and partition budgets, and those runs stay quiet too —
// crash recovery (restart + rejoin + resend) and partition healing keep the
// oracles satisfied.
TEST(CheckExplore, FaultSchedulesAreExercisedAndQuiet) {
  WorldOptions world;
  ExplorerOptions options;
  options.max_decisions = 24;
  options.max_schedules = 3000;
  const auto result = Explorer(world, options).explore();
  EXPECT_FALSE(result.found) << result.report;
  EXPECT_GE(result.stats.crash_runs, 1u)
      << "no explored schedule injected a server crash";
  EXPECT_GE(result.stats.partition_runs, 1u)
      << "no explored schedule injected a client partition";
}

}  // namespace
}  // namespace corona::check
