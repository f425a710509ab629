// Self-tests of the benchmark harness: percentile math, open-loop
// accounting, and the seeded input stream.
#include <gtest/gtest.h>

#include "inputs.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 4.6);
  std::vector<double> two{10, 20};
  EXPECT_DOUBLE_EQ(percentile(two, 99), 19.9);
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(percentile(empty, 50), 0);
  EXPECT_DOUBLE_EQ(median({7}), 7);
}

TEST(Percentile, P99OfUniformSample) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_NEAR(percentile(v, 99), 990.01, 1e-9);
}

// A fake clock: sleeping advances time to the deadline; `stall` extra
// nanoseconds are charged inside one send.
struct FakeClock {
  std::int64_t t = 0;
  PaceClock clock() {
    PaceClock c;
    c.now_ns = [this] { return t; };
    c.sleep_until_ns = [this](std::int64_t d) { t = std::max(t, d); };
    return c;
  }
};

TEST(OpenLoop, StallIsChargedToEveryLaterSend) {
  // Ten sends due every 1 ms; the fourth send stalls the generator 5 ms.
  std::vector<std::int64_t> due;
  for (int i = 0; i < 10; ++i) due.push_back(i * 1'000'000);
  FakeClock fc;
  std::vector<std::int64_t> issued(due.size());
  const std::vector<std::int64_t> lag =
      run_open_loop(due, 0, fc.clock(), [&](std::size_t i, std::int64_t) {
        issued[i] = fc.t;
        if (i == 3) fc.t += 5'000'000;
      });
  // Never early; on time before the stall.
  for (std::size_t i = 0; i <= 3; ++i) EXPECT_EQ(lag[i], 0) << i;
  // Sends 4..7 were due during the stall (3..8 ms) and go out late, each
  // charged the remaining stall; sends 8 and 9 are due once it caught up.
  for (std::size_t i = 4; i <= 7; ++i) {
    EXPECT_EQ(lag[i], due[3] + 5'000'000 - due[i]) << i;
    EXPECT_GT(lag[i], 0) << i;
    // A 100-us service time: latency from the due time includes the lag.
    const std::int64_t done = issued[i] + 100'000;
    EXPECT_EQ(latency_ns(due[i], done), lag[i] + 100'000) << i;
  }
  EXPECT_EQ(lag[8], 0);
  EXPECT_EQ(lag[9], 0);
}

TEST(OpenLoop, SendsNeverGoOutEarly) {
  std::vector<std::int64_t> due{0, 10, 10, 500};
  FakeClock fc;
  std::vector<std::int64_t> issued;
  (void)run_open_loop(due, 1000, fc.clock(),
                      [&](std::size_t, std::int64_t) { issued.push_back(fc.t); });
  ASSERT_EQ(issued.size(), due.size());
  for (std::size_t i = 0; i < due.size(); ++i) EXPECT_GE(issued[i], 1000 + due[i]);
}

TEST(Inputs, SameSeedGivesByteIdenticalStream) {
  for (const WorkloadSpec& spec : all_workloads()) {
    const corona::Bytes a = make_inputs(spec, 42, 0.5).serialize();
    const corona::Bytes b = make_inputs(spec, 42, 0.5).serialize();
    EXPECT_EQ(a, b) << spec.name;
    const corona::Bytes c = make_inputs(spec, 43, 0.5).serialize();
    EXPECT_NE(a, c) << spec.name;
  }
}

TEST(Inputs, PayloadCarriesItsIdAndHash) {
  const Inputs in = make_inputs(*find_workload("fanout"), 7, 0.5);
  for (std::uint64_t id = 1; id <= in.max_id(); ++id) {
    const corona::Bytes p = in.payload(id);
    ASSERT_EQ(payload_id(p), id);
    ASSERT_EQ(payload_hash(p), in.hash_of[id]);
  }
  corona::Bytes p = in.payload(3);
  p.back() ^= 1;
  EXPECT_NE(payload_hash(p), in.hash_of[3]);
}

TEST(Inputs, CountsScaleWithSecondsNotCapacity) {
  const WorkloadSpec& spec = *find_workload("fanout");
  const Inputs one = make_inputs(spec, 1, 1.0);
  const Inputs two = make_inputs(spec, 1, 2.0);
  // Closed-loop counts round per sender.
  const auto senders = static_cast<double>(spec.groups * spec.members_per_group);
  EXPECT_NEAR(static_cast<double>(two.closed_count()),
              2.0 * static_cast<double>(one.closed_count()), senders);
  EXPECT_EQ(two.open.size(), 2 * one.open.size());
  // Open-loop dues ascend.
  for (std::size_t i = 1; i < one.open.size(); ++i) {
    EXPECT_GE(one.open[i].due_ns, one.open[i - 1].due_ns);
  }
}

}  // namespace
}  // namespace perfbench
