#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "affinity.h"
#include "alloc.h"
#include "cluster.h"
#include "oracle.h"
#include "process.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

using corona::GroupId;
using corona::ObjectId;
using corona::SeqNo;
using corona::SharedState;
using corona::StateEntry;

namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 15;
constexpr int kSetupTimeoutMs = 20000;
constexpr int kPhaseTimeoutMs = 90000;
constexpr int kProbeTimeoutMs = 20000;

GroupId gid(std::size_t g) { return GroupId{static_cast<std::uint64_t>(g + 1)}; }

struct Expected {
  StateIds state;
  SeqNo head = 0;
};

std::vector<StateEntry> entries_of(const Inputs& in, const StateIds& s) {
  std::vector<StateEntry> out;
  for (std::size_t o = 0; o < s.size(); ++o) {
    out.push_back(StateEntry{ObjectId{static_cast<std::uint64_t>(o + 1)},
                             in.payload(s[o])});
  }
  return out;
}

// True when `s` holds exactly the objects `want` names, byte for byte.
bool state_equals(const Inputs& in, const SharedState* s, const StateIds& want) {
  if (s == nullptr || s->object_count() != want.size()) return false;
  for (std::size_t o = 0; o < want.size(); ++o) {
    const corona::Bytes* b = s->object(ObjectId{static_cast<std::uint64_t>(o + 1)});
    if (b == nullptr || payload_id(*b) != want[o] ||
        payload_hash(*b) != in.hash_of[want[o]]) {
      return false;
    }
  }
  return true;
}

std::string fresh_dir(const std::string& base, const std::string& name) {
  const std::filesystem::path p = std::filesystem::path(base) / name;
  std::filesystem::remove_all(p);
  std::filesystem::create_directories(p.parent_path());
  return p.string();
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::vector<double> lags_ms(const std::vector<std::int64_t>& lags) {
  std::vector<double> out;
  for (std::int64_t l : lags) out.push_back(ms(l));
  return out;
}

HostOptions host_options(const RunOptions& opt) {
  HostOptions ho;
  ho.bin_dir = opt.bin_dir;
  ho.traced = opt.traced;
  return ho;
}

// The latency phases (open loop, joins) run with every CPU kept out of
// idle; see IdleSpinners.  On a shared host a halted vCPU waits for the
// host to run it again, and while other tenants are busy that wait, not
// the program, sets the latency figures.  The cost is a stated limit: a
// hand-off to a thread that must be woken looks cheaper here than on an
// idle deployed host.  The closed loop keeps the server busy by itself and
// runs without spinners, so their context switches are not charged to the
// server's CPU time.
const std::vector<int>& all_cpus() {
  static const std::vector<int> cpus = allowed_cpus();
  return cpus;
}

// The closed loop runs in kRounds rounds, and the open-loop and join
// schedules are cut into as many slices.  Rounds and slices alternate
// (run_timed), so each kind samples the whole timed stretch of a run.
constexpr int kRounds = 30;
// Latency samples are also grouped into consecutive slices of the
// schedule, each with at least kMinSlice samples, for per-slice p50s.
constexpr int kMaxSlices = 60;
constexpr std::size_t kMinSlice = 100;
int slices(std::size_t samples) {
  return std::clamp(static_cast<int>(samples / kMinSlice), 1, kMaxSlices);
}
int delivery_slices(const WorkloadSpec& spec, const Inputs& in) {
  return slices(in.open.size() * static_cast<std::size_t>(spec.members_per_group));
}

double percentile_of(std::vector<double> v, double p) { return percentile(v, p); }

std::vector<double> flatten(const std::vector<std::vector<double>>& segs) {
  std::vector<double> out;
  for (const auto& s : segs) out.insert(out.end(), s.begin(), s.end());
  return out;
}

std::vector<double> slice_p50s(const std::vector<std::vector<double>>& segs) {
  std::vector<double> per;
  for (std::vector<double> s : segs) {
    if (!s.empty()) per.push_back(percentile(s, 50));
  }
  return per;
}

// A gated figure is the good-side decile of a run's samples: the rate
// only the fastest tenth of rounds beat, the p50 only the quietest tenth
// of slices beat.  On a shared host, other tenants slow a run in
// stretches of seconds, and the worse samples measure those stretches;
// the good decile measures the program, and is less of a lucky draw than
// the single best sample.
double low_decile(std::vector<double> v) { return percentile(v, 10); }
double high_decile(std::vector<double> v) { return percentile(v, 90); }

// The timed phases: kRounds blocks, each one closed-loop round, then one
// slice of the open-loop schedule, then, with `joins` and unless the joins
// run inside the open loop, one slice of the join schedule, then
// `between(k)` when given.
struct Timed {
  std::vector<double> rounds;     // each closed-loop round's multicasts/s
  std::vector<double> cpu_us;     // each round's server CPU per multicast
  std::vector<std::int64_t> lag;  // open-loop generator lag per event
  bool complete = true;           // false when a round or slice timed out
};

// `pid`: the server process whose CPU time is read (-1 in-process).
Timed run_timed(const WorkloadSpec& spec, Generator& gen, pid_t pid, bool joins,
                const std::function<void(int)>& between = {}) {
  Timed t;
  for (int k = 0; k < kRounds && t.complete; ++k) {
    const double cpu0 = proc_cpu_us(pid);
    const std::uint64_t sent0 = gen.messages_sent();
    const double rate = gen.run_closed(k, kRounds, kPhaseTimeoutMs);
    const double cpu = proc_cpu_us(pid) - cpu0;
    if (rate == 0) {
      t.complete = false;
      break;
    }
    t.rounds.push_back(rate);
    t.cpu_us.push_back(cpu / static_cast<double>(gen.messages_sent() - sent0));
    {
      const IdleSpinners spinners(all_cpus());
      const std::vector<std::int64_t> lag =
          gen.run_open(k, kRounds, kPhaseTimeoutMs, &t.complete);
      t.lag.insert(t.lag.end(), lag.begin(), lag.end());
      if (t.complete && joins && !spec.joins_with_writes) {
        (void)gen.run_joins(k, kRounds, kPhaseTimeoutMs, &t.complete);
      }
    }
    if (between) between(k);
  }
  return t;
}

struct Session {
  std::unique_ptr<ServerHost> host;
  std::unique_ptr<Generator> gen;
  std::string data_dir;
};

// Launches a fresh server and generator into `s`, through every member's
// join: one set-up sample.  `tag` names a durable server's data directory.
bool set_up(const WorkloadSpec& spec, const Inputs& in, const RunOptions& opt,
            const std::string& tag, Session& s, std::vector<double>& samples) {
  HostOptions ho = host_options(opt);
  if (spec.durable) {
    s.data_dir = fresh_dir(opt.work_dir, spec.name + "-data-" + tag);
    ho.data_dir = s.data_dir;
  }
  const std::int64_t t0 = now_ns();
  s.host = launch_host(spec, ho);
  s.gen = std::make_unique<Generator>(spec, in, s.host->access(), opt.traced);
  s.gen->start();
  if (!s.gen->create_groups(kSetupTimeoutMs) || !s.gen->join_members(kSetupTimeoutMs)) {
    return false;
  }
  samples.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return true;
}

void tear_down(Session& s) {
  if (s.gen) s.gen->stop();
  s.gen.reset();
  if (s.host) (void)s.host->stop();
  s.host.reset();
}

// Runs the oracle over a stopped generator; returns each group's state and
// head after the last delivery.
std::vector<Expected> verify(const Inputs& in, const Generator& gen,
                             bool joins_expected, Verdict& v) {
  const std::vector<GroupOrder> orders =
      check_deliveries(in, gen.logs_by_group(), gen.sent_by_group(), v);
  const std::vector<const JoinRecord*> joins = gen.join_records();
  if (joins_expected) {
    check_joins(in, orders, joins, v);
    if (joins.size() < in.joins.size()) {
      v.attempted += in.joins.size() - joins.size();
      v.failed += in.joins.size() - joins.size();  // never completed
    }
  }
  if (const std::uint64_t bad = gen.counters().hash_bad.load(); bad > 0) {
    v.fail_fatal(std::to_string(bad) + " deliveries carried corrupt payloads");
  }
  v.failed += gen.counters().error_replies.load();
  std::vector<Expected> out(orders.size());
  for (std::size_t g = 0; g < orders.size(); ++g) {
    const SeqNo head = orders[g].size() - 1;
    out[g].state = state_at(in, preload_state(in, static_cast<int>(g)), orders[g], head);
    out[g].head = head;
  }
  return out;
}

// Crash/restart cycles on a server of their own, which starts from the
// groups' state `exp`: a fresh writer's updates are delivered, the server
// is SIGKILLed and restarted, and a fresh member's full-transfer join must
// hold every update delivered before the kill.  A durable server restarts
// with --recover over `data_dir`, which must hold the groups; the
// in-memory servers restart empty and the groups are re-created from the
// members' replica, the state tracked in `exp_`.  `samples` holds the
// kill -> join-complete times.
class CrashCycles {
 public:
  CrashCycles(const WorkloadSpec& spec, const Inputs& in, const RunOptions& opt,
              std::vector<Expected> exp, const std::string& data_dir, Verdict& v)
      : spec_(spec), in_(in), v_(v), ho_(host_options(opt)), exp_(std::move(exp)) {
    ho_.data_dir = data_dir;
    ho_.recover = spec.durable;
    host_ = launch_host(spec, ho_);
    if (!spec.durable) create_groups();
  }
  ~CrashCycles() { (void)host_->stop(); }
  CrashCycles(const CrashCycles&) = delete;
  CrashCycles& operator=(const CrashCycles&) = delete;

  void run(std::size_t c) {
    write(c);
    const std::int64_t t0 = now_ns();
    host_->kill_hard();
    host_ = launch_host(spec_, ho_);
    if (!spec_.durable) create_groups();
    Probe joiner(host_->access().back(), 1, next_node());
    bool joined = true;
    for (std::size_t g = 0; g < exp_.size(); ++g) {
      joined = joiner.join(0, gid(g), kProbeTimeoutMs) && joined;
    }
    const std::int64_t t1 = now_ns();
    for (std::size_t g = 0; g < exp_.size(); ++g) {
      ++v_.attempted;
      if (joined) check_state(joiner, g, "fresh member's join");
    }
    if (!joined) {
      ++v_.failed;
    } else {
      samples.push_back(static_cast<double>(t1 - t0) / 1e9);
    }
  }

  std::vector<double> samples;

 private:
  std::uint64_t next_node() { return node_ += 10; }

  void create_groups() {
    Probe creator(host_->access().front(), 1, next_node());
    for (std::size_t g = 0; g < exp_.size(); ++g) {
      ++v_.attempted;
      if (!creator.create(0, gid(g), entries_of(in_, exp_[g].state), kProbeTimeoutMs)) {
        ++v_.failed;
      }
      exp_[g].head = 0;
    }
  }

  void check_state(const Probe& p, std::size_t g, const char* who) {
    const SharedState* s = p.state(0, gid(g));
    if (!state_equals(in_, s, exp_[g].state) ||
        (spec_.durable && s->head_seq() != exp_[g].head)) {
      v_.fail_fatal(std::string(who) + " of group " + std::to_string(g + 1) +
                    " after restart lacks updates delivered before it");
    }
  }

  // A fresh writer joins every group, checks its state and writes cycle
  // `c`'s updates; the ones delivered to it become the expected state.
  void write(std::size_t c) {
    Probe w(host_->access().front(), 1, next_node());
    std::vector<SendOp> ops;
    for (std::size_t g = 0; g < exp_.size(); ++g) {
      ++v_.attempted;
      if (!w.join(0, gid(g), kProbeTimeoutMs)) {
        ++v_.failed;
        continue;
      }
      check_state(w, g, "writer's join");
      ops.insert(ops.end(), in_.recover[c][g].begin(), in_.recover[c][g].end());
    }
    v_.attempted += ops.size();
    if (!w.write(0, in_, ops, kProbeTimeoutMs)) v_.failed += ops.size();
    w.stop();
    for (const auto& [g, log] : w.delivered(0)) {
      for (const auto& [seq, id] : log) {
        if (seq != exp_[g].head + 1 || id == 0 || in_.group_of[id] != g) {
          v_.fail_fatal("writer of group " + std::to_string(g + 1) + " saw seq " +
                        std::to_string(seq) + " out of order");
          break;
        }
        exp_[g].state[in_.object_of[id]] = id;
        exp_[g].head = seq;
      }
    }
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  Verdict& v_;
  HostOptions ho_;
  std::vector<Expected> exp_;
  std::unique_ptr<ServerHost> host_;
  std::uint64_t node_ = 20000;
};

void finish(Report& r, const Verdict& v) {
  r.attempted = std::max<std::uint64_t>(v.attempted, 1);
  r.failed = v.failed;
  r.correct = v.fatal.empty();
  for (const std::string& f : v.fatal) r.notes.push_back("VIOLATION: " + f);
  r.extra.push_back({"failed_frac",
                     static_cast<double>(r.failed) / static_cast<double>(r.attempted),
                     "ratio"});
}

void setup_notes(const WorkloadSpec& spec, Report& r) {
  const int members = spec.groups * spec.members_per_group;
  r.notes.push_back("traffic crosses the 127.0.0.1 loopback interface, not a real link");
  r.notes.push_back("latency measured with no idle CPUs: SCHED_IDLE spinners keep every CPU, "
                    "the server's included, out of idle, so wake-up costs of a deployment "
                    "on an idle host are not measured");
  r.notes.push_back(std::to_string(members) + " members share " +
                    std::to_string(kConnections) +
                    " generator TCP connections, so per-connection syscall cost is "
                    "lower than with one socket per client");
  if (spec.topology == Topology::kSingle) {
    r.notes.push_back("corona-serverd runs with batch_max_msgs=1 (it has no batching flag)");
  }
}

// ---------------------------------------------------------------------------
// End-to-end run (--trace 0)
// ---------------------------------------------------------------------------

Report run_untraced(const WorkloadSpec& spec, const Inputs& in, const RunOptions& opt) {
  Report r;
  setup_notes(spec, r);
  Verdict v;
  Session s;
  std::vector<double> setup;
  if (!set_up(spec, in, opt, "main", s, setup)) {
    v.fail_fatal("set-up failed: group create or member join timed out");
    finish(r, v);
    return r;
  }
  // The other set-up samples, and the in-memory servers' crash cycles, run
  // between the timed blocks, spread evenly over them.  A durable server's
  // cycles recover the run's own log, so they run after it, as do cycles
  // a timed-out block left undone.
  std::unique_ptr<CrashCycles> crash;
  if (!spec.durable) {
    std::vector<Expected> exp;
    for (int g = 0; g < in.groups; ++g) exp.push_back({preload_state(in, g), 0});
    crash = std::make_unique<CrashCycles>(spec, in, opt, std::move(exp), "", v);
  }
  const int extra_setups = kSetupRepeats - 1;
  const std::size_t cycles = in.recover.size();
  std::size_t next_cycle = 0;
  auto between = [&](int k) {
    for (int i = extra_setups * k / kRounds; i < extra_setups * (k + 1) / kRounds; ++i) {
      Session t;
      ++v.attempted;
      if (!set_up(spec, in, opt, std::to_string(i), t, setup)) ++v.failed;
      tear_down(t);
    }
    for (; crash && next_cycle < cycles * static_cast<std::size_t>(k + 1) / kRounds;
         ++next_cycle) {
      crash->run(next_cycle);
    }
  };
  const pid_t pid = s.host->pid();
  const Timed timed = run_timed(spec, *s.gen, pid, true, between);
  const std::vector<double>& rounds = timed.rounds;
  const double hwm = proc_hwm_mb(pid);
  s.gen->stop();
  if (!timed.complete) {
    r.notes.push_back("a phase timed out; its missing work counts as failed");
  }

  std::vector<Expected> exp = verify(in, *s.gen, true, v);
  const auto lat = s.gen->delivery_latencies_ms(delivery_slices(spec, in));
  const auto join_lat = s.gen->join_latencies_ms(slices(in.joins.size()));
  std::vector<double> lag_ms = lags_ms(timed.lag);
  const double msgs = static_cast<double>(s.gen->messages_sent());
  const std::uint64_t gaps = s.gen->gaps_detected();
  const auto gen_net = s.gen->net_stats();
  s.gen.reset();
  const std::map<std::string, double> ledger = s.host->stop();
  s.host.reset();
  if (spec.durable) {
    crash = std::make_unique<CrashCycles>(spec, in, opt, std::move(exp), s.data_dir, v);
  }
  for (; next_cycle < cycles; ++next_cycle) crash->run(next_cycle);
  const std::vector<double> recover = crash->samples;
  crash.reset();
  finish(r, v);

  const std::vector<double> lat_p50 = slice_p50s(lat), join_p50 = slice_p50s(join_lat);
  r.metrics = {
      {"setup_s", median(setup), "s"},
      {"mcast_per_s", high_decile(rounds), "1/s"},
      {"deliver_p50_ms", low_decile(lat_p50), "ms"},
      {"join_p50_ms", low_decile(join_p50), "ms"},
      {"recover_s", low_decile(recover), "s"},
      {"server_cpu_us_per_mcast", low_decile(timed.cpu_us), "us"},
      {"server_rss_mb", hwm, "MiB"},
  };
  auto get = [&](const char* k) {
    auto it = ledger.find(k);
    return it == ledger.end() ? 0.0 : it->second;
  };
  r.extra.insert(r.extra.end(), {
      {"samples.deliveries", static_cast<double>(flatten(lat).size()), "count"},
      {"samples.joins", static_cast<double>(flatten(join_lat).size()), "count"},
      // Reported, not gated: see README.md, "Why only the medians are gated".
      {"deliver_p90_ms", percentile_of(flatten(lat), 90), "ms"},
      {"join_p90_ms", percentile_of(flatten(join_lat), 90), "ms"},
      {"deliver_p99_ms", percentile_of(flatten(lat), 99), "ms"},
      {"join_p99_ms", percentile_of(flatten(join_lat), 99), "ms"},
      {"samples.recoveries", static_cast<double>(recover.size()), "count"},
      {"samples.setups", static_cast<double>(setup.size()), "count"},
      {"phase.closed_msgs", static_cast<double>(in.closed_count()), "count"},
      {"phase.open_msgs", static_cast<double>(in.open.size()), "count"},
      {"phase.open_rate", spec.open_rate, "1/s"},
      {"loadgen.lag_p50_ms", percentile(lag_ms, 50), "ms"},
      {"loadgen.lag_p99_ms", percentile(lag_ms, 99), "ms"},
      {"loadgen.lag_max_ms", percentile(lag_ms, 100), "ms"},
      {"client.gaps_detected", static_cast<double>(gaps), "count"},
      {"net.generator_dropped", static_cast<double>(gen_net.messages_dropped), "count"},
      {"ledger.frames_tx_per_mcast", get("frames_tx") / msgs, "count"},
  });
  if (!rounds.empty()) {
    r.extra.insert(r.extra.end(), {
        {"mcast_per_s.min_round", *std::min_element(rounds.begin(), rounds.end()), "1/s"},
        {"mcast_per_s.max_round", *std::max_element(rounds.begin(), rounds.end()), "1/s"},
    });
  }
  if (spec.durable) {
    r.extra.insert(r.extra.end(), {
        {"ledger.fsyncs_per_kmsg", get("fsyncs") * 1000 / msgs, "count"},
        {"ledger.log_bytes_per_msg", get("bytes") / msgs, "B"},
        {"ledger.ckpt_bytes_per_msg", get("ckpt_bytes") / msgs, "B"},
    });
  }
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer run (--trace 1)
// ---------------------------------------------------------------------------

double pct_us(const std::vector<SpanSample>& v, double p, bool self = true) {
  std::vector<double> x;
  x.reserve(v.size());
  for (const SpanSample& s : v) x.push_back(static_cast<double>(self ? s.self_ns : s.total_ns) / 1e3);
  return percentile(x, p);
}

double mean_allocs(const std::vector<SpanSample>& v) {
  if (v.empty()) return 0;
  double n = 0;
  for (const SpanSample& s : v) n += s.self_allocs;
  return n / static_cast<double>(v.size());
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

Report run_traced(const WorkloadSpec& spec, const Inputs& in, const RunOptions& opt) {
  Report r;
  setup_notes(spec, r);
  r.notes.push_back("per-layer run: the server is hosted in-process with corona-serverd's config");
  if (!allocs_counted()) r.notes.push_back("allocation counts need perfbench_traced; they read 0");
  Verdict v;
  Tracer& tr = Tracer::get();
  tr.set_on(false);

  // Pass A: the same in-process stack with tracing off, for the overhead.
  double base_mcast = 0, base_p50 = 0;
  {
    Session s;
    std::vector<double> setup;
    if (!set_up(spec, in, opt, "untraced", s, setup)) {
      v.fail_fatal("set-up failed (untraced pass)");
      finish(r, v);
      return r;
    }
    base_mcast = high_decile(run_timed(spec, *s.gen, s.host->pid(), false).rounds);
    s.gen->stop();
    (void)verify(in, *s.gen, spec.joins_with_writes, v);
    base_p50 = low_decile(slice_p50s(s.gen->delivery_latencies_ms(delivery_slices(spec, in))));
    (void)s.host->stop();
  }

  // Pass B: traced.
  tr.reset();
  tr.size_stamps(in.max_id(), in.open.front().id, in.open.back().id + 1);
  Session s;
  std::vector<double> setup;
  if (!set_up(spec, in, opt, "traced", s, setup)) {
    v.fail_fatal("set-up failed (traced pass)");
    finish(r, v);
    return r;
  }
  const auto net0 = s.host->net_stats();
  const std::uint64_t fsync0 = s.host->fsyncs();
  tr.set_on(true);
  // The loop thread's allocation counter is read at its next message.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::uint64_t allocs0 = s.host->loop_allocs();
  // Joins run after the counters are read, so they count messages only.
  const Timed timed = run_timed(spec, *s.gen, s.host->pid(), false);
  const double mcast = high_decile(timed.rounds);
  const std::uint64_t allocs1 = s.host->loop_allocs();
  const auto net1 = s.host->net_stats();
  const std::uint64_t fsync1 = s.host->fsyncs();
  bool joins_ok = true;
  if (timed.complete && !spec.joins_with_writes) {
    (void)s.gen->run_joins(0, 1, kPhaseTimeoutMs, &joins_ok);
  }
  tr.set_on(false);
  s.gen->stop();
  (void)verify(in, *s.gen, true, v);
  const double p50 = low_decile(slice_p50s(s.gen->delivery_latencies_ms(delivery_slices(spec, in))));
  std::vector<double> lag_ms = lags_ms(timed.lag);
  const auto gen_net = s.gen->net_stats();
  const std::uint64_t gaps = s.gen->gaps_detected();
  (void)s.host->stop();
  const double store_recover_s = s.host->time_store_recovery();
  const TraceData d = tr.collect();
  finish(r, v);

  const double msgs = static_cast<double>(in.closed_count() + in.open.size());
  auto span = [&](SpanKind k) -> const std::vector<SpanSample>& {
    return d.spans[static_cast<int>(k)];
  };
  const auto [enc_bcast, dec_bcast] = time_codec(d.bcast_samples);
  const auto [enc_deliver, dec_deliver] = time_codec(d.deliver_samples);
  const auto [enc_join, dec_join] = time_codec(d.join_reply_samples);
  const auto& flushes = span(SpanKind::kStorageFlush);

  r.metrics = {
      {"core.server_msg_self_us.p50", pct_us(span(SpanKind::kServerBcast), 50), "us"},
      {"core.server_msg_self_us.p99", pct_us(span(SpanKind::kServerBcast), 99), "us"},
      {"core.server_join_self_us.p50", pct_us(span(SpanKind::kServerJoin), 50), "us"},
      {"core.join_reply_bytes", ratio(static_cast<double>(d.join_reply_bytes),
                                      static_cast<double>(d.join_replies)), "B"},
      {"core.client_deliver_us.p50", pct_us(span(SpanKind::kClientDeliver), 50), "us"},
      {"core.server_allocs_per_mcast", static_cast<double>(allocs1 - allocs0) / msgs, "count"},
      {"alloc.server_bcast_per_call", mean_allocs(span(SpanKind::kServerBcast)), "count"},
      {"alloc.server_join_per_call", mean_allocs(span(SpanKind::kServerJoin)), "count"},
      {"alloc.client_deliver_per_call", mean_allocs(span(SpanKind::kClientDeliver)), "count"},
      {"alloc.net_send_per_call", mean_allocs(span(SpanKind::kNetSend)), "count"},
      {"alloc.storage_append_per_call", mean_allocs(span(SpanKind::kStorageAppend)), "count"},
      {"alloc.replica_coord_per_call", mean_allocs(span(SpanKind::kCoordMsg)), "count"},
      {"alloc.replica_leaf_per_call", mean_allocs(span(SpanKind::kLeafMsg)), "count"},
      {"serial.encode_ns.bcast", enc_bcast, "ns"},
      {"serial.decode_ns.bcast", dec_bcast, "ns"},
      {"serial.encode_ns.deliver", enc_deliver, "ns"},
      {"serial.decode_ns.deliver", dec_deliver, "ns"},
      {"serial.encode_ns.join_reply", enc_join, "ns"},
      {"serial.decode_ns.join_reply", dec_join, "ns"},
      {"net.send_us.p50", pct_us(span(SpanKind::kNetSend), 50), "us"},
      {"net.c2s_wait_us.p50", pct_us(span(SpanKind::kC2sWait), 50), "us"},
      {"net.c2s_wait_us.p99", pct_us(span(SpanKind::kC2sWait), 99), "us"},
      {"net.s2c_wait_us.p50", pct_us(span(SpanKind::kS2cWait), 50), "us"},
      {"net.s2c_wait_us.p99", pct_us(span(SpanKind::kS2cWait), 99), "us"},
      {"net.frames_per_writev",
       ratio(static_cast<double>(net1.frames_sent - net0.frames_sent),
             static_cast<double>(net1.writev_calls - net0.writev_calls)), "count"},
      {"net.frames_tx_per_mcast",
       static_cast<double>(net1.frames_sent - net0.frames_sent) / msgs, "count"},
      {"net.bytes_tx_per_mcast",
       static_cast<double>(net1.bytes_sent - net0.bytes_sent) / msgs, "B"},
      {"net.dropped", static_cast<double>(net1.messages_dropped + gen_net.messages_dropped), "count"},
      {"net.corrupt_frames", static_cast<double>(net1.corrupt_frames + gen_net.corrupt_frames), "count"},
      {"storage.append_us.p50", pct_us(span(SpanKind::kStorageAppend), 50), "us"},
      {"storage.flush_us.p50", pct_us(flushes, 50), "us"},
      {"storage.flush_us.p99", pct_us(flushes, 99), "us"},
      {"storage.records_per_flush", ratio(static_cast<double>(d.flush_records),
                                          static_cast<double>(flushes.size())), "count"},
      {"storage.fsyncs_per_kmsg", static_cast<double>(fsync1 - fsync0) * 1000 / msgs, "count"},
      {"storage.log_bytes_per_msg", static_cast<double>(d.log_bytes) / msgs, "B"},
      {"storage.ckpt_bytes_per_msg", static_cast<double>(d.ckpt_bytes) / msgs, "B"},
      {"storage.checkpoint_us.p99", pct_us(span(SpanKind::kStorageCkpt), 99, false), "us"},
      {"storage.recover_s", store_recover_s, "s"},
      {"replica.coord_msg_self_us.p50", pct_us(span(SpanKind::kCoordMsg), 50), "us"},
      {"replica.coord_msg_self_us.p99", pct_us(span(SpanKind::kCoordMsg), 99), "us"},
      {"replica.leaf_msg_self_us.p50", pct_us(span(SpanKind::kLeafMsg), 50), "us"},
      {"replica.leaf_msg_self_us.p99", pct_us(span(SpanKind::kLeafMsg), 99), "us"},
      {"replica.s2s_frames_per_mcast", static_cast<double>(d.s2s_messages) / msgs, "count"},
      {"loadgen.lag_p99_ms", percentile(lag_ms, 99), "ms"},
      {"client.gaps_detected", static_cast<double>(gaps), "count"},
      {"trace.mcast_per_s", mcast, "1/s"},
      {"trace.deliver_p50_ms", p50, "ms"},
      {"trace.untraced_mcast_per_s", base_mcast, "1/s"},
      {"trace.untraced_deliver_p50_ms", base_p50, "ms"},
      {"trace.mcast_ratio", ratio(mcast, base_mcast), "ratio"},
      {"trace.deliver_p50_ratio", ratio(p50, base_p50), "ratio"},
  };
  if (!timed.complete || !joins_ok) r.notes.push_back("a traced phase timed out");
  return r;
}

}  // namespace

Report run_workload(const WorkloadSpec& spec, const RunOptions& opt) {
  const Inputs in = make_inputs(spec, opt.seed, opt.seconds);
  return opt.traced ? run_traced(spec, in, opt) : run_untraced(spec, in, opt);
}

}  // namespace perfbench
