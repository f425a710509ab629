// Microbenchmarks (google-benchmark): shared-state maintenance operations —
// the per-message server-side cost Figure 3 shows to be negligible relative
// to fan-out.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/shared_state.h"
#include "core/state_transfer.h"

namespace corona {
namespace {

UpdateRecord rec(SeqNo seq, std::size_t bytes) {
  UpdateRecord u;
  u.seq = seq;
  u.kind = PayloadKind::kUpdate;
  u.object = ObjectId{seq % 8};
  u.data = filler_bytes(bytes);
  u.sender = NodeId{100};
  u.request_id = seq;
  return u;
}

// Times apply alone: the records, payloads included, are built before the
// timed loop and reused round-robin (only the seq is rewritten), so no
// payload allocation or fill lands in the measurement.
void BM_ApplyUpdate(benchmark::State& state) {
  constexpr std::size_t kRing = 4096;  // a multiple of the 8 objects
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<UpdateRecord> ring;
  ring.reserve(kRing);
  for (std::size_t i = 0; i < kRing; ++i) ring.push_back(rec(i + 1, bytes));
  SharedState s;
  SeqNo seq = 0;
  for (auto _ : state) {
    UpdateRecord& r = ring[seq % kRing];
    r.seq = ++seq;
    s.apply(r);
    if (seq % kRing == 0) {
      state.PauseTiming();
      s.reduce_to(s.head_seq());
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(seq * bytes));
}
BENCHMARK(BM_ApplyUpdate)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SnapshotFullState(benchmark::State& state) {
  SharedState s;
  for (SeqNo i = 1; i <= static_cast<SeqNo>(state.range(0)); ++i) {
    s.apply(rec(i, 200));
  }
  for (auto _ : state) {
    auto snap = s.snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_SnapshotFullState)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BuildTransferLastN(benchmark::State& state) {
  SharedState s;
  for (SeqNo i = 1; i <= 10000; ++i) s.apply(rec(i, 200));
  const auto policy = TransferPolicySpec::last_n_updates(
      static_cast<std::uint32_t>(state.range(0)));
  for (auto _ : state) {
    auto t = build_transfer(s, policy);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_BuildTransferLastN)->Arg(10)->Arg(100)->Arg(1000);

void BM_ReduceToHead(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    SharedState s;
    for (SeqNo i = 1; i <= static_cast<SeqNo>(state.range(0)); ++i) {
      s.apply(rec(i, 200));
    }
    state.ResumeTiming();
    s.reduce_to(s.head_seq());
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_ReduceToHead)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace corona

BENCHMARK_MAIN();
