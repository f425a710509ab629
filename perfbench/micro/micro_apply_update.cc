// Microbenchmark (google-benchmark): SharedState::apply of one update.
//
// Replaces BM_ApplyUpdate of bench/micro_shared_state.cc, which builds each
// record, payload included, inside the timed loop and so times a payload
// allocation and fill rather than apply.  Here the records are built before
// timing and only the seq is rewritten per iteration.  The other
// shared-state micros run from bench/micro_shared_state.cc unchanged.
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

void BM_ApplyUpdate(benchmark::State& state) {
  constexpr std::size_t kBatch = 4096;
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::vector<UpdateRecord> batch;
  for (std::size_t i = 0; i < kBatch; ++i) batch.push_back(rec(i + 1, bytes));
  SharedState s;
  SeqNo seq = 0;
  std::size_t next = 0;
  for (auto _ : state) {
    UpdateRecord& r = batch[next++];
    r.seq = ++seq;
    s.apply(r);
    if (next == kBatch) {
      state.PauseTiming();
      s.reduce_to(s.head_seq());
      next = 0;
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(seq * bytes));
}
BENCHMARK(BM_ApplyUpdate)->Arg(100)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace corona

BENCHMARK_MAIN();
