// Tracing for the per-layer run, recorded only from the benchmark's own
// code around calls into each module's public API:
//
//   * TracedNode — a Node registered with the runtime in place of the real
//     CoronaServer / ReplicaServer / CoronaClient, which it forwards to
//     (the real node is bound with Node::bind);
//   * TracingSocketRuntime — times send / fanout / send_batch;
//   * TracingEnv — a StorageEnv decorator (log append/flush, checkpoints)
//     over disk::DiskEnv or the in-memory env, handed to GroupStore.
//
// A span's self time is its duration minus its child spans; allocations
// (alloc.h) are split the same way.  Samples live in per-thread buffers
// and are merged after every runtime has stopped.  The tracer's own
// bookkeeping runs in kTracer spans, which are subtracted from the parent
// and never recorded.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "core/client.h"
#include "net/socket_runtime.h"
#include "replica/replica_server.h"
#include "runtime/runtime.h"
#include "serial/message.h"
#include "storage/backend.h"

namespace perfbench {

enum class SpanKind : int {
  kServerBcast,   // core: CoronaServer::on_message(kBcastState/Update)
  kServerJoin,    // core: CoronaServer::on_message(kJoin)
  kServerOther,   // core: other server messages and timers
  kClientDeliver, // core: CoronaClient::on_message(kDeliver)
  kCoordMsg,      // replica: coordinator on_message
  kLeafMsg,       // replica: leaf on_message
  kNetSend,       // net: send/fanout/send_batch from a server runtime
  kStorageAppend, // storage: LogBackend::append
  kStorageFlush,  // storage: LogBackend::flush that committed records
  kStorageCkpt,   // storage: CheckpointBackend::flush of a staged checkpoint
  kC2sWait,       // value: client bcast call -> server on_message entry
  kS2cWait,       // value: server fan-out call -> member on_message entry
  kTracer,        // the tracer's own work; never recorded
  kCount
};

struct SpanSample {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint32_t self_allocs = 0;
};

// Everything the traced run collected, merged over threads.
struct TraceData {
  std::array<std::vector<SpanSample>, static_cast<int>(SpanKind::kCount)>
      spans;
  std::vector<corona::Message> bcast_samples, deliver_samples,
      join_reply_samples;
  std::uint64_t join_reply_bytes = 0, join_replies = 0;
  std::uint64_t flush_records = 0;
  std::uint64_t log_bytes = 0, ckpt_bytes = 0;
  std::uint64_t s2s_messages = 0;
};

class Tracer {
 public:
  static Tracer& get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool v) { on_.store(v); }
  // Timestamps keyed by generator message id, for the wait spans; only
  // ids in [wait_lo, wait_hi) (the open-loop phase) are stamped, so the
  // waits exclude the closed loop's self-inflicted queueing.
  void size_stamps(std::uint64_t max_id, std::uint64_t wait_lo,
                   std::uint64_t wait_hi);
  void stamp_call(std::uint64_t id, std::int64_t t);
  // Collects every thread's buffer; call after all runtimes stopped.
  TraceData collect();
  void reset();

  // -- used by the wrappers ------------------------------------------------
  void record(SpanKind k, const SpanSample& s);
  void record_value(SpanKind k, std::int64_t v);
  void observe_server_message(const corona::Message& m);
  void observe_client_message(const corona::Message& m);
  void observe_send(const corona::Message& m, bool to_server);
  void add_flush_records(std::size_t n);
  void add_log_bytes(std::size_t n);
  void add_ckpt_bytes(std::size_t n);

  struct ThreadBuf;  // one per recording thread

 private:
  ThreadBuf& buf();

  std::atomic<bool> on_{false};
  std::unique_ptr<std::atomic<std::int64_t>[]> t_call_, t_fanout_;
  std::uint64_t stamps_ = 0, wait_lo_ = 0, wait_hi_ = 0;
  std::atomic<std::uint64_t> epoch_{1};
};

// RAII span on the calling thread (inert while tracing is off).
class Span {
 public:
  explicit Span(SpanKind kind);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  // Re-labels the span before it closes (a flush that committed nothing
  // is dropped with kTracer).
  void relabel(SpanKind kind) { kind_ = kind; }

 private:
  SpanKind kind_;
  bool active_;
};

class TracedNode : public corona::Node {
 public:
  enum class Role { kServer, kClient, kReplica };
  TracedNode(corona::Node* inner, Role role,
             const corona::ReplicaServer* replica = nullptr)
      : inner_(inner), role_(role), replica_(replica) {}

  void on_start() override { inner_->on_start(); }
  void on_message(corona::NodeId from, const corona::Message& m) override;
  void on_timer(std::uint64_t tag) override;

  // Allocations the loop thread had made at the last server entry: the
  // difference across a phase covers frame decode, dispatch, sequencing
  // and encode, everything the server thread allocated.
  std::uint64_t last_allocs() const { return last_allocs_.load(); }

 private:
  corona::Node* inner_;
  Role role_;
  const corona::ReplicaServer* replica_;
  std::atomic<std::uint64_t> last_allocs_{0};
};

class TracingSocketRuntime : public corona::net::SocketRuntime {
 public:
  // `server_side` runtimes record net.send spans, and their sends addressed
  // to a node in `servers` count as server-to-server traffic.
  TracingSocketRuntime(bool server_side, std::set<corona::NodeId> servers)
      : server_side_(server_side), servers_(std::move(servers)) {}

  void send(corona::NodeId from, corona::NodeId to,
            const corona::Message& m) override;
  void send_batch(corona::NodeId from, corona::NodeId to,
                  const std::vector<corona::Message>& ms) override;
  void fanout(corona::NodeId from, const std::vector<corona::NodeId>& to,
              const corona::Message& m) override;

 private:
  bool server_side_;
  std::set<corona::NodeId> servers_;
};

// StorageEnv decorator: every log and the checkpoint store it hands out
// are wrapped, so GroupStore's calls are timed at the backend boundary.
class TracingEnv : public corona::StorageEnv {
 public:
  explicit TracingEnv(corona::StorageEnv* inner);
  ~TracingEnv() override;

  std::unique_ptr<corona::LogBackend> open_log(corona::GroupId id) override;
  void remove_log(corona::GroupId id) override { inner_->remove_log(id); }
  std::vector<corona::GroupId> list_logs() const override {
    return inner_->list_logs();
  }
  corona::CheckpointBackend& checkpoints() override;
  const corona::CheckpointBackend& checkpoints() const override;

 private:
  class Checkpoints;
  corona::StorageEnv* inner_;
  std::unique_ptr<Checkpoints> checkpoints_;
};

// Re-runs Message::encode / decode over observed messages after the run;
// returns {encode ns/op, decode ns/op} (0, 0 without samples).
std::pair<double, double> time_codec(
    const std::vector<corona::Message>& samples);

}  // namespace perfbench
