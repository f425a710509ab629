#include "trace.h"

#include <algorithm>
#include <mutex>

#include "alloc.h"
#include "inputs.h"
#include "stats.h"

namespace perfbench {

using corona::Message;
using corona::MsgType;
using corona::NodeId;

namespace {

constexpr std::size_t kBcastSamples = 64;
constexpr std::size_t kDeliverSamples = 64;
constexpr std::size_t kJoinReplySamples = 8;

struct Frame {
  std::int64_t start_ns;
  std::uint64_t start_allocs;
  std::int64_t child_ns = 0;
  std::uint64_t child_allocs = 0;
};
thread_local std::vector<Frame> t_stack;

}  // namespace

struct Tracer::ThreadBuf {
  TraceData data;
};

namespace {
std::mutex g_bufs_mu;
std::vector<std::unique_ptr<Tracer::ThreadBuf>>& all_bufs() {
  static std::vector<std::unique_ptr<Tracer::ThreadBuf>> bufs;
  return bufs;
}
thread_local Tracer::ThreadBuf* t_buf = nullptr;
thread_local std::uint64_t t_buf_epoch = 0;
}  // namespace

Tracer& Tracer::get() {
  static Tracer t;
  return t;
}

Tracer::ThreadBuf& Tracer::buf() {
  const std::uint64_t e = epoch_.load();
  if (t_buf == nullptr || t_buf_epoch != e) {
    auto b = std::make_unique<ThreadBuf>();
    t_buf = b.get();
    t_buf_epoch = e;
    std::lock_guard<std::mutex> lock(g_bufs_mu);
    all_bufs().push_back(std::move(b));
  }
  return *t_buf;
}

void Tracer::size_stamps(std::uint64_t max_id, std::uint64_t wait_lo,
                         std::uint64_t wait_hi) {
  stamps_ = max_id + 1;
  wait_lo_ = wait_lo;
  wait_hi_ = wait_hi;
  t_call_ = std::make_unique<std::atomic<std::int64_t>[]>(stamps_);
  t_fanout_ = std::make_unique<std::atomic<std::int64_t>[]>(stamps_);
  for (std::uint64_t i = 0; i < stamps_; ++i) {
    t_call_[i].store(0);
    t_fanout_[i].store(0);
  }
}

void Tracer::stamp_call(std::uint64_t id, std::int64_t t) {
  if (on() && id >= wait_lo_ && id < wait_hi_) {
    t_call_[id].store(t, std::memory_order_relaxed);
  }
}

void Tracer::record(SpanKind k, const SpanSample& s) {
  buf().data.spans[static_cast<int>(k)].push_back(s);
}

void Tracer::record_value(SpanKind k, std::int64_t v) {
  SpanSample s;
  s.self_ns = s.total_ns = v;
  record(k, s);
}

void Tracer::observe_server_message(const Message& m) {
  if (m.type != MsgType::kBcastState && m.type != MsgType::kBcastUpdate) {
    return;
  }
  const std::uint64_t id = payload_id(m.payload);
  if (id != 0 && id < stamps_) {
    const std::int64_t t0 = t_call_[id].load(std::memory_order_relaxed);
    if (t0 != 0) record_value(SpanKind::kC2sWait, now_ns() - t0);
  }
  auto& d = buf().data;
  if (d.bcast_samples.size() < kBcastSamples) d.bcast_samples.push_back(m);
}

void Tracer::observe_client_message(const Message& m) {
  auto& d = buf().data;
  if (m.type == MsgType::kDeliver) {
    const std::uint64_t id = payload_id(m.payload);
    if (id != 0 && id < stamps_) {
      const std::int64_t t0 = t_fanout_[id].load(std::memory_order_relaxed);
      if (t0 != 0 && t_call_[id].load(std::memory_order_relaxed) != 0) {
        record_value(SpanKind::kS2cWait, now_ns() - t0);
      }
    }
    if (d.deliver_samples.size() < kDeliverSamples) {
      d.deliver_samples.push_back(m);
    }
  } else if (m.type == MsgType::kJoinReply) {
    d.join_reply_bytes += m.wire_size();
    ++d.join_replies;
    if (d.join_reply_samples.size() < kJoinReplySamples) {
      d.join_reply_samples.push_back(m);
    }
  }
}

void Tracer::observe_send(const Message& m, bool to_server) {
  if (to_server) ++buf().data.s2s_messages;
  if (m.type != MsgType::kDeliver) return;
  const std::uint64_t id = payload_id(m.payload);
  if (id == 0 || id >= stamps_) return;
  // First fan-out call only (a leaf re-sending on retransmit keeps the
  // original stamp).
  std::int64_t expected = 0;
  t_fanout_[id].compare_exchange_strong(expected, now_ns(),
                                        std::memory_order_relaxed);
}

void Tracer::add_flush_records(std::size_t n) {
  if (on()) buf().data.flush_records += n;
}
void Tracer::add_log_bytes(std::size_t n) {
  if (on()) buf().data.log_bytes += n;
}
void Tracer::add_ckpt_bytes(std::size_t n) {
  if (on()) buf().data.ckpt_bytes += n;
}

TraceData Tracer::collect() {
  TraceData out;
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  for (const auto& b : all_bufs()) {
    const TraceData& d = b->data;
    for (int k = 0; k < static_cast<int>(SpanKind::kCount); ++k) {
      out.spans[k].insert(out.spans[k].end(), d.spans[k].begin(),
                          d.spans[k].end());
    }
    auto take = [](std::vector<Message>& dst, const std::vector<Message>& src,
                   std::size_t cap) {
      for (const Message& m : src) {
        if (dst.size() < cap) dst.push_back(m);
      }
    };
    take(out.bcast_samples, d.bcast_samples, kBcastSamples);
    take(out.deliver_samples, d.deliver_samples, kDeliverSamples);
    take(out.join_reply_samples, d.join_reply_samples, kJoinReplySamples);
    out.join_reply_bytes += d.join_reply_bytes;
    out.join_replies += d.join_replies;
    out.flush_records += d.flush_records;
    out.log_bytes += d.log_bytes;
    out.ckpt_bytes += d.ckpt_bytes;
    out.s2s_messages += d.s2s_messages;
  }
  return out;
}

void Tracer::reset() {
  std::lock_guard<std::mutex> lock(g_bufs_mu);
  all_bufs().clear();
  epoch_.fetch_add(1);
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

Span::Span(SpanKind kind) : kind_(kind), active_(Tracer::get().on()) {
  if (!active_) return;
  t_stack.push_back(Frame{now_ns(), thread_allocs()});
}

Span::~Span() {
  if (!active_ || t_stack.empty()) return;
  const Frame f = t_stack.back();
  t_stack.pop_back();
  const std::int64_t total = now_ns() - f.start_ns;
  const std::uint64_t allocs = thread_allocs() - f.start_allocs;
  if (kind_ != SpanKind::kTracer) {
    SpanSample s;
    s.total_ns = total;
    s.self_ns = total - f.child_ns;
    s.self_allocs = static_cast<std::uint32_t>(allocs - f.child_allocs);
    Tracer::get().record(kind_, s);
  }
  if (!t_stack.empty()) {
    // Charge the child and the recording above to the parent's children,
    // so the parent's self figures exclude the tracer's own work.
    t_stack.back().child_ns += now_ns() - f.start_ns;
    t_stack.back().child_allocs += thread_allocs() - f.start_allocs;
  }
}

// ---------------------------------------------------------------------------
// Wrappers
// ---------------------------------------------------------------------------

void TracedNode::on_message(NodeId from, const Message& m) {
  Tracer& tr = Tracer::get();
  if (role_ != Role::kClient) {
    last_allocs_.store(thread_allocs(), std::memory_order_relaxed);
  }
  if (!tr.on()) {
    inner_->on_message(from, m);
    return;
  }
  SpanKind kind = SpanKind::kClientDeliver;
  switch (role_) {
    case Role::kServer:
      kind = (m.type == MsgType::kBcastState ||
              m.type == MsgType::kBcastUpdate)
                 ? SpanKind::kServerBcast
                 : m.type == MsgType::kJoin ? SpanKind::kServerJoin
                                            : SpanKind::kServerOther;
      break;
    case Role::kReplica:
      kind = replica_->is_coordinator() ? SpanKind::kCoordMsg
                                        : SpanKind::kLeafMsg;
      break;
    case Role::kClient:
      kind = SpanKind::kClientDeliver;
      break;
  }
  Span outer(kind == SpanKind::kClientDeliver && m.type != MsgType::kDeliver
                 ? SpanKind::kTracer
                 : kind);
  {
    Span t(SpanKind::kTracer);
    if (role_ == Role::kClient) {
      tr.observe_client_message(m);
    } else {
      tr.observe_server_message(m);
    }
  }
  inner_->on_message(from, m);
}

void TracedNode::on_timer(std::uint64_t tag) {
  Span s(role_ == Role::kServer    ? SpanKind::kServerOther
         : role_ == Role::kReplica ? (replica_->is_coordinator()
                                          ? SpanKind::kCoordMsg
                                          : SpanKind::kLeafMsg)
                                   : SpanKind::kTracer);
  inner_->on_timer(tag);
}

void TracingSocketRuntime::send(NodeId from, NodeId to, const Message& m) {
  if (Tracer::get().on()) {
    Span t(SpanKind::kTracer);
    Tracer::get().observe_send(m, server_side_ && servers_.contains(to));
  }
  Span s(server_side_ ? SpanKind::kNetSend : SpanKind::kTracer);
  SocketRuntime::send(from, to, m);
}

void TracingSocketRuntime::send_batch(NodeId from, NodeId to,
                                      const std::vector<Message>& ms) {
  if (Tracer::get().on()) {
    Span t(SpanKind::kTracer);
    for (const Message& m : ms) {
      Tracer::get().observe_send(m, server_side_ && servers_.contains(to));
    }
  }
  Span s(server_side_ ? SpanKind::kNetSend : SpanKind::kTracer);
  SocketRuntime::send_batch(from, to, ms);
}

void TracingSocketRuntime::fanout(NodeId from, const std::vector<NodeId>& to,
                                  const Message& m) {
  if (Tracer::get().on()) {
    Span t(SpanKind::kTracer);
    for (NodeId n : to) {
      Tracer::get().observe_send(m, server_side_ && servers_.contains(n));
    }
  }
  Span s(server_side_ ? SpanKind::kNetSend : SpanKind::kTracer);
  SocketRuntime::fanout(from, to, m);
}

// ---------------------------------------------------------------------------
// Storage decorator
// ---------------------------------------------------------------------------

namespace {

class TracingLog final : public corona::LogBackend {
 public:
  explicit TracingLog(std::unique_ptr<corona::LogBackend> inner)
      : inner_(std::move(inner)) {}

  void append(corona::Bytes record) override {
    Tracer::get().add_log_bytes(record.size());
    Span s(SpanKind::kStorageAppend);
    inner_->append(std::move(record));
  }
  std::size_t flush() override {
    Span s(SpanKind::kStorageFlush);
    const std::size_t n = inner_->flush();
    if (n == 0) {
      s.relabel(SpanKind::kTracer);
    } else {
      Tracer::get().add_flush_records(n);
    }
    return n;
  }
  void crash() override { inner_->crash(); }
  void drop_prefix(std::size_t n) override { inner_->drop_prefix(n); }
  std::size_t size() const override { return inner_->size(); }
  std::size_t durable_size() const override { return inner_->durable_size(); }
  std::size_t unflushed() const override { return inner_->unflushed(); }
  const corona::Bytes& record(std::size_t i) const override {
    return inner_->record(i);
  }
  std::uint64_t bytes_appended() const override {
    return inner_->bytes_appended();
  }
  std::uint64_t bytes_flushed() const override {
    return inner_->bytes_flushed();
  }
  std::uint64_t pending_bytes() const override {
    return inner_->pending_bytes();
  }
  std::uint64_t commits() const override { return inner_->commits(); }
  std::uint64_t records_flushed() const override {
    return inner_->records_flushed();
  }
  std::size_t max_commit_records() const override {
    return inner_->max_commit_records();
  }

 private:
  std::unique_ptr<corona::LogBackend> inner_;
};

}  // namespace

class TracingEnv::Checkpoints final : public corona::CheckpointBackend {
 public:
  explicit Checkpoints(corona::CheckpointBackend& inner) : inner_(inner) {}

  void put(const std::string& key, corona::Bytes blob) override {
    Tracer::get().add_ckpt_bytes(blob.size());
    staged_ = true;
    inner_.put(key, std::move(blob));
  }
  void erase(const std::string& key) override {
    staged_ = true;
    inner_.erase(key);
  }
  void flush() override {
    Span s(staged_ ? SpanKind::kStorageCkpt : SpanKind::kTracer);
    staged_ = false;
    inner_.flush();
  }
  void crash() override { inner_.crash(); }
  std::optional<corona::Bytes> get(const std::string& key) const override {
    return inner_.get(key);
  }
  std::optional<corona::Bytes> get_durable(
      const std::string& key) const override {
    return inner_.get_durable(key);
  }
  std::vector<std::string> durable_keys() const override {
    return inner_.durable_keys();
  }
  std::uint64_t bytes_committed() const override {
    return inner_.bytes_committed();
  }

 private:
  corona::CheckpointBackend& inner_;
  bool staged_ = false;
};

TracingEnv::TracingEnv(corona::StorageEnv* inner)
    : inner_(inner),
      checkpoints_(std::make_unique<Checkpoints>(inner->checkpoints())) {}

TracingEnv::~TracingEnv() = default;

std::unique_ptr<corona::LogBackend> TracingEnv::open_log(corona::GroupId id) {
  return std::make_unique<TracingLog>(inner_->open_log(id));
}

corona::CheckpointBackend& TracingEnv::checkpoints() { return *checkpoints_; }
const corona::CheckpointBackend& TracingEnv::checkpoints() const {
  return *checkpoints_;
}

// ---------------------------------------------------------------------------
// Codec re-timing
// ---------------------------------------------------------------------------

std::pair<double, double> time_codec(const std::vector<Message>& samples) {
  if (samples.empty()) return {0.0, 0.0};
  std::vector<corona::Bytes> wires;
  for (const Message& m : samples) wires.push_back(m.encode());
  constexpr std::int64_t kMinNs = 40'000'000;
  auto time_loop = [&](auto&& op) {
    std::uint64_t ops = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t = t0;
    while (t - t0 < kMinNs) {
      for (std::size_t i = 0; i < samples.size(); ++i) op(i);
      ops += samples.size();
      t = now_ns();
    }
    return static_cast<double>(t - t0) / static_cast<double>(ops);
  };
  std::size_t sink = 0;
  const double enc = time_loop([&](std::size_t i) {
    corona::Bytes w = samples[i].encode();
    sink += w.size();
  });
  const double dec = time_loop([&](std::size_t i) {
    auto r = corona::Message::decode(wires[i]);
    sink += r.is_ok() ? 1 : 0;
  });
  if (sink == 0) return {0.0, 0.0};
  return {enc, dec};
}

}  // namespace perfbench
