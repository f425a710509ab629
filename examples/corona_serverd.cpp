// corona-serverd — a deployable stateful Corona server over real TCP.
//
// Hosts one CoronaServer (or the stateless baseline) on a SocketRuntime and
// serves any client that connects.  Pairs with corona-clientd; see the
// README quickstart for a two-terminal localhost session.
//
//   corona-serverd --listen 127.0.0.1:7700 [--node 1] [--stateless]
//                  [--data-dir PATH] [--recover] [--checkpoint-every N]
//                  [--flush-ms N] [--sync] [--segment-bytes N]
//                  [--client-timeout-ms N] [--keepalive-ms N]
//
// With --data-dir the server runs on the durable backend (storage/disk/):
// every sequenced update is logged to one segmented log shared by all
// groups, checkpoints are written atomically, and a restart with the same
// --data-dir recovers all persistent group state — kill -9 included (see
// docs/STORAGE.md).
//
// lint-file: clock-ok thread-ok — deployable daemon: wall-clock signal
// handling and the blocking main thread live here, outside the protocol
// layers.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "core/log_reduction.h"
#include "core/server.h"
#include "core/stateless_server.h"
#include "net/socket_runtime.h"
#include "storage/disk/disk_env.h"
#include "storage/group_store.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --listen host:port [--node ID] [--stateless]\n"
      "          [--data-dir PATH] [--recover] [--checkpoint-every N]\n"
      "          [--flush-ms N] [--sync] [--segment-bytes N]\n"
      "          [--client-timeout-ms N] [--keepalive-ms N]\n"
      "  --listen host:port      address to accept clients on (required)\n"
      "  --node ID               this server's node id (default 1)\n"
      "  --stateless             run the sequencer-only baseline server\n"
      "  --data-dir PATH         durable storage directory (default: RAM)\n"
      "  --recover               require PATH to exist (restart after a\n"
      "                          crash); without it a fresh dir is created\n"
      "  --checkpoint-every N    checkpoint + reduce a group's log every N\n"
      "                          logged updates (default 1024; 0 = never)\n"
      "  --flush-ms N            async flush period (default 100)\n"
      "  --sync                  acknowledge after the record is durable;\n"
      "                          records that arrive during a commit join\n"
      "                          the next one\n"
      "  --segment-bytes N       log segment rotation size (default 1 MiB)\n"
      "  --client-timeout-ms N   treat members silent for N ms as crashed\n"
      "  --keepalive-ms N        transport pings on idle connections\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace corona;
  using namespace corona::net;

  std::string listen_at;
  std::string data_dir;
  bool recover_required = false;
  std::uint64_t node_id = 1;
  bool stateless = false;
  bool sync_flush = false;
  std::uint64_t checkpoint_every = 1024;
  long flush_ms = 0;
  std::uint64_t segment_bytes = 1u << 20;
  long client_timeout_ms = 0;
  long keepalive_ms = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      listen_at = next();
    } else if (arg == "--node") {
      node_id = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--stateless") {
      stateless = true;
    } else if (arg == "--data-dir") {
      data_dir = next();
    } else if (arg == "--recover") {
      recover_required = true;
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--flush-ms") {
      flush_ms = std::strtol(next(), nullptr, 10);
    } else if (arg == "--sync") {
      sync_flush = true;
    } else if (arg == "--segment-bytes") {
      segment_bytes = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--client-timeout-ms") {
      client_timeout_ms = std::strtol(next(), nullptr, 10);
    } else if (arg == "--keepalive-ms") {
      keepalive_ms = std::strtol(next(), nullptr, 10);
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (listen_at.empty()) {
    usage(argv[0]);
    return 2;
  }
  auto ep = parse_endpoint(listen_at);
  if (!ep.is_ok()) {
    std::fprintf(stderr, "corona-serverd: %s\n",
                 ep.status().to_string().c_str());
    return 2;
  }
  if (recover_required && data_dir.empty()) {
    std::fprintf(stderr, "corona-serverd: --recover requires --data-dir\n");
    return 2;
  }

  SocketRuntimeConfig cfg;
  if (keepalive_ms > 0) cfg.keepalive_interval = keepalive_ms * kMillisecond;
  SocketRuntime rt(cfg);

  // Storage: in-memory by default; durable (storage/disk/) with --data-dir.
  // Constructing the GroupStore over a reopened DiskEnv performs recovery.
  std::unique_ptr<disk::DiskEnv> disk_env;
  std::unique_ptr<GroupStore> store;
  if (!data_dir.empty()) {
    if (recover_required && !disk::dir_exists(data_dir)) {
      std::fprintf(stderr,
                   "corona-serverd: --recover: no data directory at %s\n",
                   data_dir.c_str());
      return 1;
    }
    disk_env = std::make_unique<disk::DiskEnv>(
        disk::DiskEnvConfig{data_dir, segment_bytes});
    store = std::make_unique<GroupStore>(disk_env.get());
    const std::size_t recovered = store->recover().size();
    std::printf("corona-serverd: durable at %s; recovered %zu group(s), "
                "%llu log record(s)\n",
                data_dir.c_str(), recovered,
                static_cast<unsigned long long>(
                    disk_env->stats().recovered_records));
  } else {
    store = std::make_unique<GroupStore>();
  }

  ServerConfig server_cfg;
  if (client_timeout_ms > 0) {
    server_cfg.client_timeout = client_timeout_ms * kMillisecond;
  }
  if (sync_flush) server_cfg.flush = FlushPolicy::kSync;
  if (flush_ms > 0) server_cfg.flush_interval = flush_ms * kMillisecond;
  if (checkpoint_every > 0) {
    server_cfg.reduction_factory = [checkpoint_every] {
      return make_count_threshold(checkpoint_every);
    };
  }
  CoronaServer stateful_server(server_cfg, store.get());
  StatelessServer stateless_server;
  if (stateless) {
    rt.add_node(NodeId{node_id}, &stateless_server);
  } else {
    rt.add_node(NodeId{node_id}, &stateful_server);
  }

  auto port = rt.listen(ep.value().host, ep.value().port);
  if (!port.is_ok()) {
    std::fprintf(stderr, "corona-serverd: %s\n",
                 port.status().to_string().c_str());
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  rt.start();
  std::printf("corona-serverd: node %llu (%s%s) listening on %s:%u\n",
              static_cast<unsigned long long>(node_id),
              stateless ? "stateless" : "stateful",
              data_dir.empty() ? "" : ", durable", ep.value().host.c_str(),
              port.value());
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  rt.stop();
  const auto s = rt.stats();
  std::printf(
      "corona-serverd: shut down; accepts=%llu frames_rx=%llu frames_tx=%llu\n",
      static_cast<unsigned long long>(s.accepts),
      static_cast<unsigned long long>(s.frames_received),
      static_cast<unsigned long long>(s.frames_sent));
  if (disk_env != nullptr) {
    // Final flush so a clean shutdown loses nothing, then the disk ledger.
    // rt.stop() has already joined the commit thread, so it runs alone.
    (void)store->flush();
    const disk::DiskCounters& d = disk_env->stats();
    std::printf(
        "corona-serverd: disk fsyncs=%llu bytes=%llu segments=+%llu/-%llu "
        "checkpoints=%llu ckpt_bytes=%llu recovered=%llu truncated=%llu "
        "dropped=%llu\n",
        static_cast<unsigned long long>(d.fsyncs),
        static_cast<unsigned long long>(d.bytes_written),
        static_cast<unsigned long long>(d.segments_created),
        static_cast<unsigned long long>(d.segments_deleted),
        static_cast<unsigned long long>(d.checkpoints_written),
        static_cast<unsigned long long>(d.checkpoint_bytes),
        static_cast<unsigned long long>(d.recovered_records),
        static_cast<unsigned long long>(d.truncated_bytes),
        static_cast<unsigned long long>(d.corrupt_files_dropped));
  }
  return 0;
}
