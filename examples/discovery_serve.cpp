// Scenario: run approximate-OD discovery as a long-lived local service.
//
// Starts a DiscoveryServer on 127.0.0.1 and serves jobs until SIGTERM
// or SIGINT, then drains: in-flight jobs finish and deliver their
// results while new submissions are refused with kShuttingDown. Pair it
// with `csv_discovery --server=127.0.0.1:PORT` or the serve::
// DiscoveryClient API.
//
//   ./examples/discovery_serve [options]
//     --port=N              listen port (0 = ephemeral, printed at start)
//     --threads=N           shared validation pool width (0 = all cores)
//     --max-queue=N         queued jobs before kOverloaded (default 8)
//     --max-running=N       jobs executing concurrently (default 2)
//     --max-inflight=N      queued+running jobs per client (default 4)
//     --max-job-seconds=S   hard wall-clock cap per job (0 = uncapped)
//     --max-connections=N   concurrent clients (default 64)
//     --table-cache=N       tables kept warm across jobs (default 8)
//     --idle-timeout=S      drop silent connections after S (0 = never)
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "serve/server.h"

using namespace aod;

namespace {

// SIGTERM/SIGINT flip this; the main loop notices and drains. Signal
// handlers may only touch lock-free atomics, so the actual RequestDrain
// call happens on the main thread.
volatile std::sig_atomic_t g_stop = 0;

void HandleStop(int) { g_stop = 1; }

struct Args {
  serve::ServerOptions server;
  bool ok = true;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      size_t len = std::string(prefix).size();
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--port=")) {
      args.server.port = static_cast<uint16_t>(std::atoi(v));
    } else if (const char* v = value_of("--threads=")) {
      args.server.num_threads = std::atoi(v);
    } else if (const char* v = value_of("--max-queue=")) {
      args.server.max_queue_depth = std::atoi(v);
    } else if (const char* v = value_of("--max-running=")) {
      args.server.max_running_jobs = std::atoi(v);
    } else if (const char* v = value_of("--max-inflight=")) {
      args.server.max_inflight_per_client = std::atoi(v);
    } else if (const char* v = value_of("--max-job-seconds=")) {
      args.server.max_job_seconds = std::atof(v);
    } else if (const char* v = value_of("--max-connections=")) {
      args.server.max_connections = std::atoi(v);
    } else if (const char* v = value_of("--table-cache=")) {
      args.server.table_cache_capacity =
          static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value_of("--idle-timeout=")) {
      args.server.idle_timeout_seconds = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      args.ok = false;
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (!args.ok) return 2;

  Result<std::unique_ptr<serve::DiscoveryServer>> server =
      serve::DiscoveryServer::Start(args.server);
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }

  std::signal(SIGTERM, HandleStop);
  std::signal(SIGINT, HandleStop);

  std::printf("discovery_serve: listening on 127.0.0.1:%u "
              "(queue %d, running %d, %s pool)\n",
              static_cast<unsigned>((*server)->port()),
              args.server.max_queue_depth, args.server.max_running_jobs,
              args.server.num_threads == 0 ? "all-cores"
                                           : "fixed-width");
  std::fflush(stdout);

  // Park until a stop signal. The server's own threads do all the work;
  // this loop exists only to notice g_stop promptly.
  while (!g_stop) {
    struct timespec ts = {0, 100 * 1000 * 1000};  // 100ms
    nanosleep(&ts, nullptr);
  }

  std::printf("discovery_serve: draining (%d jobs in flight)\n",
              (*server)->active_jobs());
  std::fflush(stdout);
  (*server)->RequestDrain();
  (*server)->Shutdown();

  serve::ServerStats stats = (*server)->stats();
  std::printf(
      "discovery_serve: done. %lld jobs served (%lld rejected), "
      "%lld connections (%lld refused, %lld dropped), "
      "table cache %lld hits / %lld misses, "
      "table refs %lld resolved / %lld unknown\n",
      static_cast<long long>(stats.jobs_admitted),
      static_cast<long long>(stats.jobs_rejected),
      static_cast<long long>(stats.connections_accepted),
      static_cast<long long>(stats.connections_refused),
      static_cast<long long>(stats.connections_dropped),
      static_cast<long long>(stats.table_cache_hits),
      static_cast<long long>(stats.table_cache_misses),
      static_cast<long long>(stats.table_refs_resolved),
      static_cast<long long>(stats.table_refs_unknown));
  return 0;
}
