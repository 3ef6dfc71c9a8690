#include "shard/runner_main.h"

#include <fcntl.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "exec/thread_pool.h"
#include "od/discovery.h"
#include "shard/channel.h"
#include "shard/row_sharding.h"
#include "shard/shard_runner.h"
#include "shard/wire.h"

namespace aod {
namespace shard {
namespace {

int Fail(int code, const char* what, const Status& status) {
  std::fprintf(stderr, "shard_runner_main: %s: %s\n", what,
               status.ToString().c_str());
  return code;
}

/// A received frame plus the bytes its payload view aliases. The bytes
/// member owns the heap buffer, so moving the struct keeps `frame`
/// valid (vector moves preserve the allocation).
struct BootstrapFrame {
  std::vector<uint8_t> bytes;
  DecodedFrame frame;
};

/// Receives and fully validates one frame of the expected type —
/// exactly once; callers decode the payload straight from `frame`.
Result<BootstrapFrame> ReceiveExpected(ShardChannel* channel,
                                       FrameType expected) {
  BootstrapFrame out;
  AOD_ASSIGN_OR_RETURN(out.bytes, channel->Receive());
  AOD_ASSIGN_OR_RETURN(out.frame, DecodeFrame(out.bytes));
  if (out.frame.type != expected) {
    return Status::ParseError("unexpected bootstrap frame type");
  }
  return out;
}

/// Test-only crash injection for the supervised-recovery e2e suite:
/// AOD_TEST_RUNNER_CRASH_BEFORE_FRAME=N makes the runner die abruptly
/// (no footer, no orderly close — what SIGKILL or an OOM kill looks
/// like from the coordinator) just before serving its Nth logical
/// frame. With AOD_TEST_RUNNER_CRASH_ONCE_FLAG=<path> additionally set,
/// only the one runner process that wins the O_EXCL creation of <path>
/// crashes — so a fleet of shards loses exactly one attempt and every
/// respawn runs clean. Returns -1 (never crash) when the seam is off.
int64_t CrashBeforeFrame() {
  const char* env = std::getenv("AOD_TEST_RUNNER_CRASH_BEFORE_FRAME");
  if (env == nullptr) return -1;
  const int64_t frame = std::strtoll(env, nullptr, 10);
  if (const char* flag = std::getenv("AOD_TEST_RUNNER_CRASH_ONCE_FLAG")) {
    const int fd = ::open(flag, O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) return -1;  // a sibling already claimed the one crash
    ::close(fd);
  }
  return frame;
}

}  // namespace

int ShardRunnerMain(int argc, char** argv) {
  std::string host;
  uint16_t port = 0;
  bool stdio = false;
  double timeout_seconds = 300.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--connect=", 0) == 0) {
      const std::string endpoint = arg.substr(10);
      const size_t colon = endpoint.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "shard_runner_main: --connect needs HOST:PORT\n");
        return 1;
      }
      host = endpoint.substr(0, colon);
      port = static_cast<uint16_t>(
          std::strtoul(endpoint.c_str() + colon + 1, nullptr, 10));
    } else if (arg == "--stdio") {
      stdio = true;
    } else if (arg.rfind("--timeout=", 0) == 0) {
      timeout_seconds = std::strtod(arg.c_str() + 10, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: shard_runner_main --connect=HOST:PORT | --stdio "
                   "[--timeout=SECONDS]\n");
      return 1;
    }
  }
  if (stdio == (port != 0)) {
    std::fprintf(stderr,
                 "shard_runner_main: exactly one of --connect/--stdio\n");
    return 1;
  }
  // Pipes cannot carry MSG_NOSIGNAL: a coordinator that died must surface
  // as a write error on our side, not as SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  ChannelOptions copts;
  copts.receive_timeout_seconds = timeout_seconds;
  std::unique_ptr<ShardChannel> channel;
  if (stdio) {
    channel = SocketShardChannel::AdoptPair(/*read_fd=*/0, /*write_fd=*/1,
                                            copts);
  } else {
    Result<std::unique_ptr<SocketShardChannel>> connected =
        SocketShardChannel::Connect(host, port, timeout_seconds, copts);
    if (!connected.ok()) return Fail(2, "connect", connected.status());
    channel = std::move(connected).value();
  }

  // Bootstrap: config, then the rank-encoded table. Everything after
  // these two frames is ShardServeLoop's vocabulary.
  Result<BootstrapFrame> config_raw =
      ReceiveExpected(channel.get(), FrameType::kConfigBlock);
  if (!config_raw.ok()) return Fail(2, "config frame", config_raw.status());
  Result<WireRunnerConfig> config = DecodeConfigBlock(config_raw->frame);
  if (!config.ok()) return Fail(2, "config decode", config.status());

  // A config carrying a row range selects the row-shard fragment
  // conversation (partition the table slice, ship fragments, footer)
  // instead of the candidate-validation serve loop.
  if (config->row_end > config->row_begin) {
    Status served = ServeRowShardAfterConfig(*config, channel.get());
    if (!served.ok()) return Fail(3, "row-shard serve", served);
    channel->Close();  // flush the footer before the fds die
    return 0;
  }

  Result<BootstrapFrame> table_raw =
      ReceiveExpected(channel.get(), FrameType::kTableBlock);
  if (!table_raw.ok()) return Fail(2, "table frame", table_raw.status());
  CodecByteCounts table_counts;
  Result<EncodedTable> table = DecodeTableBlock(table_raw->frame,
                                                &table_counts);
  if (!table.ok()) return Fail(2, "table decode", table.status());

  ShardRunnerOptions options;
  options.attempt_id = config->attempt_id;
  options.validator = static_cast<ValidatorKind>(config->validator);
  options.epsilon = config->epsilon;
  options.collect_removal_sets = config->collect_removal_sets;
  options.enable_sampling_filter = config->enable_sampling_filter;
  options.sampler_config.sample_size = config->sampler_sample_size;
  options.sampler_config.reject_margin = config->sampler_reject_margin;
  options.sampler_config.seed = config->sampler_seed;
  options.partition_memory_budget_bytes =
      config->partition_memory_budget_bytes;
  options.kinds = DependencyKindSet(config->kinds);
  options.afd_error = config->afd_error;

  std::unique_ptr<exec::ThreadPool> pool;
  if (config->num_threads > 1) {
    pool = std::make_unique<exec::ThreadPool>(
        static_cast<int>(config->num_threads));
  }

  ShardRunner runner(static_cast<int>(config->shard_id), &*table, options,
                     pool.get());
  ShardServeLoop loop(&runner, channel.get());
  // The table was decoded before the loop existed; fold its raw/wire
  // bytes into the footer so the coordinator's ratio accounting sees
  // the biggest bootstrap frame too.
  loop.CreditDecodedBytes(table_counts);
  Status served;
  const int64_t crash_before = CrashBeforeFrame();
  if (crash_before < 0) {
    served = loop.Serve();
  } else {
    // Same serve loop, with the crash seam between frames: the
    // coordinator has typically already queued the frame we die before
    // serving, so from its side this is a mid-level loss.
    for (;;) {
      if (loop.frames_served() + 1 >= crash_before) ::_exit(57);
      bool shutdown = false;
      served = loop.ServeOne({}, &shutdown);
      if (!served.ok() || shutdown) break;
    }
  }
  if (!served.ok()) return Fail(3, "serve loop", served);
  channel->Close();  // flush the footer before the fds die
  return 0;
}

}  // namespace shard
}  // namespace aod
