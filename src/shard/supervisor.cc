#include "shard/supervisor.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "shard/coordinator.h"

extern char** environ;

namespace aod {
namespace shard {
namespace {

/// Floor on clamped I/O waits — a receive still gets a beat to drain a
/// frame that already arrived even when the run deadline is on top of us.
constexpr double kMinIoSeconds = 0.05;

}  // namespace

std::string ResolveRunnerPath(const std::string& runner_path) {
  if (!runner_path.empty()) return runner_path;
  if (const char* env = std::getenv("AOD_SHARD_RUNNER")) {
    if (*env != '\0') return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  const std::filesystem::path sibling =
      std::filesystem::path(buf).parent_path() / "shard_runner_main";
  std::error_code ec;
  return std::filesystem::exists(sibling, ec) ? sibling.string() : "";
}

Result<SpawnedRunner> SpawnRunner(const std::string& runner_path,
                                  double timeout_seconds,
                                  const ChannelOptions& options) {
  const std::string path = ResolveRunnerPath(runner_path);
  if (path.empty()) {
    return Status::InvalidArgument(
        "no shard runner: set ShardTransportOptions::runner_path or "
        "$AOD_SHARD_RUNNER, or build shard_runner_main beside the "
        "executable");
  }
  AOD_ASSIGN_OR_RETURN(std::unique_ptr<SocketListener> listener,
                       SocketListener::Bind());
  const std::string endpoint =
      "--connect=127.0.0.1:" + std::to_string(listener->port());
  const std::string timeout = "--timeout=" + std::to_string(timeout_seconds);
  char* argv[] = {const_cast<char*>(path.c_str()),
                  const_cast<char*>(endpoint.c_str()),
                  const_cast<char*>(timeout.c_str()), nullptr};
  SpawnedRunner spawned;
  const int rc = ::posix_spawn(&spawned.pid, path.c_str(), nullptr, nullptr,
                               argv, environ);
  if (rc != 0) {
    return Status::IoError("cannot spawn shard runner '" + path +
                           "': " + std::strerror(rc));
  }
  // A child that exits instead of connecting (wrong binary, crash at
  // startup) is noticed between poll slices, not after the full timeout.
  bool reaped = false;
  Result<int> accepted =
      listener->AcceptFd(timeout_seconds, [&]() -> Status {
        int wstatus = 0;
        if (::waitpid(spawned.pid, &wstatus, WNOHANG) != spawned.pid) {
          return Status::OK();
        }
        reaped = true;
        return Status::IoError(
            "shard runner '" + path + "' exited before connecting (" +
            (WIFEXITED(wstatus)
                 ? "exit status " + std::to_string(WEXITSTATUS(wstatus))
                 : "signal " + std::to_string(WTERMSIG(wstatus))) +
            ")");
      });
  if (!accepted.ok()) {
    if (!reaped) KillAndReap(spawned.pid, 0.0);
    return accepted.status();
  }
  spawned.channel = SocketShardChannel::Adopt(*accepted, options);
  return spawned;
}

Status KillAndReap(pid_t pid, double timeout_seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(std::max(0.0, timeout_seconds)));
  int wstatus = 0;
  bool killed = false;
  for (;;) {
    const pid_t reaped = ::waitpid(pid, &wstatus, killed ? 0 : WNOHANG);
    if (reaped == pid) break;
    if (reaped < 0 && errno == EINTR) continue;
    if (reaped < 0) return Status::IoError("waitpid failed for shard runner");
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      killed = true;
      continue;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (killed && WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) {
    return Status::Internal("shard runner unresponsive; killed");
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal(
        "shard runner exited abnormally (status " +
        std::to_string(WIFEXITED(wstatus) ? WEXITSTATUS(wstatus)
                                          : -WTERMSIG(wstatus)) +
        ")");
  }
  return Status::OK();
}

ShardSupervisor::ShardSupervisor(int shard_id,
                                 const ShardTransportOptions* transport)
    : shard_id_(shard_id), transport_(transport) {
  AOD_CHECK(transport != nullptr);
}

ShardSupervisor::~ShardSupervisor() {
  // Owners run the Finish sequence first; this is the last-resort path
  // (e.g. a failed Create) — kill and reap whatever is still alive so a
  // supervisor never leaks a child.
  if (channel_ != nullptr) channel_->Close();
  if (pid_ >= 0) KillAndReap(pid_, 0.0);
}

double ShardSupervisor::BoundedIoTimeout() const {
  if (transport_->run_deadline ==
      std::chrono::steady_clock::time_point::min()) {
    return transport_->io_timeout_seconds;
  }
  const double remaining =
      std::chrono::duration<double>(transport_->run_deadline -
                                    std::chrono::steady_clock::now())
          .count();
  return std::min(transport_->io_timeout_seconds,
                  std::max(kMinIoSeconds, remaining));
}

void ShardSupervisor::AddTypeCounts(FrameType type,
                                    const CodecByteCounts& counts) {
  by_type_[static_cast<size_t>(type)].Add(counts);
}

Status ShardSupervisor::Start(const ShardBootstrap& bootstrap) {
  ChannelOptions copts;
  copts.max_frame_bytes = transport_->max_frame_bytes;
  copts.receive_timeout_seconds = BoundedIoTimeout();
  AOD_ASSIGN_OR_RETURN(
      SpawnedRunner spawned,
      SpawnRunner(transport_->runner_path, BoundedIoTimeout(), copts));
  pid_ = spawned.pid;
  channel_ = transport_->channel_decorator
                 ? transport_->channel_decorator(std::move(spawned.channel))
                 : std::move(spawned.channel);

  // Bootstrap frames the runner process consumes before its serve loop:
  // the validation config, then the rank-encoded table.
  const ShardRunnerOptions& ropts = bootstrap.runner_options;
  WireRunnerConfig config;
  config.shard_id = static_cast<uint32_t>(shard_id_);
  config.validator = static_cast<uint8_t>(ropts.validator);
  config.epsilon = ropts.epsilon;
  config.collect_removal_sets = ropts.collect_removal_sets;
  config.partition_memory_budget_bytes = ropts.partition_memory_budget_bytes;
  config.kinds = ropts.kinds.bits();
  config.afd_error = ropts.afd_error;
  // N children each as wide as the coordinator would oversubscribe the
  // machine N-fold; give each its slice of the pool instead.
  config.num_threads = static_cast<uint32_t>(
      std::max(1, bootstrap.pool_workers / bootstrap.num_shards));
  AOD_RETURN_NOT_OK(channel_->Send(EncodeConfigBlock(config)));
  AOD_RETURN_NOT_OK(channel_->Send(bootstrap.table_frame));
  AddTypeCounts(FrameType::kTableBlock, bootstrap.table_counts);

  for (const std::vector<uint8_t>& base : bootstrap.base_frames) {
    AOD_RETURN_NOT_OK(channel_->Send(base));
    ++frames_sent_;
  }
  AddTypeCounts(FrameType::kPartitionBlock, bootstrap.base_counts);
  return Status::OK();
}

Status ShardSupervisor::SendBatch(const std::vector<WireCandidate>& batch) {
  CodecByteCounts encode_counts;
  AOD_RETURN_NOT_OK(
      channel_->Send(EncodeCandidateBatch(batch, &encode_counts)));
  ++frames_sent_;
  AddTypeCounts(FrameType::kCandidateBatch, encode_counts);
  return Status::OK();
}

Status ShardSupervisor::ReceiveReply(size_t batch_size,
                                     std::vector<WireOutcome>* out) {
  // Chunked reply: a well-formed reply is at most |batch|+1 chunks
  // (every chunk but the final carries at least one outcome), so a
  // babbling runner is a typed protocol error, not a loop.
  const size_t max_chunks = batch_size + 1;
  size_t chunks = 0;
  CodecByteCounts decode_counts;
  for (;;) {
    if (++chunks > max_chunks) {
      return Status::ParseError("shard result stream never finalized");
    }
    AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, channel_->Receive());
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(raw));
    AOD_ASSIGN_OR_RETURN(WireResultChunk chunk,
                         DecodeResultBatch(frame, &decode_counts));
    for (WireOutcome& o : chunk.outcomes) out->push_back(std::move(o));
    if (chunk.final_chunk) break;
  }
  AddTypeCounts(FrameType::kResultBatch, decode_counts);
  return Status::OK();
}

// A supervisor without a channel is one whose Start failed; the run
// already ends with that failure, so its Finish-phase calls are no-ops.

Status ShardSupervisor::SendShutdown() {
  if (channel_ == nullptr) return Status::OK();
  AOD_RETURN_NOT_OK(channel_->Send(EncodeShutdown()));
  ++frames_sent_;
  return Status::OK();
}

Status ShardSupervisor::CollectFooter() {
  if (channel_ == nullptr) return Status::OK();
  // A mid-level abort can leave result frames queued ahead of the
  // footer — a whole level's worth of reply chunks; drain non-footer
  // frames (bounded) instead of misdecoding the first frame seen as the
  // footer.
  for (int drained = 0; drained < 4096; ++drained) {
    AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, channel_->Receive());
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(raw));
    if (frame.type != FrameType::kStatsFooter) continue;  // stale reply
    AOD_ASSIGN_OR_RETURN(ShardStatsFooter footer, DecodeStatsFooter(frame));
    if (footer.frames_served != frames_sent_) {
      return Status::Internal(
          "stats footer frame count mismatch: shard served " +
          std::to_string(footer.frames_served) + " of " +
          std::to_string(frames_sent_) + " sent");
    }
    footer_ = footer;
    footer_valid_ = true;
    return Status::OK();
  }
  return Status::Internal("stats footer never arrived");
}

void ShardSupervisor::CloseChannels() {
  if (channel_ != nullptr) channel_->Close();
}

pid_t ShardSupervisor::ReleaseProcess() {
  return std::exchange(pid_, -1);
}

int64_t ShardSupervisor::bytes_shipped() const {
  if (channel_ == nullptr) return 0;
  return channel_->bytes_sent() + channel_->bytes_received();
}

CodecByteCounts ShardSupervisor::type_byte_counts(FrameType type) const {
  return by_type_[static_cast<size_t>(type)];
}

int64_t ShardSupervisor::codec_savings() const {
  int64_t total = 0;
  for (const CodecByteCounts& counts : by_type_) {
    total += counts.raw - counts.wire;
  }
  return total;
}

}  // namespace shard
}  // namespace aod
