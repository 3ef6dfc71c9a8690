#include "shard/supervisor.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <system_error>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "exec/thread_pool.h"
#include "shard/coordinator.h"

extern char** environ;

namespace aod {
namespace shard {
namespace {

/// SplitMix64 finalizer — the repo's standard cheap mixer. Backoff
/// jitter must be deterministic (no wall-clock seed) so a fault
/// schedule replays identically run to run.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr double kInfinity = std::numeric_limits<double>::infinity();
/// Backoff ceiling: a respawn is never parked longer than this.
constexpr double kMaxBackoffSeconds = 2.0;
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
                                 const ShardBootstrap* bootstrap,
                                 const ShardTransportOptions* transport,
                                 const ShardSupervisionOptions& supervision,
                                 exec::ThreadPool* pool)
    : shard_id_(shard_id),
      bootstrap_(bootstrap),
      transport_(transport),
      supervision_(supervision),
      pool_(pool) {
  AOD_CHECK(bootstrap != nullptr && transport != nullptr);
}

ShardSupervisor::~ShardSupervisor() {
  // Owners run the Finish sequence first; this is the last-resort path
  // (e.g. a failed Create) — kill and reap whatever is still alive so a
  // supervisor never leaks a child.
  Teardown();
}

double ShardSupervisor::DeadlineRemaining() const {
  if (supervision_.run_deadline ==
      std::chrono::steady_clock::time_point::min()) {
    return kInfinity;
  }
  return std::chrono::duration<double>(supervision_.run_deadline -
                                       std::chrono::steady_clock::now())
      .count();
}

bool ShardSupervisor::DeadlineExpired() const {
  return DeadlineRemaining() <= 0.0;
}

double ShardSupervisor::BoundedIoTimeout() const {
  const double remaining = DeadlineRemaining();
  if (remaining == kInfinity) return transport_->io_timeout_seconds;
  return std::min(transport_->io_timeout_seconds,
                  std::max(kMinIoSeconds, remaining));
}

void ShardSupervisor::AddTypeCounts(FrameType type,
                                    const CodecByteCounts& counts) {
  by_type_[static_cast<size_t>(type)].Add(counts);
}

Status ShardSupervisor::EstablishCurrent() {
  current_ = std::make_unique<Attempt>();
  Attempt* a = current_.get();
  a->id = ++attempt_seq_;

  ChannelOptions copts;
  copts.max_frame_bytes = transport_->max_frame_bytes;
  copts.receive_timeout_seconds = BoundedIoTimeout();
  AOD_ASSIGN_OR_RETURN(
      SpawnedRunner spawned,
      SpawnRunner(transport_->runner_path, BoundedIoTimeout(), copts));
  a->pid = spawned.pid;
  a->channel = transport_->channel_decorator
                   ? transport_->channel_decorator(std::move(spawned.channel))
                   : std::move(spawned.channel);

  // Bootstrap frames the runner process consumes before its serve loop:
  // the validation config (stamped with this attempt's id), then the
  // rank-encoded table — both re-sent verbatim from the coordinator's
  // encode-once bootstrap on every respawn.
  const ShardRunnerOptions& ropts = bootstrap_->runner_options;
  WireRunnerConfig config;
  config.shard_id = static_cast<uint32_t>(shard_id_);
  config.attempt_id = a->id;
  config.validator = static_cast<uint8_t>(ropts.validator);
  config.epsilon = ropts.epsilon;
  config.collect_removal_sets = ropts.collect_removal_sets;
  config.partition_memory_budget_bytes = ropts.partition_memory_budget_bytes;
  config.kinds = ropts.kinds.bits();
  config.afd_error = ropts.afd_error;
  // N children each as wide as the coordinator would oversubscribe the
  // machine N-fold; give each its slice of the pool instead.
  config.num_threads = static_cast<uint32_t>(
      std::max(1, bootstrap_->pool_workers / bootstrap_->num_shards));
  AOD_RETURN_NOT_OK(a->channel->Send(EncodeConfigBlock(config)));
  AOD_RETURN_NOT_OK(a->channel->Send(bootstrap_->table_frame));
  AddTypeCounts(FrameType::kTableBlock, bootstrap_->table_counts);
  if (a->id > 1) ++respawns_;

  for (const std::vector<uint8_t>& base : bootstrap_->base_frames) {
    AOD_RETURN_NOT_OK(a->channel->Send(base));
    ++a->frames_sent;
  }
  AddTypeCounts(FrameType::kPartitionBlock, bootstrap_->base_counts);
  return Status::OK();
}

Status ShardSupervisor::SendBatchOnce(
    const std::vector<WireCandidate>& batch) {
  // A previous level may have torn the attempt down: re-establish
  // before sending.
  if (current_ == nullptr) AOD_RETURN_NOT_OK(EstablishCurrent());
  Attempt* attempt = current_.get();
  CodecByteCounts encode_counts;
  AOD_RETURN_NOT_OK(attempt->channel->Send(
      EncodeCandidateBatch(batch, &encode_counts)));
  ++attempt->frames_sent;
  AddTypeCounts(FrameType::kCandidateBatch, encode_counts);
  return Status::OK();
}

Status ShardSupervisor::ReceiveReply(size_t batch_size,
                                     std::vector<WireOutcome>* out) {
  Attempt* attempt = current_.get();
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
    AOD_ASSIGN_OR_RETURN(std::vector<uint8_t> raw,
                         attempt->channel->Receive());
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(raw));
    AOD_ASSIGN_OR_RETURN(WireResultChunk chunk,
                         DecodeResultBatch(frame, &decode_counts));
    for (WireOutcome& o : chunk.outcomes) out->push_back(std::move(o));
    if (chunk.final_chunk) break;
  }
  AddTypeCounts(FrameType::kResultBatch, decode_counts);
  return Status::OK();
}

Status ShardSupervisor::Degrade() {
  // The base frames are the bootstrap's own encode-once bytes: decoding
  // them here costs the degraded shard what a respawn's runner would
  // pay, and the healthy path keeps no second copy of the bases around.
  auto core = std::make_unique<ShardRunner>(
      shard_id_, bootstrap_->table, bootstrap_->runner_options, pool_);
  for (const std::vector<uint8_t>& bytes : bootstrap_->base_frames) {
    AOD_ASSIGN_OR_RETURN(DecodedFrame frame, DecodeFrame(bytes));
    AOD_RETURN_NOT_OK(core->PreloadBlock(frame));
  }
  fallback_ = std::move(core);
  return Status::OK();
}

void ShardSupervisor::Backoff(int attempt_try,
                              const std::function<bool()>& cancel) {
  const double base = supervision_.retry_backoff_ms / 1000.0;
  if (base <= 0.0) return;
  // Deterministic jitter in [0.5, 1.0): a function of (shard, attempt)
  // only, so two shards backing off together still decollide while the
  // schedule stays replayable.
  const uint64_t mixed =
      Mix64((static_cast<uint64_t>(shard_id_) << 32) ^
            static_cast<uint64_t>(attempt_try));
  const double jitter =
      0.5 + 0.5 * (static_cast<double>(mixed >> 11) / 9007199254740992.0);
  double sleep_seconds =
      base * static_cast<double>(1 << std::min(attempt_try - 1, 6)) * jitter;
  sleep_seconds = std::min(sleep_seconds, kMaxBackoffSeconds);
  const double remaining = DeadlineRemaining();
  if (remaining != kInfinity) {
    sleep_seconds = std::min(sleep_seconds, std::max(0.0, remaining));
  }
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(sleep_seconds));
  // Sliced so a cancellation ends the park promptly.
  while (std::chrono::steady_clock::now() < until) {
    if (cancel && cancel()) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

void ShardSupervisor::Teardown() {
  std::unique_ptr<Attempt> attempt = std::move(current_);
  if (attempt == nullptr) return;
  if (attempt->channel != nullptr) {
    attempt->channel->Close();
    retired_bytes_ += attempt->channel->bytes_sent() +
                      attempt->channel->bytes_received();
  }
  // A torn-down child is not asked nicely: it may be wedged mid-frame,
  // and its replacement is already on the way.
  if (attempt->pid >= 0) {
    KillAndReap(attempt->pid, 0.0);
  }
}

Status ShardSupervisor::Start() {
  Status st = Status::OK();
  for (int attempt_try = 0;; ++attempt_try) {
    if (attempt_try > 0) {
      ++retries_;
      Backoff(attempt_try, {});
      // Backoff is clamped to the remaining run deadline, so on a tight
      // budget the park wakes *at* the deadline; another establish
      // attempt would still cost its bounded I/O floor. Surface the
      // fault that triggered the retry instead of overshooting.
      if (DeadlineExpired()) return st;
    }
    st = EstablishCurrent();
    if (st.ok()) return st;
    if (strict()) return st;  // partial attempt stays for Finish
    Teardown();
    if (DeadlineExpired()) return st;
    if (attempt_try >= supervision_.max_retries) return Degrade();
  }
}

void ShardSupervisor::SendBatch(const std::vector<WireCandidate>& batch) {
  AOD_CHECK_MSG(!pending_send_.has_value(),
                "shard %d: the previous batch's reply was never received",
                shard_id_);
  if (fallback_ != nullptr) return;  // validates in ExecuteLevel
  pending_send_ = SendBatchOnce(batch);
}

Status ShardSupervisor::ExecuteLevel(const std::vector<WireCandidate>& batch,
                                     const std::function<bool()>& cancel,
                                     std::vector<WireOutcome>* out) {
  // The first turn picks up the send SendBatch already made, failed or
  // not; every re-attempt re-sends on its fresh attempt.
  std::optional<Status> sent = std::exchange(pending_send_, std::nullopt);
  Status st = Status::OK();
  for (int attempt_try = 0;; ++attempt_try) {
    if (fallback_ != nullptr) {
      // Degraded: the transport already proved persistently broken, so
      // the shard validates on the coordinator for the rest of the run.
      *out = fallback_->ValidateBatch(batch, cancel);
      fallback_->FinishBatch(batch);
      return Status::OK();
    }
    if (attempt_try > 0) {
      ++retries_;
      Backoff(attempt_try, cancel);
      // Same rule as Start: a backoff that woke at the clamped deadline
      // must not buy one more attempt (each attempt is bounded below by
      // the I/O-timeout floor, so overshoot compounds per retry).
      if (DeadlineExpired()) return st;
    }
    if (sent.has_value()) {
      st = std::move(*sent);
      sent.reset();
    } else {
      st = SendBatchOnce(batch);
    }
    if (st.ok()) {
      std::vector<WireOutcome> buffered;
      st = ReceiveReply(batch.size(), &buffered);
      if (st.ok()) {
        *out = std::move(buffered);
        return st;
      }
    }
    if (strict()) return st;  // fail-stop: the first fault surfaces as-is
    Teardown();
    if (cancel && cancel()) return st;
    if (DeadlineExpired()) return st;
    // Retry budget exhausted: degrade rather than abort the run; the
    // next loop turn validates this level on the coordinator.
    if (attempt_try >= supervision_.max_retries) AOD_RETURN_NOT_OK(Degrade());
  }
}

Status ShardSupervisor::SendShutdown() {
  if (fallback_ != nullptr) return Status::OK();  // footer read directly
  Attempt* a = current_.get();
  if (a == nullptr || a->channel == nullptr) {
    // Nothing live to hand a footer back (a strict-mode half-built
    // attempt): count the footer as missing.
    footer_missing_ = true;
    return Status::OK();
  }
  const Status st = a->channel->Send(EncodeShutdown());
  if (st.ok()) {
    ++a->frames_sent;
    return st;
  }
  if (strict()) return st;
  footer_missing_ = true;  // the footer cannot arrive; tolerated
  return Status::OK();
}

Status ShardSupervisor::CollectFooter() {
  if (fallback_ != nullptr) {
    footer_ = fallback_->FooterStats();
    footer_valid_ = true;
    return Status::OK();
  }
  Attempt* a = current_.get();
  if (a == nullptr || a->channel == nullptr || footer_missing_) {
    footer_missing_ = true;
    return Status::OK();
  }
  // A mid-level abort can leave result frames queued ahead of the
  // footer — a whole level's worth of reply chunks; drain non-footer
  // frames (bounded) instead of misdecoding the first frame seen as the
  // footer.
  Result<ShardStatsFooter> footer =
      Status::Internal("stats footer never arrived");
  for (int drained = 0; drained < 4096; ++drained) {
    Result<std::vector<uint8_t>> raw = a->channel->Receive();
    if (!raw.ok()) {
      footer = raw.status();
      break;
    }
    Result<DecodedFrame> frame = DecodeFrame(*raw);
    if (!frame.ok()) {
      footer = frame.status();
      break;
    }
    if (frame->type != FrameType::kStatsFooter) continue;  // stale reply
    footer = DecodeStatsFooter(*frame);
    break;
  }
  Status st = Status::OK();
  if (!footer.ok()) {
    st = footer.status();
  } else if (footer->attempt_id != a->id) {
    // A footer from a superseded attempt (left in a kernel buffer by an
    // abort) must not masquerade as the live attempt's stats.
    st = Status::Internal("stats footer from a stale shard attempt");
  } else if (footer->frames_served != a->frames_sent) {
    st = Status::Internal(
        "stats footer frame count mismatch: shard served " +
        std::to_string(footer->frames_served) + " of " +
        std::to_string(a->frames_sent) + " sent");
  } else {
    footer_ = *footer;
    footer_valid_ = true;
    return st;
  }
  if (strict()) return st;
  // The shard's level work is already merged; a lost footer costs
  // stats, not correctness — count it instead of failing Finish.
  footer_missing_ = true;
  return Status::OK();
}

void ShardSupervisor::CloseChannels() {
  Attempt* a = current_.get();
  if (a != nullptr && a->channel != nullptr) a->channel->Close();
}

pid_t ShardSupervisor::ReleaseProcess() {
  if (current_ == nullptr) return -1;
  const pid_t pid = current_->pid;
  current_->pid = -1;
  return pid;
}

int64_t ShardSupervisor::bytes_shipped() const {
  int64_t total = retired_bytes_;
  const Attempt* a = current_.get();
  if (a != nullptr && a->channel != nullptr) {
    total += a->channel->bytes_sent() + a->channel->bytes_received();
  }
  return total;
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
