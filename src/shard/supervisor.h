// Per-shard supervision: retry, respawn, degrade.
//
// A ShardSupervisor turns shard failure into a retried, bounded,
// observable event instead of a run-wide abort — the MapReduce
// re-execution model applied to the shard seam:
//
//   retry / respawn   a failed level (or failed establishment) tears the
//                     attempt down and builds a fresh one — a new runner
//                     process, re-seeded from the coordinator's
//                     encode-once bootstrap frames — after an
//                     exponential backoff with deterministic jitter,
//                     up to max_retries re-attempts per level;
//   degradation       once the retry budget is exhausted, the shard's
//                     candidate slices are validated on the coordinator
//                     for the rest of the run: a channel-free ShardRunner
//                     core, seeded by decoding the bootstrap base
//                     frames already in memory, called directly — no
//                     channel, no frame round trip — and its footer is
//                     read directly too.
//
// Attempt identity crosses the wire: each (re)establishment carries a
// fresh attempt_id in its config block, echoed by the runner's stats
// footer, so a superseded attempt's footer is distinguishable from the
// live one.
//
// Strict mode: max_retries == 0 disables both mechanisms — any fault is
// a typed non-OK status, never a hang, never a partially merged level
// (tests/shard_channel_conformance_test pins this with retries pinned
// to 0).
//
// Threading: the coordinator's calling thread drives every supervisor
// (Start, then per level SendBatch and ExecuteLevel, then the
// Finish-phase calls). A level is split in two so that one thread can
// fan it out: SendBatch ships a shard's batch without waiting, and
// ExecuteLevel later receives that batch's reply. The coordinator sends
// every shard's batch before it receives any reply, so the runners
// validate at the same time with no thread added. Send never blocks
// (the channel's writer thread queues the frame), so a shard whose
// reply is not yet read cannot stall another.
#ifndef AOD_SHARD_SUPERVISOR_H_
#define AOD_SHARD_SUPERVISOR_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "shard/channel.h"
#include "shard/shard_runner.h"
#include "shard/wire.h"

namespace aod {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace shard {

struct ShardTransportOptions;

/// A spawned shard_runner_main process and the accepted connection to it.
struct SpawnedRunner {
  pid_t pid = -1;
  std::unique_ptr<SocketShardChannel> channel;
};

/// The one runner-resolution rule: `runner_path` when non-empty, else
/// $AOD_SHARD_RUNNER, else shard_runner_main beside the running
/// executable (/proc/self/exe) when that file exists. Empty when nothing
/// resolves.
std::string ResolveRunnerPath(const std::string& runner_path);

/// The one runner-spawn path: resolves the binary (ResolveRunnerPath),
/// binds an ephemeral loopback listener of its own — concurrent
/// respawns never adopt each other's connections out of a shared accept
/// queue — spawns the runner pointed at it and accepts its connection,
/// the wait bounded by `timeout_seconds`. A child that exits before
/// connecting fails the spawn at once with a typed IoError naming its
/// exit status; one that never connects is killed and reaped before the
/// timeout error returns.
Result<SpawnedRunner> SpawnRunner(const std::string& runner_path,
                                  double timeout_seconds,
                                  const ChannelOptions& options);

/// The one reap path for runner processes: waits up to `timeout_seconds`
/// (<= 0: not at all) for `pid` to exit, then SIGKILLs it (SIGKILL
/// converges, so the final blocking wait cannot hang). OK for a clean
/// exit 0; otherwise a typed error saying whether the child was killed
/// here or exited abnormally.
Status KillAndReap(pid_t pid, double timeout_seconds);

/// The supervision policy, fixed for a run (DiscoveryOptions carries the
/// user-facing knobs).
struct ShardSupervisionOptions {
  /// Re-attempts allowed per level (and for the initial establishment)
  /// before the shard degrades to validation on the coordinator.
  /// 0 = strict mode: no retry, no fallback — fail-stop.
  int max_retries = 2;
  /// Base backoff before the first re-attempt; doubles per attempt with
  /// deterministic (hash-of-(shard, attempt)) jitter, capped at 2s and
  /// at the run deadline.
  double retry_backoff_ms = 25.0;
  /// Absolute deadline of the discovery run (time_point::min() = none).
  /// Every per-attempt receive timeout, accept timeout and backoff
  /// sleep is clamped to the time remaining, so a dead runner cannot
  /// overshoot a budgeted run by the full I/O timeout.
  std::chrono::steady_clock::time_point run_deadline =
      std::chrono::steady_clock::time_point::min();
};

/// The coordinator's encode-once bootstrap: everything a fresh attempt
/// needs to be re-seeded, shared by all shards' supervisors. Frames are
/// encoded (and checksummed) once per run, not once per attempt.
struct ShardBootstrap {
  const EncodedTable* table = nullptr;
  /// kTableBlock + its codec byte counts, credited per shipment.
  std::vector<uint8_t> table_frame;
  CodecByteCounts table_counts;
  /// The base (level-1) partitions, one kPartitionBlock frame per
  /// column, sent one by one. A degraded shard decodes its cache from
  /// these same bytes.
  std::vector<std::vector<uint8_t>> base_frames;
  CodecByteCounts base_counts;
  /// Per-runner options template; the supervisor stamps attempt_id.
  ShardRunnerOptions runner_options;
  int num_shards = 1;
  /// Coordinator pool width, for the per-child thread slice.
  int pool_workers = 1;
};

class ShardSupervisor {
 public:
  /// All pointers are borrowed and must outlive the supervisor.
  ShardSupervisor(int shard_id, const ShardBootstrap* bootstrap,
                  const ShardTransportOptions* transport,
                  const ShardSupervisionOptions& supervision,
                  exec::ThreadPool* pool);
  ~ShardSupervisor();
  AOD_DISALLOW_COPY_AND_ASSIGN(ShardSupervisor);

  /// Establishes and seeds the first attempt, with the full retry +
  /// fallback ladder in supervised mode. In strict mode a failure is
  /// returned as-is and the partially built attempt is kept for the
  /// Finish phase.
  Status Start();

  /// Ships `batch` on the current attempt (establishing one when a
  /// previous level tore it down) and returns without waiting for the
  /// reply. A failure is kept for ExecuteLevel, whose first turn enters
  /// the retry ladder with it. A degraded shard sends nothing. Every
  /// SendBatch must be followed by ExecuteLevel on the same batch before
  /// the next SendBatch.
  void SendBatch(const std::vector<WireCandidate>& batch);

  /// Receives the chunked reply to the batch SendBatch shipped into
  /// `out` (ascending slot order). On failure: teardown, backoff,
  /// respawn, re-send and receive again — up to max_retries
  /// re-attempts — then degradation to validation on the coordinator;
  /// only a failure in strict mode, on cancellation or past the run
  /// deadline surfaces.
  /// Empty batches still make the round trip: the request/reply cadence
  /// is one frame per shard per level. A degraded shard validates
  /// `batch` directly.
  Status ExecuteLevel(const std::vector<WireCandidate>& batch,
                      const std::function<bool()>& cancel,
                      std::vector<WireOutcome>* out);

  // --- Finish phase (driven by ShardCoordinator::Finish, in order) ---
  /// Ships the kShutdown frame on the current attempt.
  Status SendShutdown();
  /// Drains stale reply frames (bounded) and decodes the stats footer,
  /// validating served-frame count and attempt id; a degraded shard's
  /// footer is read off its core. Strict mode returns typed errors;
  /// supervised mode tolerates a lost footer (the level work is already
  /// merged) and counts it instead.
  Status CollectFooter();
  void CloseChannels();
  /// Hands a still-live runner process (or -1) over for the
  /// coordinator's shared-deadline reap; the supervisor forgets the pid.
  pid_t ReleaseProcess();

  // --- Observability (read on the driving thread, between calls) ---
  int shard_id() const { return shard_id_; }
  bool strict() const { return supervision_.max_retries <= 0; }
  int64_t retries() const { return retries_; }
  int64_t respawns() const { return respawns_; }
  bool fell_back() const { return fallback_ != nullptr; }
  bool footer_missing() const { return footer_missing_; }
  bool footer_valid() const { return footer_valid_; }
  const ShardStatsFooter& footer() const { return footer_; }
  /// Wire bytes both directions, live attempt plus every torn-down one.
  int64_t bytes_shipped() const;
  CodecByteCounts type_byte_counts(FrameType type) const;
  /// Σ (raw − wire) over every frame type's counts.
  int64_t codec_savings() const;

 private:
  /// One (re)establishment: a spawned runner process and its channel.
  struct Attempt {
    uint32_t id = 0;
    pid_t pid = -1;
    /// Null until the spawn connected (a strict-mode failed spawn keeps
    /// a channel-less attempt for the Finish phase).
    std::unique_ptr<ShardChannel> channel;
    /// Frames this attempt was sent that its runner serves (bases +
    /// batches + shutdown) — the footer cross-check is per attempt.
    int64_t frames_sent = 0;
  };

  double DeadlineRemaining() const;  // +inf when no deadline
  /// min(io timeout, time remaining to the run deadline), floored so a
  /// receive still gets a beat to drain an already-arrived frame.
  double BoundedIoTimeout() const;
  bool DeadlineExpired() const;
  void AddTypeCounts(FrameType type, const CodecByteCounts& counts);

  /// Builds one attempt (spawn, config + table, base frames) and
  /// installs it as current_ — even on failure, so strict mode keeps the
  /// half-built attempt for the Finish phase and a retry tears it down.
  Status EstablishCurrent();
  /// Ships a level's batch on the current attempt, establishing one
  /// first when none is live.
  Status SendBatchOnce(const std::vector<WireCandidate>& batch);
  /// Receives the chunked reply to a batch of `batch_size` candidates
  /// on the current attempt.
  Status ReceiveReply(size_t batch_size, std::vector<WireOutcome>* out);
  /// Degrades the shard: builds fallback_ from the bootstrap bytes.
  Status Degrade();
  /// Exponential backoff with deterministic jitter before re-attempt
  /// `attempt_try`; returns early on cancel/deadline.
  void Backoff(int attempt_try, const std::function<bool()>& cancel);
  /// Closes the current attempt's channels, kills + reaps a live
  /// process, and folds the attempt's channel byte counters into
  /// retired_bytes_.
  void Teardown();

  const int shard_id_;
  const ShardBootstrap* const bootstrap_;
  const ShardTransportOptions* const transport_;
  const ShardSupervisionOptions supervision_;
  exec::ThreadPool* const pool_;

  std::unique_ptr<Attempt> current_;
  /// Set by SendBatch and consumed by the next ExecuteLevel: the batch
  /// is on the current attempt (OK) or failed to get there.
  std::optional<Status> pending_send_;
  uint32_t attempt_seq_ = 0;
  /// The degraded shard's channel-free core; non-null once the shard
  /// fell back, for the rest of the run.
  std::unique_ptr<ShardRunner> fallback_;

  /// Indexed by FrameType id.
  CodecByteCounts
      by_type_[static_cast<size_t>(FrameType::kPartitionFragment) + 1];
  int64_t retired_bytes_ = 0;

  int64_t retries_ = 0;
  int64_t respawns_ = 0;
  bool footer_missing_ = false;
  bool footer_valid_ = false;
  ShardStatsFooter footer_;
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_SUPERVISOR_H_
