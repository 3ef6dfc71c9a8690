// Per-shard execution: one spawned runner, fail-stop.
//
// A ShardSupervisor owns one shard's runner process and its channel for
// the whole run. It seeds the runner once (config, table, base
// partitions), ships it one candidate batch per level, receives the
// chunked reply, and at Finish collects the stats footer.
//
// Fail-stop: there is no retry, respawn or validation on the
// coordinator. Any spawn, transport, decode or process fault is
// returned as a typed non-OK Status, and the coordinator ends the run
// with it (DiscoveryResult::shard_status). Every I/O wait is bounded by
// the transport's I/O timeout, clamped at spawn to the time left before
// its run_deadline, so a dead runner is a typed error, never a hang.
//
// Threading: the coordinator's calling thread drives every supervisor
// (Start, then per level SendBatch and ReceiveReply, then the
// Finish-phase calls). A level is split in two so that one thread can
// fan it out: SendBatch ships a shard's batch without waiting, and
// ReceiveReply later receives that batch's reply. The coordinator sends
// every shard's batch before it receives any reply, so the runners
// validate at the same time with no thread added. Send never blocks
// (the channel's writer thread queues the frame), so a shard whose
// reply is not yet read cannot stall another.
#ifndef AOD_SHARD_SUPERVISOR_H_
#define AOD_SHARD_SUPERVISOR_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "shard/channel.h"
#include "shard/shard_runner.h"
#include "shard/wire.h"

namespace aod {
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
/// binds an ephemeral loopback listener of its own — two spawns never
/// adopt each other's connections out of a shared accept queue — spawns
/// the runner pointed at it and accepts its connection, the wait bounded
/// by `timeout_seconds`. A child that exits before connecting fails the
/// spawn at once with a typed IoError naming its exit status; one that
/// never connects is killed and reaped before the timeout error returns.
Result<SpawnedRunner> SpawnRunner(const std::string& runner_path,
                                  double timeout_seconds,
                                  const ChannelOptions& options);

/// The one reap path for runner processes: waits up to `timeout_seconds`
/// (<= 0: not at all) for `pid` to exit, then SIGKILLs it (SIGKILL
/// converges, so the final blocking wait cannot hang). OK for a clean
/// exit 0; otherwise a typed error saying whether the child was killed
/// here or exited abnormally.
Status KillAndReap(pid_t pid, double timeout_seconds);

/// The coordinator's encode-once bootstrap: the frames that seed every
/// shard, encoded (and checksummed) once per run, not once per shard.
/// It lives only until every shard is seeded.
struct ShardBootstrap {
  /// kTableBlock + its codec byte counts, credited per shipment.
  std::vector<uint8_t> table_frame;
  CodecByteCounts table_counts;
  /// The base (level-1) partitions, one kPartitionBlock frame per
  /// column, sent one by one.
  std::vector<std::vector<uint8_t>> base_frames;
  CodecByteCounts base_counts;
  ShardRunnerOptions runner_options;
  int num_shards = 1;
  /// Coordinator pool width, for the per-child thread slice.
  int pool_workers = 1;
};

class ShardSupervisor {
 public:
  /// `transport` is borrowed and must outlive the supervisor.
  ShardSupervisor(int shard_id, const ShardTransportOptions* transport);
  ~ShardSupervisor();
  AOD_DISALLOW_COPY_AND_ASSIGN(ShardSupervisor);

  /// Spawns the runner and ships it the config, the table and the base
  /// frames of `bootstrap`, which is not used after this returns. On
  /// failure whatever was built (a live process, a channel) is kept for
  /// the Finish phase.
  Status Start(const ShardBootstrap& bootstrap);

  /// Ships `batch` without waiting for the reply. Every SendBatch that
  /// returns OK must be followed by ReceiveReply on the same batch before
  /// the next SendBatch.
  Status SendBatch(const std::vector<WireCandidate>& batch);

  /// Receives the chunked reply to the batch of `batch_size` candidates
  /// SendBatch shipped into `out` (ascending slot order). Empty batches
  /// still make the round trip: the request/reply cadence is one frame
  /// per shard per level.
  Status ReceiveReply(size_t batch_size, std::vector<WireOutcome>* out);

  // --- Finish phase (driven by ShardCoordinator::Finish, in order) ---
  /// Ships the kShutdown frame.
  Status SendShutdown();
  /// Drains stale reply frames (bounded) and decodes the stats footer,
  /// validating the served-frame count.
  Status CollectFooter();
  void CloseChannels();
  /// Hands a still-live runner process (or -1) over for the
  /// coordinator's shared-deadline reap; the supervisor forgets the pid.
  pid_t ReleaseProcess();

  // --- Observability (read on the driving thread, between calls) ---
  bool footer_valid() const { return footer_valid_; }
  const ShardStatsFooter& footer() const { return footer_; }
  /// Wire bytes both directions.
  int64_t bytes_shipped() const;
  CodecByteCounts type_byte_counts(FrameType type) const;
  /// Σ (raw − wire) over every frame type's counts.
  int64_t codec_savings() const;

 private:
  /// min(io timeout, time remaining to the run deadline), floored so a
  /// receive still gets a beat to drain an already-arrived frame.
  double BoundedIoTimeout() const;
  void AddTypeCounts(FrameType type, const CodecByteCounts& counts);

  const int shard_id_;
  const ShardTransportOptions* const transport_;

  pid_t pid_ = -1;
  /// Null until the spawn connected.
  std::unique_ptr<ShardChannel> channel_;
  /// Frames sent that the runner serves (bases + batches + shutdown),
  /// cross-checked against the footer.
  int64_t frames_sent_ = 0;

  /// Indexed by FrameType id.
  CodecByteCounts
      by_type_[static_cast<size_t>(FrameType::kPartitionFragment) + 1];

  bool footer_valid_ = false;
  ShardStatsFooter footer_;
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_SUPERVISOR_H_
