// Coordinator of sharded candidate validation (ROADMAP: distributed
// discovery in the spirit of Saxena et al. [8]).
//
// The coordinator owns N shard supervisors — each managing one spawned
// shard_runner_main process, connected over localhost TCP — and the
// shard-assignment rule. The discovery driver keeps its lattice,
// planning phase and serial key-ordered merge; only candidate
// validation crosses the seam:
//
//   construction    the config block, the rank-encoded table and every
//                   base (level-1) partition are serialized once into a
//                   ShardBootstrap and shipped to every shard — shard
//                   caches are wire-seeded, never table-derived. The
//                   bootstrap is freed once every shard is seeded;
//   per level       candidates are split by ShardOf(context) — all
//                   candidates sharing a context land on one shard, so
//                   a context partition is derived (at most) once per
//                   run, by exactly one shard — batched and shipped to
//                   every shard before any reply is read, validated
//                   shard-locally and at the same time, and the
//                   kResultBatch replies are received and folded back
//                   into the driver's outcome slots in shard order;
//   Finish()        the shutdown handshake: a kShutdown frame per
//                   shard, answered by the kStatsFooter terminal frame
//                   carrying the shard's counters, then one
//                   shared-deadline reap pass over every runner process.
//
// Failure contract (fail-stop): any spawn, transport, decode or process
// failure surfaces as a typed non-OK Status from Create, ValidateBatch
// or Finish — never a hang (every wait is timeout-bounded) and never a
// partially applied batch. The driver ends the run with it as
// DiscoveryResult::shard_status; the merged dependencies are exactly
// the levels that finished before the fault.
//
// Determinism: the assignment rule is a pure hash of the context set, a
// runner's outcomes are pure functions of its batch (canonical
// partition values, deterministic planned derivation), and each shard's
// buffered reply is folded in shard order, ascending slots within a
// shard — so sharded discovery output is bit-identical to the unsharded
// run for any shard count and any thread count (gated by
// tests/parallel_determinism_test and tests/shard_process_e2e_test).
#ifndef AOD_SHARD_COORDINATOR_H_
#define AOD_SHARD_COORDINATOR_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "shard/channel.h"
#include "shard/shard_runner.h"
#include "shard/supervisor.h"
#include "shard/wire.h"

namespace aod {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace shard {

struct ShardTransportOptions {
  /// Path to the shard_runner_main binary; empty resolves through
  /// ResolveRunnerPath ($AOD_SHARD_RUNNER, then beside the executable).
  std::string runner_path;
  /// Bound on connects, accepts and every frame receive. A shard that
  /// dies silently surfaces as a typed timeout, never a hang.
  /// ShardSupervisor clamps it to the time left before run_deadline.
  double io_timeout_seconds = 300.0;
  /// Absolute deadline of the discovery run (time_point::min() = none).
  /// When a runner is spawned, its accept timeout and its channel's
  /// receive timeout are clamped to the time remaining, so no single
  /// wait on a dead runner outlasts the run's budget.
  std::chrono::steady_clock::time_point run_deadline =
      std::chrono::steady_clock::time_point::min();
  /// Receiver-side frame size cap (see ChannelOptions).
  int64_t max_frame_bytes = 1LL << 30;
  /// Test seam: wraps every coordinator-side channel endpoint (e.g. in a
  /// fault-injecting decorator). Identity when empty.
  std::function<std::unique_ptr<ShardChannel>(std::unique_ptr<ShardChannel>)>
      channel_decorator;
};

class ShardCoordinator {
 public:
  /// Creates `num_shards` runner processes and ships each the config,
  /// the table and the base partitions. The width of `pool` (nullable)
  /// sets each runner's thread slice.
  /// Fails with a typed Status on any transport or spawn error.
  /// `base_partitions` (optional, one per column) seeds the shards with
  /// already-computed level-1 partitions — the row-shard phase's
  /// stitched bases — instead of recomputing FromColumn per column; they
  /// must be bit-identical to FromColumn (StitchPartitions guarantees
  /// this), so the shipped bytes do not depend on which path produced
  /// them.
  static Result<std::unique_ptr<ShardCoordinator>> Create(
      const EncodedTable* table, int num_shards,
      const ShardRunnerOptions& runner_options,
      const ShardTransportOptions& transport_options, exec::ThreadPool* pool,
      const std::vector<StrippedPartition>* base_partitions = nullptr);

  ~ShardCoordinator();
  AOD_DISALLOW_COPY_AND_ASSIGN(ShardCoordinator);

  /// The shard assignment rule: a pure hash (SplitMix64 finalizer, the
  /// one AttributeSetHash uses) of the candidate's
  /// context set, mod the shard count. Keying by context — not by slot —
  /// colocates every candidate of a context with the one shard that
  /// derives its partition.
  static int ShardOf(uint64_t context_bits, int num_shards);

  /// Validates one level's candidates across the shards: splits
  /// `candidates` by ShardOf, sends every shard its batch, then receives
  /// the replies in shard order (so the runners validate at the same
  /// time, on the calling thread alone), and — only once every shard's
  /// reply decoded cleanly — invokes `fold` per outcome, shard order
  /// outside, ascending slots within a shard. Replies are buffered per
  /// shard while in flight, so nothing is folded on a non-OK return,
  /// which reports the first failure; only Finish may follow it.
  Status ValidateBatch(const std::vector<WireCandidate>& candidates,
                       const std::function<void(WireOutcome)>& fold);

  /// The shutdown handshake: ships kShutdown to every shard, collects
  /// the kStatsFooter terminal frames (validating the served-frame
  /// count), closes the links, and reaps every runner process against
  /// ONE shared deadline — a fleet of wedged children costs one
  /// I/O timeout total, not one per child — with a single SIGKILL
  /// escalation pass. Idempotent; the footer-backed accessors below are
  /// meaningful once this returned. Called by the destructor if the
  /// owner did not (best-effort, status swallowed). A lost footer or an
  /// abnormal child exit is a typed error.
  Status Finish();

  int num_shards() const { return static_cast<int>(supervisors_.size()); }

  /// Frame bytes shipped to and from shard `s` so far (both directions,
  /// as observed from the coordinator side). This is the
  /// post-compression ("wire") volume.
  int64_t bytes_shipped(int s) const;
  int64_t bytes_shipped_total() const;

  /// What bytes_shipped_total would have been with every codec forced
  /// raw: the wire total plus Σ (raw − wire) over type_byte_counts.
  /// Frame types without a codec (config, shutdown, footer) ship raw and
  /// add nothing.
  int64_t bytes_raw_total() const;

  /// Frame-level raw/wire byte counts per frame type, counted at the
  /// coordinator's own sites: table and base frames per shipment,
  /// candidate batches at encode, result chunks at decode — the
  /// per-frame-type breakdown exp8 reports.
  CodecByteCounts type_byte_counts(FrameType type) const;

  /// Every counter of the collected stats footers, summed over the
  /// shards (DiscoveryStats feeds); shards whose footer never arrived
  /// (transport failure) contribute 0, and the identity fields stay 0.
  /// partition_seconds sums the shards' derivation wall time.
  ShardStatsFooter FooterTotals() const;

 private:
  explicit ShardCoordinator(const ShardTransportOptions& transport_options);

  Status Init(const EncodedTable& table, int num_shards,
              const ShardRunnerOptions& runner_options, int pool_workers,
              const std::vector<StrippedPartition>* base_partitions);

  const ShardTransportOptions transport_;
  std::vector<std::unique_ptr<ShardSupervisor>> supervisors_;
  bool finished_ = false;
  Status finish_status_;
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_COORDINATOR_H_
