// Coordinator of sharded candidate validation (ROADMAP: distributed
// discovery in the spirit of Saxena et al. [8]).
//
// The coordinator owns N shard *supervisors* — each managing one
// spawned shard_runner_main process, connected over localhost TCP — and
// the shard-assignment rule. The discovery driver keeps its lattice,
// planning phase and serial key-ordered merge; only candidate
// validation crosses the seam:
//
//   construction    the config block, the rank-encoded table and every
//                   base (level-1) partition are serialized once into
//                   the shared ShardBootstrap and shipped to every
//                   shard — shard caches are wire-seeded, never
//                   table-derived. The same encoded frames re-seed
//                   every respawned attempt;
//   per level       candidates are split by ShardOf(context) — all
//                   candidates sharing a context land on one shard, so
//                   a context partition is derived (at most) once per
//                   run, by exactly one shard — batched and shipped to
//                   every shard before any reply is read, validated
//                   shard-locally and at the same time, and the
//                   kResultBatch replies are received and folded back
//                   into the driver's outcome slots in shard order;
//   supervision     each shard's level execution runs under its
//                   ShardSupervisor (src/shard/supervisor.h): failures
//                   are retried with backoff and a fresh process, and a
//                   shard whose runner stays broken degrades to
//                   validation on the coordinator — no channel — instead
//                   of aborting the run;
//   Finish()        the shutdown handshake: a kShutdown frame per
//                   shard, answered by the kStatsFooter terminal frame
//                   carrying the shard's counters (a degraded shard's
//                   footer is read off its core), then one
//                   shared-deadline reap pass over every runner process.
//
// Failure contract: with supervision off (supervision.max_retries == 0,
// "strict mode") any transport, decode or process failure surfaces as a
// typed non-OK Status from Create/ValidateBatch/Finish — never a hang
// (receives are timeout-bounded) and never a partially-applied batch.
// With supervision on, a failure surfaces only after the per-level
// retry budget, the backoff ladder and the degraded fallback are all
// exhausted; DiscoveryResult::shard_status is reserved for those truly
// unrecoverable states.
//
// Determinism: the assignment rule is a pure hash of the context set, a
// runner's outcomes are pure functions of its batch (canonical
// partition values, deterministic planned derivation), replayed
// attempts receive byte-identical inputs, a degraded shard validates
// through the same ShardRunner core, and
// exactly one attempt's buffered reply per shard is folded — in shard
// order, ascending slots within a shard — so sharded discovery output
// is bit-identical to the unsharded run for any shard count, any thread
// count and any fault schedule that completes (gated by
// tests/parallel_determinism_test, tests/shard_supervisor_test and
// tests/shard_process_e2e_test).
#ifndef AOD_SHARD_COORDINATOR_H_
#define AOD_SHARD_COORDINATOR_H_

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
  /// dies silently surfaces as a typed timeout, never a hang. Clamped
  /// per wait to the time remaining before supervision.run_deadline
  /// when one is set.
  double io_timeout_seconds = 300.0;
  /// Receiver-side frame size cap (see ChannelOptions).
  int64_t max_frame_bytes = 1LL << 30;
  /// Retry/fallback policy (src/shard/supervisor.h);
  /// supervision.max_retries == 0 is strict fail-stop mode.
  ShardSupervisionOptions supervision;
  /// Test seam: wraps every coordinator-side channel endpoint (e.g. in a
  /// fault-injecting decorator). Identity when empty. A degraded shard
  /// has no channel, so the decorator cannot reach it.
  std::function<std::unique_ptr<ShardChannel>(std::unique_ptr<ShardChannel>)>
      channel_decorator;
};

class ShardCoordinator {
 public:
  /// Creates `num_shards` supervised runner processes and ships each the
  /// config, the table and the base partitions. `pool` (nullable) runs
  /// any degraded shard's validation, and its width sets each runner's
  /// thread slice; both `table` and `pool` are borrowed and must outlive
  /// the coordinator.
  /// Fails with a typed Status on any transport or spawn error that
  /// survives the supervision ladder. `base_partitions` (optional, one
  /// per column) seeds the shards with already-computed level-1
  /// partitions — the row-shard phase's stitched bases — instead of
  /// recomputing FromColumn per column; they must be bit-identical to
  /// FromColumn (StitchPartitions guarantees this), so the shipped
  /// bytes do not depend on which path produced them.
  static Result<std::unique_ptr<ShardCoordinator>> Create(
      const EncodedTable* table, int num_shards,
      const ShardRunnerOptions& runner_options,
      const ShardTransportOptions& transport_options, exec::ThreadPool* pool,
      const std::vector<StrippedPartition>* base_partitions = nullptr);

  ~ShardCoordinator();
  AOD_DISALLOW_COPY_AND_ASSIGN(ShardCoordinator);

  /// The shard assignment rule: a pure hash (SplitMix64 finalizer, the
  /// same AttributeSetHash the cache stripes by) of the candidate's
  /// context set, mod the shard count. Keying by context — not by slot —
  /// colocates every candidate of a context with the one shard that
  /// derives its partition.
  static int ShardOf(uint64_t context_bits, int num_shards);

  /// Validates one level's candidates across the shards: splits
  /// `candidates` by ShardOf, sends every live shard its batch, then
  /// receives the replies in shard order under each shard's supervisor
  /// (so the runners validate at the same time, on the calling thread
  /// alone), and — only once every shard's reply decoded cleanly —
  /// invokes `fold` per outcome, shard order outside, ascending slots
  /// within a shard. Replies are buffered per shard while in flight, so
  /// a retried level folds exactly one attempt's outcomes and nothing is
  /// folded on a non-OK return, which reports the first failing shard
  /// in shard order; only Finish may follow it. Candidates a shard did
  /// not finish before cancellation are simply absent — the driver's
  /// merge treats their slots as undone.
  Status ValidateBatch(const std::vector<WireCandidate>& candidates,
                       const std::function<bool()>& cancel,
                       const std::function<void(WireOutcome)>& fold);

  /// The shutdown handshake: ships kShutdown to every shard, collects
  /// the kStatsFooter terminal frames (validating served-frame count
  /// and attempt id), closes the links, and reaps every runner process
  /// against ONE shared deadline — a fleet of wedged children costs one
  /// I/O timeout total, not one per child — with a single SIGKILL
  /// escalation pass. Idempotent; the footer-backed accessors below are
  /// meaningful once this returned. Called by the destructor if the
  /// owner did not (best-effort, status swallowed). In supervised mode
  /// a lost footer or abnormal child exit is tolerated and counted
  /// (footers_missing) — the merged results are already correct.
  Status Finish();

  int num_shards() const { return static_cast<int>(supervisors_.size()); }

  /// Frame bytes shipped to and from shard `s` so far (both directions,
  /// as observed from the coordinator side, summed over every attempt
  /// ever made for the shard). This is the post-compression ("wire")
  /// volume.
  int64_t bytes_shipped(int s) const;
  int64_t bytes_shipped_total() const;

  /// What bytes_shipped_total would have been with every codec forced
  /// raw: the wire total plus Σ (raw − wire) over type_byte_counts.
  /// Frame types without a codec (config, shutdown, footer) ship raw and
  /// add nothing.
  int64_t bytes_raw_total() const;

  /// Frame-level raw/wire byte counts per frame type, counted at the
  /// coordinator's own sites: table and base frames per shipment (so a
  /// respawn's re-seeding counts again), candidate batches at encode,
  /// result chunks at decode — the per-frame-type breakdown exp8
  /// reports.
  CodecByteCounts type_byte_counts(FrameType type) const;

  /// Every counter of the collected stats footers, summed over the
  /// shards (DiscoveryStats feeds); shards whose footer never arrived
  /// (transport failure) contribute 0, and the identity fields stay 0.
  /// partition_seconds sums the shards' derivation wall time.
  ShardStatsFooter FooterTotals() const;

  // Supervision observability (DiscoveryStats feeds), summed over the
  // shards. Meaningful any time; stable once Finish returned.
  int64_t shard_retries() const;
  int64_t shard_respawns() const;
  /// Shards currently degraded to validation on the coordinator.
  int64_t fallback_shards() const;
  /// Shards whose stats footer was lost to a tolerated shutdown fault.
  int64_t footers_missing() const;

 private:
  ShardCoordinator(const EncodedTable* table,
                   const ShardTransportOptions& transport_options,
                   exec::ThreadPool* pool);

  Status Init(int num_shards, const ShardRunnerOptions& runner_options,
              const std::vector<StrippedPartition>* base_partitions);
  bool strict() const {
    return transport_.supervision.max_retries <= 0;
  }

  const EncodedTable* table_;
  const ShardTransportOptions transport_;
  exec::ThreadPool* pool_;
  /// Encode-once frames + config template shared by every supervisor
  /// (and every respawned attempt).
  ShardBootstrap bootstrap_;
  std::vector<std::unique_ptr<ShardSupervisor>> supervisors_;
  bool finished_ = false;
  Status finish_status_;
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_COORDINATOR_H_
