// One logical shard of the sharded discovery subsystem, in two layers.
//
// ShardRunner is the channel-free core: a *wire-seeded* partition cache
// whose base (level-1) partitions are installed with Preload — decoded
// off kPartitionBlock frames, never derived from the table — plus the
// CandidateValidator the discovery driver also uses. Larger context
// partitions are derived shard-locally through the cache's cost
// planner, whose catalog FinishBatch publishes between batches.
//
// ShardServeLoop is the wire side of a runner process: it receives
// frames from a channel, decodes them, calls the core and encodes the
// replies (kResultBatch chunks carrying exact bit patterns of every
// outcome field, then the kStatsFooter on shutdown).
//
// Determinism: a runner's outcomes are pure functions of (table, batch,
// installed base partitions) — canonical partition values make the
// derived contexts byte-identical to any other derivation site, and
// validation goes through the same CandidateValidator as the driver,
// whose outcomes do not depend on how a batch cuts a level into units —
// so the coordinator's merged output is bit-identical to an unsharded
// run (see ARCHITECTURE.md).
#ifndef AOD_SHARD_SHARD_RUNNER_H_
#define AOD_SHARD_SHARD_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "od/dependency_kind.h"
#include "od/discovery.h"
#include "od/validator_registry.h"
#include "partition/partition_cache.h"
#include "shard/channel.h"
#include "shard/wire.h"

namespace aod {

namespace exec {
class ThreadPool;
}  // namespace exec

namespace shard {

/// The validation configuration a runner needs — the shard-relevant
/// subset of DiscoveryOptions, fixed for the lifetime of the run.
struct ShardRunnerOptions {
  ValidatorKind validator = ValidatorKind::kOptimal;
  /// Raw threshold; CandidateValidator zeroes it for the exact validator.
  double epsilon = 0.1;
  /// Dependency kinds this run may ship to the shard. The serve loop
  /// rejects whole batches carrying any candidate outside the set — a
  /// kind the coordinator never enabled is a protocol violation, not a
  /// skip.
  DependencyKindSet kinds = DependencyKindSet::OdDefault();
  /// Maximum g1 error for kAfd candidates (DiscoveryOptions::afd_error).
  double afd_error = 0.05;
  bool collect_removal_sets = false;
  /// Partition byte budget *per shard*, enforced on the runner's cache
  /// after every batch (0 = unlimited).
  int64_t partition_memory_budget_bytes = 0;
};

class ShardRunner {
 public:
  /// `table` is borrowed and must outlive the runner; `pool` may be
  /// nullptr for serial execution.
  ShardRunner(int shard_id, const EncodedTable* table,
              const ShardRunnerOptions& options, exec::ThreadPool* pool);
  AOD_DISALLOW_COPY_AND_ASSIGN(ShardRunner);

  /// Installs one base partition into the local cache.
  void Preload(AttributeSet attributes, StrippedPartition partition);

  /// Decodes one kPartitionBlock frame (canonical-validated) and
  /// Preloads it — the one place a base frame is turned into a cache
  /// entry.
  Status PreloadBlock(const DecodedFrame& frame);

  /// Validates every candidate (parallel over the batch's validation
  /// units on the pool, CandidateValidator::FormUnits) and returns the
  /// outcomes in batch order.
  std::vector<WireOutcome> ValidateBatch(
      const std::vector<WireCandidate>& batch);

  /// Closes a validated batch: publishes its resident contexts to the
  /// planner catalog and enforces the per-shard budget. Call once after
  /// every ValidateBatch, before the next one — the serve loop does so
  /// after the reply is sent.
  void FinishBatch(const std::vector<WireCandidate>& batch);

  /// The partition-side counters of the kStatsFooter (see wire.h); pure
  /// functions of the validated batches except for the timing field.
  /// frames_served stays 0 here — ShardServeLoop fills it in.
  ShardStatsFooter FooterStats() const;

  const ShardRunnerOptions& options() const { return options_; }

 private:
  void SampleResidency();
  /// One validation unit through the CandidateValidator the discovery
  /// driver also uses, so sharded and unsharded outcomes are
  /// bit-identical; `candidates` is `batch` as the validator reads it.
  void ValidateUnit(const std::vector<WireCandidate>& batch,
                    const std::vector<Candidate>& candidates,
                    std::span<const uint32_t> unit,
                    std::vector<WireOutcome>& outcomes);

  const int shard_id_;
  const EncodedTable* table_;
  const ShardRunnerOptions options_;
  exec::ThreadPool* pool_;
  PartitionCache cache_;
  CandidateValidator validator_;
  /// Bytes released by per-shard budget enforcement so far.
  int64_t bytes_evicted_ = 0;
  /// Residency high-water mark, sampled after every installed base and
  /// every validated batch (quiescent points, so the sample is exact).
  int64_t bytes_peak_ = 0;
  /// Wall time spent deriving context partitions (the shard-side
  /// analogue of the driver's partition_seconds). Counted only when the
  /// requesting candidate found its context unresolved, so cache hits
  /// cost nothing; a waiter racing the computing thread may double-count
  /// the tail of a derivation — like every timing stat, this is outside
  /// the determinism contract.
  std::atomic<int64_t> partition_nanos_{0};
};

/// The serve loop of shard_runner_main: one channel (full duplex), one
/// core. Decodes, calls the core, encodes — nothing else.
class ShardServeLoop {
 public:
  /// `runner` and `channel` are borrowed and must outlive the loop.
  ShardServeLoop(ShardRunner* runner, ShardChannel* channel);
  AOD_DISALLOW_COPY_AND_ASSIGN(ShardServeLoop);

  /// Receives one frame and handles it:
  ///   kPartitionBlock  — PreloadBlock;
  ///   kCandidateBatch  — reject the whole batch if any candidate's kind
  ///                      is outside the configured set, else
  ///                      ValidateBatch, send the completed outcomes
  ///                      back as one or more kResultBatch chunks (the
  ///                      last one carrying the final-chunk flag), then
  ///                      FinishBatch;
  ///   kShutdown        — reply with the kStatsFooter terminal frame and
  ///                      set `*shutdown` (when given): the conversation
  ///                      is over and no further frame should be served.
  /// Any decode or channel failure surfaces as a non-OK Status.
  Status ServeOne(bool* shutdown = nullptr);

  /// Serves frames until the shutdown handshake or a failure.
  Status Serve();

  /// Frames served so far (the footer's cross-check counter); exposed
  /// so shard_runner_main's crash-injection test seam can die at a
  /// deterministic point in the conversation.
  int64_t frames_served() const { return frames_served_; }

 private:
  Status HandleCandidateBatch(const DecodedFrame& frame);

  ShardRunner* const runner_;
  ShardChannel* const channel_;
  int64_t frames_served_ = 0;
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_SHARD_RUNNER_H_
