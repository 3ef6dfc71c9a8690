// One logical shard of the sharded discovery subsystem.
//
// A ShardRunner owns a *wire-seeded* partition cache: its base (level-1)
// partitions arrive as kPartitionBlock frames from the coordinator, not
// from the table, and larger context partitions are derived shard-locally
// through the cache's cost planner, whose catalog the runner publishes
// between batches. Each kCandidateBatch frame it receives is validated
// (in parallel on the shared pool, cooperatively cancellable) and
// answered with kResultBatch chunks carrying exact bit patterns of every
// outcome field.
//
// In-process runners share the EncodedTable by pointer — rank columns are
// immutable — while everything candidate- or partition-shaped crosses the
// channel as bytes. That keeps the seam honest: promoting a runner to its
// own process requires shipping the encoded columns once at startup and
// swapping the channel implementation, nothing else.
//
// Determinism: a runner's outcomes are pure functions of (table, batch,
// shipped base partitions) — canonical partition values make the derived
// contexts byte-identical to any other derivation site, and validation
// goes through the same CandidateValidator as the driver — so the
// coordinator's merged output is bit-identical to an unsharded run (see
// ARCHITECTURE.md).
#ifndef AOD_SHARD_SHARD_RUNNER_H_
#define AOD_SHARD_SHARD_RUNNER_H_

#include <atomic>
#include <functional>
#include <memory>
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
  /// Which supervised (re)establishment this runner serves (see
  /// WireRunnerConfig::attempt_id); echoed in the stats footer so the
  /// coordinator can reject a superseded attempt's footer. Validation
  /// outcomes never depend on it.
  uint32_t attempt_id = 0;
  /// Raw threshold; CandidateValidator zeroes it for the exact validator.
  double epsilon = 0.1;
  /// Dependency kinds this run may ship to the shard. The runner rejects
  /// whole batches carrying any candidate outside the set — a kind the
  /// coordinator never enabled is a protocol violation, not a skip.
  DependencyKindSet kinds = DependencyKindSet::OdDefault();
  /// Maximum g1 error for kAfd candidates (DiscoveryOptions::afd_error).
  double afd_error = 0.05;
  bool collect_removal_sets = false;
  bool enable_sampling_filter = false;
  SamplerConfig sampler_config;
  /// Partition byte budget *per shard*, enforced on the runner's cache
  /// after every batch (0 = unlimited).
  int64_t partition_memory_budget_bytes = 0;
};

class ShardRunner {
 public:
  /// `inbox`/`outbox` are borrowed and must outlive the runner; `pool`
  /// may be nullptr for serial execution.
  ShardRunner(int shard_id, const EncodedTable* table,
              const ShardRunnerOptions& options, ShardChannel* inbox,
              ShardChannel* outbox, exec::ThreadPool* pool);

  /// Receives one *logical* frame from the inbox (kBatch envelopes are
  /// unwrapped transparently; each inner frame is one ServeOne) and
  /// handles it:
  ///   kPartitionBlock  — decode (canonical-validated) and install into
  ///                      the local cache;
  ///   kCandidateBatch  — validate every candidate (parallel over the
  ///                      batch, `cancel` polled between candidates),
  ///                      send back the completed outcomes as one or
  ///                      more kResultBatch chunks — the last one
  ///                      carrying the final-chunk flag — then publish
  ///                      the batch's contexts to the planner catalog
  ///                      and enforce the per-shard budget;
  ///   kShutdown        — reply with the kStatsFooter terminal frame and
  ///                      set `*shutdown` (when given): the conversation
  ///                      is over and no further frame should be served.
  /// Any decode or channel failure surfaces as a non-OK Status.
  Status ServeOne(const std::function<bool()>& cancel = {},
                  bool* shutdown = nullptr);

  /// Serves frames until the shutdown handshake or a failure. The serve
  /// loop of shard_runner_main; in-process coordinators call ServeOne to
  /// keep the one-frame-per-level cadence instead.
  Status Serve(const std::function<bool()>& cancel = {});

  int shard_id() const { return shard_id_; }
  /// Logical frames served so far (the footer's cross-check counter);
  /// exposed so shard_runner_main's crash-injection test seam can die at
  /// a deterministic point in the conversation.
  int64_t frames_served() const { return frames_served_; }

  /// The counters this shard reports in its terminal kStatsFooter frame
  /// (see wire.h), aggregated by the coordinator into DiscoveryStats;
  /// pure functions of the served batches except for the timing field.
  ShardStatsFooter FooterStats() const;

  /// Folds decode-side byte counts produced outside the serve loop into
  /// the footer's raw/wire totals — runner_main decodes the kTableBlock
  /// before the runner exists and credits it here, so the coordinator's
  /// compression-ratio accounting sees the table bytes too.
  void CreditDecodedBytes(const CodecByteCounts& counts) {
    decoded_counts_.Add(counts);
  }

 private:
  Status HandlePartitionBlock(const DecodedFrame& frame);
  Status HandleCandidateBatch(const DecodedFrame& frame,
                              const std::function<bool()>& cancel);
  Status HandleShutdown();
  void SampleResidency();
  /// One validation through the CandidateValidator the discovery driver
  /// also uses, so sharded and unsharded outcomes are bit-identical.
  void ValidateOne(const WireCandidate& candidate, WireOutcome* out);

  const int shard_id_;
  const EncodedTable* table_;
  const ShardRunnerOptions options_;
  ShardChannel* inbox_;
  ShardChannel* outbox_;
  /// Unwraps kBatch envelopes from the inbox so frames_served_ counts
  /// logical frames — the unit the coordinator's cross-check uses.
  LogicalFrameReceiver receiver_;
  exec::ThreadPool* pool_;
  PartitionCache cache_;
  CandidateValidator validator_;
  CodecByteCounts decoded_counts_;
  /// Bytes released by per-shard budget enforcement so far.
  int64_t bytes_evicted_ = 0;
  /// Residency high-water mark, sampled after every installed base and
  /// every served batch (quiescent points, so the sample is exact).
  int64_t bytes_peak_ = 0;
  int64_t frames_served_ = 0;
  /// Wall time spent deriving context partitions (the shard-side
  /// analogue of the driver's partition_seconds). Counted only when the
  /// requesting candidate found its context unresolved, so cache hits
  /// cost nothing; a waiter racing the computing thread may double-count
  /// the tail of a derivation — like every timing stat, this is outside
  /// the determinism contract.
  std::atomic<int64_t> partition_nanos_{0};
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_SHARD_RUNNER_H_
