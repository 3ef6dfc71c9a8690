// Instrumentation counters for a discovery run.
//
// The paper's Exp-3 argument rests on *where* discovery time goes (up to
// 99.6% in AOC validation under the iterative validator, cut by 99.8%
// with the optimal one) and Exp-5 on *where in the lattice* dependencies
// are found. These counters make both measurable.
#ifndef AOD_OD_DISCOVERY_STATS_H_
#define AOD_OD_DISCOVERY_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "od/dependency_kind.h"

namespace aod {

/// What one lattice level contributed to a run.
struct LevelStats {
  /// Nodes merged at this level.
  int64_t nodes = 0;
  /// Dependencies found at this level, indexed by DependencyKind.
  std::array<int64_t, kNumDependencyKinds> found{};

  bool operator==(const LevelStats&) const = default;
};

struct DiscoveryStats {
  double total_seconds = 0.0;
  // CPU time summed across workers: with num_threads > 1 these can add up
  // to far more than the elapsed time (that is the point of parallelism).
  // The *_wall_seconds fields below are what a user actually waits.
  double oc_validation_seconds = 0.0;
  double ofd_validation_seconds = 0.0;
  /// CPU time in the FD/AFD validators (0 unless those kinds are enabled;
  /// their stats lines print only when the kinds actually ran, so the
  /// default-kind report is unchanged).
  double fd_validation_seconds = 0.0;
  double afd_validation_seconds = 0.0;
  double partition_seconds = 0.0;

  // Wall-clock per driver phase, accumulated over levels: candidate
  // generation, candidate validation, and the partition pipeline.
  // Partitions are prefetched on the pool while the merge runs, so
  // partition_wall_seconds counts only the residual synchronization —
  // catalog publication blocking on stragglers plus the explicit waits
  // before budget enforcement and at the end of the run — not a
  // dedicated materialization barrier. In a serial run the prefetch runs
  // inline in the merge loop; that time counts here, not as merge.
  double candidate_wall_seconds = 0.0;
  double validation_wall_seconds = 0.0;
  double partition_wall_seconds = 0.0;
  /// Wall clock of the serial key-ordered merge phase (the cross-shard
  /// reducer when sharding is on), accumulated over levels.
  double merge_wall_seconds = 0.0;
  /// Threads the run executed on: the pool's workers, or 1 for a serial
  /// run (no pool, or a pool of one worker).
  int threads_used = 1;

  /// Logical shards validation was distributed over (0 = unsharded).
  int shards_used = 0;
  /// Frame bytes crossing the shard seam, total and per shard (both
  /// directions: shipped base partitions, candidate batches, results).
  int64_t shard_bytes_shipped = 0;
  std::vector<int64_t> shard_bytes_per_shard;
  /// The same traffic split by codec outcome: what actually crossed the
  /// wire (post-compression; equals shard_bytes_shipped) vs. what the
  /// identical run would have shipped with every codec forced raw —
  /// raw/wire is the run's observable compression ratio. Counted at the
  /// coordinator's own encode and decode sites, so shard_bytes_raw −
  /// shard_bytes_wire equals Σ (bytes_raw − bytes_wire) over
  /// shard_frame_bytes.
  int64_t shard_bytes_raw = 0;
  int64_t shard_bytes_wire = 0;
  /// Frame-level raw/wire bytes by frame type, counted at the
  /// coordinator's encode/decode sites (exp8's per-type breakdown).
  struct FrameTypeBytes {
    std::string frame_type;
    int64_t bytes_raw = 0;
    int64_t bytes_wire = 0;
  };
  std::vector<FrameTypeBytes> shard_frame_bytes;
  /// Row-space sharding of the base-partition phase (0 = off). The
  /// per-shard entry is the wire size of the table-slice frame that
  /// shard received — the O(rows / row_shards) quantity exp8's
  /// row-shard dimension plots; the raw/wire pair covers both the
  /// sliced table frames and the returned fragment frames, so the row
  /// phase's compression ratio is observable separately from the
  /// candidate seam's.
  int row_shards_used = 0;
  std::vector<int64_t> row_shard_bytes_per_shard;
  int64_t row_shard_bytes_shipped = 0;
  int64_t row_shard_bytes_raw = 0;
  int64_t row_shard_bytes_wire = 0;
  /// Always 0: sharded runs are fail-stop, with no retry, respawn or
  /// fallback. Only perfbench's shard-proc layer reads these three; they
  /// go with the shard seam (ROADMAP item 4).
  int64_t shard_retries = 0;
  int64_t shard_respawns = 0;
  int64_t shard_fallback_shards = 0;

  // Exact partition-cache memory accounting (StrippedPartition::bytes(),
  // i.e. CSR payload + object headers). Peak is sampled at level
  // boundaries — the high-water mark eviction policy must fit under;
  // evicted is the total reclaimed by level-based eviction; final is what
  // remained resident when the run ended.
  int64_t partition_bytes_peak = 0;
  int64_t partition_bytes_evicted = 0;
  int64_t partition_bytes_final = 0;

  // Derivation-planner observability: keys derived by executing a
  // cost-based plan, the summed estimated plan cost, and the realized
  // cost (both in scanned rows — realized/estimated close to 1 means the
  // rows_covered proxy is predicting well).
  int64_t planner_derivations = 0;
  int64_t planner_cost_estimated = 0;
  int64_t planner_cost_realized = 0;
  /// Partitions dropped by budgeted eviction (re-derived on demand).
  int64_t partitions_evicted = 0;

  int64_t oc_candidates_validated = 0;
  int64_t ofd_candidates_validated = 0;
  int64_t fd_candidates_validated = 0;
  int64_t afd_candidates_validated = 0;
  /// OC pairs discarded by the candidate-set rule (A not in Cc+(X\{B}) or
  /// B not in Cc+(X\{A})) without touching the data.
  int64_t oc_candidates_pruned = 0;
  int64_t nodes_processed = 0;
  int64_t partitions_computed = 0;

  int levels_processed = 0;
  /// Index = lattice level (paper Fig. 5 x-axis; entry 0 stays empty).
  /// The level of a dependency is the level of the node where it was
  /// validated (|context| + 1 for the target kinds, |context| + 2 for
  /// OCs).
  std::vector<LevelStats> levels;

  /// Fraction of total runtime spent validating OC candidates. Computed
  /// from summed CPU time, so it can exceed 1 when num_threads > 1.
  double OcValidationShare() const;
  /// Mean lattice level of discovered OCs (paper Exp-5's 5.6 -> 4.3).
  double AverageOcLevel() const;
  /// Dependencies of `kind` found over all levels.
  int64_t Total(DependencyKind kind) const;
  int64_t TotalOcs() const { return Total(DependencyKind::kOc); }

  /// The record of `level`, grown on first use.
  LevelStats& Level(int level);

  /// Whether the FD or AFD kind validated any candidate. The text report
  /// and the JSON stats print their FD/AFD lines only then, so a
  /// default-kind (OC/OFD) report keeps the pre-multi-kind format.
  bool FdKindsRan() const {
    return fd_candidates_validated + afd_candidates_validated > 0;
  }

  std::string ToString() const;
};

}  // namespace aod

#endif  // AOD_OD_DISCOVERY_STATS_H_
