// Instrumentation counters for a discovery run.
//
// The paper's Exp-3 argument rests on *where* discovery time goes (up to
// 99.6% in AOC validation under the iterative validator, cut by 99.8%
// with the optimal one) and Exp-5 on *where in the lattice* dependencies
// are found. These counters make both measurable.
#ifndef AOD_OD_DISCOVERY_STATS_H_
#define AOD_OD_DISCOVERY_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace aod {

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
  // dedicated materialization barrier. Without a pool the prefetch runs
  // inline in the merge loop; that time counts here, not as merge.
  double candidate_wall_seconds = 0.0;
  double validation_wall_seconds = 0.0;
  double partition_wall_seconds = 0.0;
  /// Wall clock of the serial key-ordered merge phase (the cross-shard
  /// reducer when sharding is on), accumulated over levels.
  double merge_wall_seconds = 0.0;
  /// Worker threads the run executed on (1 = serial).
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
  /// raw/wire is the run's observable compression ratio. Folded from
  /// the shard stats footers plus the coordinator's own result decodes.
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
  /// Supervision counters (src/shard/supervisor.h): the recoveries the
  /// run survived. All zero on a fault-free run or with supervision off
  /// (shard_max_retries == 0).
  /// Level re-attempts across all shards (each respawn-and-re-execute
  /// after a fault counts once).
  int64_t shard_retries = 0;
  /// Runner processes respawned after the first per shard.
  int64_t shard_respawns = 0;
  /// Shards that degraded to validation on the coordinator after retry
  /// exhaustion and stayed there for the rest of the run.
  int64_t shard_fallback_shards = 0;
  /// Shards whose stats footer was lost to a tolerated shutdown fault
  /// (their partition-side counters above contribute 0).
  int64_t shard_footers_missing = 0;

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
  /// Index = lattice level (paper Fig. 5 x-axis); level of a dependency is
  /// the level of the node where it was validated (|context| + 1 for OFDs,
  /// |context| + 2 for OCs).
  std::vector<int64_t> ocs_per_level;
  std::vector<int64_t> ofds_per_level;
  std::vector<int64_t> fds_per_level;
  std::vector<int64_t> afds_per_level;
  std::vector<int64_t> nodes_per_level;

  /// Fraction of total runtime spent validating OC candidates. Computed
  /// from summed CPU time, so it can exceed 1 when num_threads > 1.
  double OcValidationShare() const;
  /// Mean lattice level of discovered OCs (paper Exp-5's 5.6 -> 4.3).
  double AverageOcLevel() const;
  int64_t TotalOcs() const;
  int64_t TotalOfds() const;
  int64_t TotalFds() const;
  int64_t TotalAfds() const;

  void RecordOcAtLevel(int level);
  void RecordOfdAtLevel(int level);
  void RecordFdAtLevel(int level);
  void RecordAfdAtLevel(int level);
  void RecordNodesAtLevel(int level, int64_t count);

  std::string ToString() const;
};

}  // namespace aod

#endif  // AOD_OD_DISCOVERY_STATS_H_
