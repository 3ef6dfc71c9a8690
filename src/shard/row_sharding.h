// Row-space sharding: the coordinator side of the fragment map/reduce.
//
// Where the candidate-space coordinator (coordinator.h) splits the
// *lattice* and ships the whole table to every process runner, this
// module splits the *rows*: each shard receives only its contiguous row
// slice (kTableBlock with a global row offset — O(rows / row_shards)
// table bytes per shard instead of O(rows)), partitions the slice
// locally into one rank-keyed PartitionFragment per attribute, and
// ships the fragments back; the class-stitching reducer
// (partition/partition_stitch.h) merges them into the canonical base
// partitions the discovery driver then uses exactly as if it had
// computed them itself. The two axes compose: the stitched bases feed
// either the unsharded driver's cache preload or the candidate-space
// coordinator's bootstrap.
//
// The conversation per shard, with one spawned shard_runner_main:
//
//   coordinator -> runner   kConfigBlock (row range set), kTableBlock
//                           (the row slice), kShutdown
//   runner -> coordinator   one kPartitionFragment frame per attribute,
//                           then the kStatsFooter terminal frame
//
// Sends never block (the socket channel queues them for its writer
// thread), so the coordinator pre-sends the whole conversation, then
// drains the reply. The row phase is fail-stop: shards run
// sequentially, any spawn, transport or decode error — a runner that
// cannot be resolved or started included — aborts the phase with a
// typed Status (surfaced as DiscoveryResult::shard_status), like the
// candidate-space coordinator.
//
// Determinism: fragments are pure functions of (column ranks, range),
// the stitch is a pure function of the fragments, and
// StitchPartitions output is pinned bit-identical to FromColumn on the
// full table — so row-sharded discovery output is bit-identical to
// unsharded for any row_shards × threads point (gated in
// tests/parallel_determinism_test).
#ifndef AOD_SHARD_ROW_SHARDING_H_
#define AOD_SHARD_ROW_SHARDING_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "partition/partition_stitch.h"
#include "partition/stripped_partition.h"
#include "shard/channel.h"
#include "shard/coordinator.h"
#include "shard/wire.h"

namespace aod {
namespace shard {

/// One shard's contiguous row range [begin, end).
struct RowRange {
  int64_t begin = 0;
  int64_t end = 0;
};

/// Balanced contiguous split: shard s gets
/// [num_rows * s / row_shards, num_rows * (s + 1) / row_shards) — ranges
/// tile [0, num_rows) exactly and differ in size by at most one row.
/// Ranges may be empty when row_shards > num_rows.
std::vector<RowRange> AssignRowRanges(int64_t num_rows, int row_shards);

/// Byte accounting of one row-shard phase (DiscoveryStats / exp8 feeds).
struct RowShardStats {
  int row_shards = 0;
  /// Wire bytes of the table-slice frame shipped to each shard — the
  /// O(rows / row_shards) quantity exp8's row-shard dimension reports.
  /// Empty-range shards (skipped conversations) report 0.
  std::vector<int64_t> table_bytes_per_shard;
  /// Raw/wire counts of the sliced table frames (coordinator encode
  /// side) and the fragment frames (coordinator decode side).
  CodecByteCounts slice_counts;
  CodecByteCounts fragment_counts;
  /// Total frame bytes both directions as observed from the coordinator
  /// end of each link, summed over the shards.
  int64_t bytes_shipped_total = 0;
};

/// Runs the whole row-shard phase: assigns ranges, runs one fragment
/// conversation per shard (sequentially, fail-stop) with a spawned
/// runner, and stitches the fragments into one canonical base
/// partition per attribute — bit-identical to
/// StrippedPartition::FromColumn on each column. Only `runner_path`,
/// `io_timeout_seconds` and `max_frame_bytes` are consulted; the run
/// deadline and the channel decorator do not apply to this phase.
/// Empty-range shards are not contacted; their empty fragments are
/// synthesized locally.
Result<std::vector<StrippedPartition>> ComputeRowShardedBases(
    const EncodedTable& table, int row_shards,
    const ShardTransportOptions& transport, RowShardStats* stats = nullptr);

/// Runner side after the config is already decoded (shard_runner_main
/// enters here): receives the kTableBlock slice, checks it against the
/// config's range, computes one fragment per column, ships each as its
/// own frame, answers the kShutdown with a kStatsFooter. Does not close
/// the channel.
Status ServeRowShardAfterConfig(const WireRunnerConfig& config,
                                ShardChannel* channel);

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_ROW_SHARDING_H_
