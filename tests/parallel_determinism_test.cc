// The determinism contract of the parallel driver: DiscoverOds must
// produce bit-identical dependency lists and identical non-timing stats
// for ANY thread count — 1, 2 and 8 workers here — across validators,
// polarity modes and datasets (see ARCHITECTURE.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <iterator>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "flaky_channel.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"
#include "od/discovery.h"
#include "test_util.h"

namespace aod {
namespace {

void AppendDouble(std::string* out, double v) {
  char buf[48];
  // %a is exact (hex mantissa): two doubles fingerprint equal iff their
  // bit patterns are equal.
  std::snprintf(buf, sizeof(buf), "%a,", v);
  *out += buf;
}

void AppendInt(std::string* out, int64_t v) {
  *out += std::to_string(v);
  *out += ',';
}

/// Byte-exact serialization of everything the contract covers: the
/// kind-tagged dependency list in reported order with all payload fields
/// (removal rows included), plus every non-timing stats counter.
std::string Fingerprint(const DiscoveryResult& result) {
  std::string out;
  out += "deps:";
  for (const DiscoveredDependency& d : result.dependencies) {
    AppendInt(&out, static_cast<int64_t>(d.kind));
    AppendInt(&out, static_cast<int64_t>(d.context.bits()));
    AppendInt(&out, d.a);
    AppendInt(&out, d.b);
    AppendInt(&out, d.opposite ? 1 : 0);
    AppendDouble(&out, d.error);
    AppendInt(&out, d.removal_size);
    AppendInt(&out, d.level);
    AppendDouble(&out, d.interestingness);
    for (int32_t r : d.removal_rows) AppendInt(&out, r);
    out += ';';
  }
  const DiscoveryStats& s = result.stats;
  out += "stats:";
  AppendInt(&out, s.oc_candidates_validated);
  AppendInt(&out, s.ofd_candidates_validated);
  AppendInt(&out, s.fd_candidates_validated);
  AppendInt(&out, s.afd_candidates_validated);
  AppendInt(&out, s.oc_candidates_pruned);
  AppendInt(&out, s.nodes_processed);
  AppendInt(&out, s.partitions_computed);
  AppendInt(&out, s.planner_derivations);
  AppendInt(&out, s.planner_cost_estimated);
  AppendInt(&out, s.planner_cost_realized);
  AppendInt(&out, s.levels_processed);
  for (const LevelStats& level : s.levels) {
    out += '|';
    AppendInt(&out, level.nodes);
    for (int64_t found : level.found) AppendInt(&out, found);
  }
  AppendInt(&out, result.timed_out ? 1 : 0);
  return out;
}

struct DeterminismParam {
  const char* dataset;
  ValidatorKind validator;
  bool bidirectional;
};

class ParallelDeterminismTest
    : public ::testing::TestWithParam<DeterminismParam> {};

TEST_P(ParallelDeterminismTest, IdenticalAcrossThreadCounts) {
  const DeterminismParam& p = GetParam();
  Table t = std::string(p.dataset) == "flight"
                ? GenerateFlightTable(700, 8, 5)
                : GenerateNcVoterTable(500, 7, 11);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options;
  options.validator = p.validator;
  options.epsilon = 0.1;
  options.bidirectional = p.bidirectional;
  options.collect_removal_sets = true;

  options.num_threads = 1;
  DiscoveryResult serial = DiscoverOds(enc, options);
  EXPECT_EQ(serial.stats.threads_used, 1);
  const std::string expected = Fingerprint(serial);

  options.num_threads = 2;
  DiscoveryResult two = DiscoverOds(enc, options);
  EXPECT_EQ(two.stats.threads_used, 2);
  EXPECT_EQ(Fingerprint(two), expected);

  // 8 workers via an externally owned, reused pool (the options.pool
  // code path) — two calls on the same pool must both match.
  exec::ThreadPool pool(8);
  options.num_threads = 1;  // overridden by the pool
  options.pool = &pool;
  DiscoveryResult eight = DiscoverOds(enc, options);
  EXPECT_EQ(eight.stats.threads_used, 8);
  EXPECT_EQ(Fingerprint(eight), expected);
  DiscoveryResult again = DiscoverOds(enc, options);
  EXPECT_EQ(Fingerprint(again), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ParallelDeterminismTest,
    ::testing::Values(
        DeterminismParam{"flight", ValidatorKind::kExact, false},
        DeterminismParam{"flight", ValidatorKind::kExact, true},
        DeterminismParam{"flight", ValidatorKind::kIterative, false},
        DeterminismParam{"flight", ValidatorKind::kIterative, true},
        DeterminismParam{"flight", ValidatorKind::kOptimal, false},
        DeterminismParam{"flight", ValidatorKind::kOptimal, true},
        DeterminismParam{"ncvoter", ValidatorKind::kExact, false},
        DeterminismParam{"ncvoter", ValidatorKind::kExact, true},
        DeterminismParam{"ncvoter", ValidatorKind::kIterative, false},
        DeterminismParam{"ncvoter", ValidatorKind::kIterative, true},
        DeterminismParam{"ncvoter", ValidatorKind::kOptimal, false},
        DeterminismParam{"ncvoter", ValidatorKind::kOptimal, true}));

TEST(ParallelDeterminismTest, HardwareConcurrencyRequestMatchesSerial) {
  // num_threads = 0 ("use the hardware") must still honor the contract.
  Table t = GenerateFlightTable(400, 6, 21);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.15;
  options.num_threads = 1;
  std::string expected = Fingerprint(DiscoverOds(enc, options));
  options.num_threads = 0;
  DiscoveryResult hw = DiscoverOds(enc, options);
  EXPECT_EQ(hw.stats.threads_used,
            exec::ThreadPool::HardwareConcurrency());
  EXPECT_EQ(Fingerprint(hw), expected);
}

TEST(ParallelDeterminismTest, SerialRunCountsInlinePrefetchAsPartitionWall) {
  // A serial run — no pool, or a borrowed 1-worker pool, which takes the
  // same path — derives each survivor's partition inline in the merge
  // loop. That time belongs to the partition phase: it contains every
  // derivation's CPU time, so the partition wall clock cannot be smaller.
  // The move is timing-only; the counters match a pooled run.
  EncodedTable enc = EncodeTable(GenerateFlightTable(3000, 8, 5));
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_threads = 4;
  const std::string pooled = Fingerprint(DiscoverOds(enc, options));
  exec::ThreadPool one_worker(1);
  for (exec::ThreadPool* pool : {static_cast<exec::ThreadPool*>(nullptr),
                                 &one_worker}) {
    SCOPED_TRACE(pool == nullptr ? "no pool" : "1-worker pool");
    options.num_threads = 1;
    options.pool = pool;
    DiscoveryResult serial = DiscoverOds(enc, options);
    ASSERT_EQ(serial.stats.threads_used, 1);
    ASSERT_GT(serial.stats.partitions_computed, 0);
    EXPECT_GT(serial.stats.partition_wall_seconds, 0.0);
    EXPECT_GE(serial.stats.partition_wall_seconds + 1e-9,
              serial.stats.partition_seconds);
    EXPECT_GE(serial.stats.merge_wall_seconds, 0.0);
    EXPECT_EQ(Fingerprint(serial), pooled);
  }
}

TEST(ParallelDeterminismTest, MixedKindLevelRecordMatchesTheResult) {
  // The per-level record must agree with the dependency list it counts,
  // for every kind group alone and all four together, at any thread
  // count: found[k] at level l is the number of kind-k dependencies
  // reported at level l, the node counts sum to nodes_processed, and
  // Total(k) is CountOfKind(k).
  const EncodedTable tables[] = {EncodeTable(GenerateNcVoterTable(800, 8, 3)),
                                 EncodeTable(GenerateFlightTable(800, 8, 3))};
  const DependencyKindSet kind_sets[] = {
      DependencyKindSet::OdDefault(),
      DependencyKindSet().With(DependencyKind::kFd),
      DependencyKindSet().With(DependencyKind::kAfd),
      DependencyKindSet::All()};
  for (size_t t = 0; t < std::size(tables); ++t) {
    for (DependencyKindSet kinds : kind_sets) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE((t == 0 ? "ncvoter " : "flight ") + kinds.ToString() +
                     " threads=" + std::to_string(threads));
        DiscoveryOptions options;
        options.epsilon = 0.1;
        options.afd_error = 0.05;
        options.kinds = kinds;
        options.num_threads = threads;
        DiscoveryResult result = DiscoverOds(tables[t], options);
        const DiscoveryStats& s = result.stats;
        ASSERT_FALSE(result.dependencies.empty());

        std::vector<std::array<int64_t, kNumDependencyKinds>> found(
            s.levels.size());
        for (const DiscoveredDependency& d : result.dependencies) {
          ASSERT_LT(static_cast<size_t>(d.level), found.size());
          ++found[static_cast<size_t>(d.level)][static_cast<int>(d.kind)];
        }
        int64_t nodes = 0;
        for (size_t l = 0; l < s.levels.size(); ++l) {
          EXPECT_EQ(s.levels[l].found, found[l]) << "level " << l;
          nodes += s.levels[l].nodes;
        }
        EXPECT_EQ(nodes, s.nodes_processed);
        for (int k = 0; k < kNumDependencyKinds; ++k) {
          const auto kind = static_cast<DependencyKind>(k);
          EXPECT_EQ(s.Total(kind), result.CountOfKind(kind));
        }
      }
    }
  }
}

/// Output-only fingerprint (both dependency lists, all payload fields):
/// what must hold even across options that legitimately change product
/// counters, i.e. memory budgets and shard counts.
std::string OutputFingerprint(const DiscoveryResult& result) {
  std::string full = Fingerprint(result);
  return full.substr(0, full.find("stats:"));
}

TEST(ParallelDeterminismTest, PlannerThreadsAndBudgetInvariance) {
  // The planner's contract: discovery output is bit-identical across any
  // thread count and any partition memory budget (including one tiny
  // enough to force re-derivation every level). Full stats determinism
  // additionally holds across thread counts within each configuration.
  Table t = GenerateNcVoterTable(600, 8, 17);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 1;
  DiscoveryResult planned = DiscoverOds(enc, options);
  const std::string expected_full = Fingerprint(planned);
  const std::string expected_output = OutputFingerprint(planned);
  EXPECT_GT(planned.stats.planner_derivations, 0);

  options.num_threads = 4;
  EXPECT_EQ(Fingerprint(DiscoverOds(enc, options)), expected_full);
  options.num_threads = 0;  // hardware concurrency
  EXPECT_EQ(Fingerprint(DiscoverOds(enc, options)), expected_full);

  // A budget below the base footprint forces eviction (and on-demand
  // re-derivation) at every level boundary; output must not move, and
  // the full fingerprint must still be thread-count invariant.
  options.partition_memory_budget_bytes = 1;
  options.num_threads = 1;
  DiscoveryResult budgeted = DiscoverOds(enc, options);
  EXPECT_EQ(OutputFingerprint(budgeted), expected_output);
  EXPECT_GT(budgeted.stats.partitions_evicted, 0);
  EXPECT_GT(budgeted.stats.partition_bytes_evicted, 0);
  const std::string budgeted_full = Fingerprint(budgeted);
  options.num_threads = 4;
  EXPECT_EQ(Fingerprint(DiscoverOds(enc, options)), budgeted_full);
}

TEST(ParallelDeterminismTest, BudgetedRunMemoryStatsAreConsistent) {
  Table t = GenerateFlightTable(500, 8, 9);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_threads = 2;

  DiscoveryResult unlimited = DiscoverOds(enc, options);
  EXPECT_EQ(unlimited.stats.partitions_evicted, 0);
  EXPECT_EQ(unlimited.stats.partition_bytes_evicted, 0);
  EXPECT_GE(unlimited.stats.partition_bytes_peak,
            unlimited.stats.partition_bytes_final);

  // Budget halfway between floor and unlimited peak: some eviction must
  // happen, the peak must cover the final residency, and the evicted
  // bytes must account for the peak-vs-final gap together with eviction.
  options.partition_memory_budget_bytes =
      unlimited.stats.partition_bytes_peak / 2;
  DiscoveryResult budgeted = DiscoverOds(enc, options);
  EXPECT_EQ(OutputFingerprint(budgeted), OutputFingerprint(unlimited));
  EXPECT_GT(budgeted.stats.partitions_evicted, 0);
  EXPECT_GT(budgeted.stats.partition_bytes_evicted, 0);
  EXPECT_GE(budgeted.stats.partition_bytes_peak,
            budgeted.stats.partition_bytes_final);
  EXPECT_LE(budgeted.stats.partition_bytes_final,
            unlimited.stats.partition_bytes_final);
}

TEST(ParallelDeterminismTest, ShardedDiscoveryMatchesUnshardedBitExactly) {
  // The sharding tentpole's acceptance gate: num_shards ∈ {1,2,4,8} ×
  // thread counts {1,4,hw} — dependency output bit-identical to the
  // unsharded run, merge-side counters untouched by the wire crossing,
  // and the full fingerprint thread-count invariant within each shard
  // count (partition-side counters legitimately differ *between* shard
  // counts: derivation happens shard-locally).
  Table t = GenerateNcVoterTable(500, 7, 11);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 1;
  DiscoveryResult unsharded = DiscoverOds(enc, options);
  const std::string expected_output = OutputFingerprint(unsharded);

  for (int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    options.num_shards = shards;
    options.num_threads = 1;
    DiscoveryResult base = DiscoverOds(enc, options);
    ASSERT_TRUE(base.shard_status.ok()) << base.shard_status.ToString();
    EXPECT_EQ(base.stats.shards_used, shards);
    EXPECT_EQ(OutputFingerprint(base), expected_output);
    EXPECT_EQ(base.stats.oc_candidates_validated,
              unsharded.stats.oc_candidates_validated);
    EXPECT_EQ(base.stats.ofd_candidates_validated,
              unsharded.stats.ofd_candidates_validated);
    EXPECT_EQ(base.stats.oc_candidates_pruned,
              unsharded.stats.oc_candidates_pruned);
    EXPECT_EQ(base.stats.nodes_processed, unsharded.stats.nodes_processed);
    EXPECT_EQ(base.stats.levels_processed, unsharded.stats.levels_processed);
    EXPECT_GT(base.stats.shard_bytes_shipped, 0);
    // Runners derive through the planner and report its counters.
    EXPECT_GT(base.stats.planner_derivations, 0);
    EXPECT_GT(base.stats.planner_cost_realized, 0);
    ASSERT_EQ(base.stats.shard_bytes_per_shard.size(),
              static_cast<size_t>(shards));

    const std::string full = Fingerprint(base);
    const int64_t bytes_shipped = base.stats.shard_bytes_shipped;
    options.num_threads = 4;
    DiscoveryResult four = DiscoverOds(enc, options);
    ASSERT_TRUE(four.shard_status.ok()) << four.shard_status.ToString();
    EXPECT_EQ(Fingerprint(four), full);
    EXPECT_EQ(four.stats.shard_bytes_shipped, bytes_shipped);
    options.num_threads = 0;  // hardware concurrency
    DiscoveryResult hw = DiscoverOds(enc, options);
    ASSERT_TRUE(hw.shard_status.ok()) << hw.shard_status.ToString();
    EXPECT_EQ(Fingerprint(hw), full);
    EXPECT_EQ(hw.stats.shard_bytes_shipped, bytes_shipped);
  }
}

TEST(ParallelDeterminismTest, GroupedOcValidationMatchesAcrossGroupings) {
  // Phase 2 validates the optimal validator's OCs in groups that share a
  // context and a key column. A shard batch holds only part of a level,
  // so each runner cuts different groups than the driver does, and a
  // pool interleaves them differently again; the output must not move.
  Table t = GenerateFlightTable(3000, 10, 7);
  EncodedTable enc = EncodeTable(t);
  bool has_key = false;
  for (int c = 0; c < enc.num_columns(); ++c) {
    has_key = has_key || enc.column(c).cardinality == enc.num_rows();
  }
  ASSERT_TRUE(has_key);  // else no OC group forms
  for (bool bidirectional : {false, true}) {
    DiscoveryOptions options;
    options.epsilon = 0.1;
    options.validator = ValidatorKind::kOptimal;
    options.bidirectional = bidirectional;
    options.num_threads = 1;
    const DiscoveryResult serial = DiscoverOds(enc, options);
    ASSERT_GT(serial.stats.oc_candidates_validated, 0);
    const std::string expected_full = Fingerprint(serial);
    const std::string expected_output = OutputFingerprint(serial);
    for (int shards : {0, 2}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "bidirectional=" << bidirectional
                     << " shards=" << shards << " threads=" << threads);
        options.num_shards = shards;
        options.num_threads = threads;
        const DiscoveryResult run = DiscoverOds(enc, options);
        ASSERT_TRUE(run.shard_status.ok()) << run.shard_status.ToString();
        // Shard-local derivation legitimately moves the partition
        // counters; the output and the candidate counters may not move.
        if (shards == 0) {
          EXPECT_EQ(Fingerprint(run), expected_full);
        }
        EXPECT_EQ(OutputFingerprint(run), expected_output);
        EXPECT_EQ(run.stats.oc_candidates_validated,
                  serial.stats.oc_candidates_validated);
        EXPECT_EQ(run.stats.ofd_candidates_validated,
                  serial.stats.ofd_candidates_validated);
        EXPECT_EQ(run.stats.nodes_processed, serial.stats.nodes_processed);
      }
    }
  }
}

TEST(ParallelDeterminismTest, RowShardedDiscoveryMatchesUnshardedBitExactly) {
  // The row-sharding tentpole's acceptance gate: row_shards {1,2,4} ×
  // threads {1,4,hw}, each row shard a spawned runner — the stitched bases
  // are bit-identical to FromColumn, so the *full* fingerprint (stats
  // included) must equal the unsharded run's: the row phase only adds
  // its own byte-accounting counters, which this test checks
  // separately. Per-shard table bytes must shrink as the shard count
  // grows (each shard receives O(rows/row_shards)).
  Table t = GenerateNcVoterTable(400, 6, 11);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 1;
  DiscoveryResult unsharded = DiscoverOds(enc, options);
  ASSERT_TRUE(unsharded.shard_status.ok());
  EXPECT_EQ(unsharded.stats.row_shards_used, 0);
  EXPECT_TRUE(unsharded.stats.row_shard_bytes_per_shard.empty());
  const std::string expected_full = Fingerprint(unsharded);

  options.shard_runner_path = testing_util::RunnerBinaryPath();

  int64_t max_shard_bytes_at_1 = 0;
  for (int row_shards : {1, 2, 4}) {
    SCOPED_TRACE("row_shards=" + std::to_string(row_shards));
    options.row_shards = row_shards;
    for (int threads : {1, 4, 0}) {
      options.num_threads = threads;
      DiscoveryResult run = DiscoverOds(enc, options);
      ASSERT_TRUE(run.shard_status.ok())
          << "threads=" << threads << ": " << run.shard_status.ToString();
      EXPECT_EQ(Fingerprint(run), expected_full) << "threads=" << threads;
      EXPECT_EQ(run.stats.row_shards_used, row_shards);
      ASSERT_EQ(run.stats.row_shard_bytes_per_shard.size(),
                static_cast<size_t>(row_shards));
      EXPECT_GT(run.stats.row_shard_bytes_shipped, 0);
      for (int64_t b : run.stats.row_shard_bytes_per_shard) {
        EXPECT_GT(b, 0);
      }
      EXPECT_LE(run.stats.row_shard_bytes_wire, run.stats.row_shard_bytes_raw);
      if (threads == 1) {
        int64_t max_bytes = 0;
        for (int64_t b : run.stats.row_shard_bytes_per_shard) {
          max_bytes = std::max(max_bytes, b);
        }
        if (row_shards == 1) max_shard_bytes_at_1 = max_bytes;
        // O(table/row_shards): four shards each see well under half
        // of what the single shard saw.
        if (row_shards == 4) {
          EXPECT_LT(max_bytes, max_shard_bytes_at_1 / 2 + 64);
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, RowShardsComposeWithCandidateShards) {
  // The two sharding axes are orthogonal: a run that row-shards the base
  // partition build AND candidate-shards the traversal must reproduce
  // the plain candidate-sharded run's full fingerprint — the stitched
  // bases feed the coordinator's base frames bit-identically, so even
  // shard_bytes_shipped cannot move.
  Table t = GenerateNcVoterTable(400, 6, 11);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 2;
  const std::string expected_output =
      OutputFingerprint(DiscoverOds(enc, options));

  options.num_shards = 2;
  DiscoveryResult sharded = DiscoverOds(enc, options);
  ASSERT_TRUE(sharded.shard_status.ok());
  EXPECT_EQ(OutputFingerprint(sharded), expected_output);

  options.row_shards = 2;
  DiscoveryResult both = DiscoverOds(enc, options);
  ASSERT_TRUE(both.shard_status.ok()) << both.shard_status.ToString();
  EXPECT_EQ(Fingerprint(both), Fingerprint(sharded));
  EXPECT_EQ(both.stats.shard_bytes_shipped,
            sharded.stats.shard_bytes_shipped);
  EXPECT_EQ(both.stats.row_shards_used, 2);
  EXPECT_GT(both.stats.row_shard_bytes_shipped, 0);
}

TEST(ParallelDeterminismTest, ShardedMatchesAcrossValidatorsAndPolarity) {
  Table t = GenerateFlightTable(400, 6, 5);
  EncodedTable enc = EncodeTable(t);
  for (ValidatorKind validator : {ValidatorKind::kExact,
                                  ValidatorKind::kIterative,
                                  ValidatorKind::kOptimal}) {
    DiscoveryOptions options;
    options.validator = validator;
    options.epsilon = 0.1;
    options.bidirectional = true;
    options.collect_removal_sets = true;
    options.num_threads = 2;
    const std::string expected =
        OutputFingerprint(DiscoverOds(enc, options));
    options.num_shards = 4;
    DiscoveryResult sharded = DiscoverOds(enc, options);
    ASSERT_TRUE(sharded.shard_status.ok()) << sharded.shard_status.ToString();
    EXPECT_EQ(OutputFingerprint(sharded), expected)
        << ValidatorKindToString(validator);
  }
}

TEST(ParallelDeterminismTest, MixedKindRunsAreThreadAndShardInvariant) {
  // The platform dimension of the determinism matrix: FD/AFD candidates
  // ride the same plans, wire and merge as OC/OFD, so a mixed-kind run
  // must satisfy the exact contract the OD-only runs pin — identical
  // full fingerprint across threads {1,4,hw} × shards {0,2,4}, for the
  // fd+afd pair and for all four kinds at once.
  Table t = GenerateNcVoterTable(400, 6, 11);
  EncodedTable enc = EncodeTable(t);
  for (const char* spec : {"fd,afd", "oc,ofd,fd,afd"}) {
    SCOPED_TRACE(spec);
    DiscoveryOptions options;
    options.kinds = DependencyKindSet::Parse(spec).value();
    options.epsilon = 0.1;
    options.afd_error = 0.05;
    options.collect_removal_sets = true;
    options.num_threads = 1;
    DiscoveryResult serial = DiscoverOds(enc, options);
    const std::string expected = Fingerprint(serial);
    const std::string expected_output = OutputFingerprint(serial);

    for (int shards : {0, 2, 4}) {
      SCOPED_TRACE("num_shards=" + std::to_string(shards));
      options.num_shards = shards;
      for (int threads : {1, 4, 0}) {
        options.num_threads = threads;
        DiscoveryResult run = DiscoverOds(enc, options);
        ASSERT_TRUE(run.shard_status.ok()) << run.shard_status.ToString();
        EXPECT_EQ(OutputFingerprint(run), expected_output)
            << "threads=" << threads;
        if (shards == 0) {
          EXPECT_EQ(Fingerprint(run), expected) << "threads=" << threads;
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, MixedKindTransportInvariance) {
  // Wire dimension for non-OD kinds: the kind tag crosses the wire in
  // candidate and outcome frames; the runner processes' socket framing
  // and the delta/varint codecs must not perturb a single byte of the
  // output.
  Table t = GenerateNcVoterTable(300, 6, 7);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.kinds = DependencyKindSet::All();
  options.epsilon = 0.1;
  options.afd_error = 0.05;
  options.num_threads = 2;
  const std::string expected = OutputFingerprint(DiscoverOds(enc, options));
  options.num_shards = 2;
  options.shard_runner_path = testing_util::RunnerBinaryPath();
  DiscoveryResult run = DiscoverOds(enc, options);
  ASSERT_TRUE(run.shard_status.ok()) << run.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(run), expected);
}

TEST(ParallelDeterminismTest, InterestingnessScoresRankEveryDependency) {
  // The ranking layer's contract (and the end of interestingness.{h,cc}
  // as dead code): every emitted dependency of every kind carries a
  // score in [0, 1] (0 only for vacuous key-like contexts), the score is
  // a pure function of the dependency's context — so equal-context
  // dependencies tie exactly — and top-k selection over those scores is
  // thread- and shard-count invariant.
  Table t = GenerateNcVoterTable(400, 6, 13);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.kinds = DependencyKindSet::All();
  options.epsilon = 0.1;
  options.num_threads = 1;
  DiscoveryResult full = DiscoverOds(enc, options);
  ASSERT_GT(full.dependencies.size(), 8u);
  std::map<uint64_t, double> score_by_context;
  int64_t positive = 0;
  for (const DiscoveredDependency& d : full.dependencies) {
    EXPECT_GE(d.interestingness, 0.0) << d.ToString(enc);
    EXPECT_LE(d.interestingness, 1.0) << d.ToString(enc);
    if (d.interestingness > 0.0) ++positive;
    auto [it, inserted] =
        score_by_context.emplace(d.context.bits(), d.interestingness);
    if (!inserted) {
      EXPECT_EQ(it->second, d.interestingness)
          << "same context, different score: " << d.ToString(enc);
    }
  }
  EXPECT_GT(positive, 0);

  options.top_k = 8;
  options.num_threads = 1;
  const std::string expected = Fingerprint(DiscoverOds(enc, options));
  for (int threads : {4, 0}) {
    options.num_threads = threads;
    options.num_shards = 0;
    EXPECT_EQ(Fingerprint(DiscoverOds(enc, options)), expected)
        << "threads=" << threads;
    options.num_shards = 4;
    DiscoveryResult sharded = DiscoverOds(enc, options);
    ASSERT_TRUE(sharded.shard_status.ok());
    EXPECT_EQ(OutputFingerprint(sharded),
              expected.substr(0, expected.find("stats:")))
        << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, ProcessTransportMatchesUnshardedBitExactly) {
  // The shard seam's determinism gate: runner processes over localhost
  // TCP — real length framing, partial reads, writer threads, stats
  // footers — must reproduce the unsharded output for every shard
  // count, with the footer-fed partition counters delivered.
  const std::string runner = testing_util::RunnerBinaryPath();
  if (runner.empty()) GTEST_SKIP() << "shard_runner_main not found";
  Table t = GenerateNcVoterTable(400, 6, 11);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 2;
  options.shard_runner_path = runner;
  const std::string expected_output =
      OutputFingerprint(DiscoverOds(enc, options));

  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    options.num_shards = shards;
    DiscoveryResult process = DiscoverOds(enc, options);
    ASSERT_TRUE(process.shard_status.ok()) << process.shard_status.ToString();
    EXPECT_EQ(OutputFingerprint(process), expected_output);
    EXPECT_GT(process.stats.partitions_computed, 0);
    EXPECT_GT(process.stats.partition_bytes_peak, 0);
  }
}

TEST(ParallelDeterminismTest, ShardWireAccountingShowsCompression) {
  // The codec dimension of the byte accounting, per frame type. Partition
  // and table frames carry codecs that pay on these shapes (delta-varint
  // CSR bodies, byte-wide rank columns), so they come in under their
  // all-raw baseline; candidate and result batches always ship raw, so
  // their wire bytes equal their raw bytes. The run as a whole therefore
  // ships less than all-raw, for every shard count, with the output
  // unchanged — and the whole saving is the per-type savings: every
  // byte is accounted at the coordinator's own encode/decode sites.
  Table t = GenerateNcVoterTable(400, 6, 11);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 2;
  const std::string expected_output =
      OutputFingerprint(DiscoverOds(enc, options));

  options.shard_runner_path = testing_util::RunnerBinaryPath();
  for (int shards : {1, 4}) {
    SCOPED_TRACE("num_shards=" + std::to_string(shards));
    options.num_shards = shards;
    DiscoveryResult run = DiscoverOds(enc, options);
    ASSERT_TRUE(run.shard_status.ok()) << run.shard_status.ToString();
    EXPECT_EQ(OutputFingerprint(run), expected_output);
    EXPECT_LT(run.stats.shard_bytes_wire, run.stats.shard_bytes_raw);
    EXPECT_EQ(run.stats.shard_bytes_wire, run.stats.shard_bytes_shipped);
    EXPECT_FALSE(run.stats.shard_frame_bytes.empty());
    std::map<std::string, DiscoveryStats::FrameTypeBytes> by_type;
    int64_t per_type_savings = 0;
    for (const DiscoveryStats::FrameTypeBytes& fb :
         run.stats.shard_frame_bytes) {
      by_type[fb.frame_type] = fb;
      per_type_savings += fb.bytes_raw - fb.bytes_wire;
    }
    EXPECT_EQ(run.stats.shard_bytes_raw - run.stats.shard_bytes_wire,
              per_type_savings);
    for (const char* type : {"candidate", "result"}) {
      ASSERT_EQ(by_type.count(type), 1u) << type;
      EXPECT_GT(by_type[type].bytes_wire, 0) << type;
      EXPECT_EQ(by_type[type].bytes_wire, by_type[type].bytes_raw) << type;
    }
    for (const char* type : {"partition", "table"}) {
      ASSERT_EQ(by_type.count(type), 1u) << type;
      EXPECT_LT(by_type[type].bytes_wire, by_type[type].bytes_raw) << type;
    }
  }
}

TEST(ParallelDeterminismTest, PassThroughFlakyDecoratorKeepsContract) {
  // The fault-injection decorator in pass-through mode is perfectly
  // transparent: the sharded determinism contract must hold unchanged
  // with every coordinator endpoint wrapped — the guarantee that the
  // fault-injection suite exercises the real pipeline, not a fork.
  Table t = GenerateNcVoterTable(300, 6, 17);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 2;
  const std::string expected = OutputFingerprint(DiscoverOds(enc, options));

  options.num_shards = 2;
  options.shard_channel_decorator =
      [](std::unique_ptr<shard::ShardChannel> inner)
      -> std::unique_ptr<shard::ShardChannel> {
    return std::make_unique<testing_util::FlakyChannel>(
        std::move(inner), testing_util::FlakyChannel::Plan{});
  };
  options.shard_runner_path = testing_util::RunnerBinaryPath();
  DiscoveryResult wrapped = DiscoverOds(enc, options);
  ASSERT_TRUE(wrapped.shard_status.ok()) << wrapped.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(wrapped), expected);
}

TEST(ParallelDeterminismTest, ShardedBudgetForcesEvictionWithoutOutputDrift) {
  // A tiny per-shard budget forces re-derivation after every batch; the
  // output must not move and the eviction stats must show it happened.
  Table t = GenerateNcVoterTable(400, 7, 23);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_threads = 2;
  const std::string expected = OutputFingerprint(DiscoverOds(enc, options));
  options.num_shards = 2;
  options.partition_memory_budget_bytes = 1;
  DiscoveryResult budgeted = DiscoverOds(enc, options);
  ASSERT_TRUE(budgeted.shard_status.ok()) << budgeted.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(budgeted), expected);
  EXPECT_GT(budgeted.stats.partitions_evicted, 0);
  EXPECT_GT(budgeted.stats.partition_bytes_evicted, 0);
}

TEST(ParallelDeterminismTest, BudgetExpiryStillFlagsTimeoutInParallel) {
  // Deadline checks now sit between candidate validations; a parallel
  // run must notice an expired budget and report a (possibly empty)
  // partial result rather than overshooting by a whole node.
  Table t = GenerateFlightTable(4000, 10, 3);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.validator = ValidatorKind::kIterative;
  options.epsilon = 0.1;
  options.time_budget_seconds = 1e-4;
  options.num_threads = 4;
  DiscoveryResult result = DiscoverOds(enc, options);
  EXPECT_TRUE(result.timed_out);
}

/// Invariants tying post-deadline stats to the reported (partial) result
/// set — what "coherent" means for a timed-out run.
void ExpectDeadlineCoherentStats(const DiscoveryResult& result) {
  const DiscoveryStats& s = result.stats;
  int64_t nodes = 0;
  for (const LevelStats& level : s.levels) nodes += level.nodes;
  EXPECT_EQ(s.nodes_processed, nodes);
  EXPECT_EQ(s.TotalOcs(), result.CountOfKind(DependencyKind::kOc));
  EXPECT_EQ(s.Total(DependencyKind::kOfd),
            result.CountOfKind(DependencyKind::kOfd));
  EXPECT_LE(static_cast<int>(s.levels.size()), s.levels_processed + 1);
  for (const DiscoveredDependency& d : result.dependencies) {
    EXPECT_LE(d.level, s.levels_processed);
  }
  // Counted candidates all belong to merged nodes, so the dependency
  // lists can never outnumber them.
  EXPECT_GE(s.oc_candidates_validated,
            result.CountOfKind(DependencyKind::kOc));
  EXPECT_GE(s.ofd_candidates_validated,
            result.CountOfKind(DependencyKind::kOfd));
}

TEST(ParallelDeterminismTest, DeadlineStatsStayCoherentWithPartialResults) {
  // Regression for the deadline_hit path: stats used to count a level's
  // nodes at level *entry*, so a deadline inside the level reported
  // nodes (and a level) the result set never contained.
  Table t = GenerateFlightTable(4000, 10, 3);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.validator = ValidatorKind::kIterative;
  options.epsilon = 0.1;

  // A budget smaller than any clock resolution expires before the first
  // planning chunk: the run must report *zero* of everything, not the
  // first level's node count.
  options.time_budget_seconds = 1e-9;
  for (int threads : {1, 4}) {
    options.num_threads = threads;
    DiscoveryResult result = DiscoverOds(enc, options);
    EXPECT_TRUE(result.timed_out);
    EXPECT_EQ(result.stats.nodes_processed, 0);
    EXPECT_EQ(result.stats.levels_processed, 0);
    EXPECT_EQ(result.stats.oc_candidates_validated, 0);
    EXPECT_EQ(result.stats.ofd_candidates_validated, 0);
    EXPECT_TRUE(result.dependencies.empty());
    ExpectDeadlineCoherentStats(result);
  }

  // A budget that lands mid-traversal: wherever the deadline hits, the
  // totals must describe exactly the merged prefix.
  options.time_budget_seconds = 0.02;
  for (int threads : {1, 4}) {
    options.num_threads = threads;
    ExpectDeadlineCoherentStats(DiscoverOds(enc, options));
  }
}

}  // namespace
}  // namespace aod
