// End-to-end sharding: spawn real shard_runner_main processes, run
// discovery over them, and diff the output byte-for-byte against the
// unsharded run. This is the acceptance gate of the shard seam:
// num_shards ∈ {1, 2, 4} must be bit-identical, the stats footers must
// deliver the shard-side counters, and a runner that cannot start must
// surface as a typed error, not a hang or a crash.
//
// The runner binary is found next to this test binary (both live in the
// build root); AOD_SHARD_RUNNER overrides.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "gen/ncvoter_generator.h"
#include "od/discovery.h"
#include "test_util.h"

namespace aod {
namespace {

void AppendDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a,", v);  // exact hex fingerprint
  *out += buf;
}

/// Byte-exact serialization of both dependency lists with every payload
/// field — what "diff output byte-for-byte against the unsharded run"
/// means (see parallel_determinism_test for the full-stats variant).
std::string OutputFingerprint(const DiscoveryResult& result) {
  std::string out;
  for (const DiscoveredDependency& d : result.dependencies) {
    out += std::to_string(static_cast<int>(d.kind)) + "," +
           std::to_string(d.context.bits()) + "," + std::to_string(d.a) +
           "," + std::to_string(d.b) + "," + (d.opposite ? "1," : "0,");
    AppendDouble(&out, d.error);
    out += std::to_string(d.removal_size) + "," + std::to_string(d.level) +
           ",";
    AppendDouble(&out, d.interestingness);
    for (int32_t r : d.removal_rows) out += std::to_string(r) + ",";
    out += ';';
  }
  return out;
}

/// A runner that starts, stays alive and never connects: a shell script
/// that execs `sleep`. Only the accept timeout can end its spawn — the
/// dead-child check never fires — so the tests below pin the timeout
/// path itself. Removed when the test ends.
class StallingRunner {
 public:
  StallingRunner()
      : path_(::testing::TempDir() + "/aod_stalling_runner_" +
              std::to_string(static_cast<long long>(::getpid())) + ".sh") {
    {
      std::ofstream out(path_);
      out << "#!/bin/sh\nexec sleep 60\n";
    }
    ::chmod(path_.c_str(), 0755);
  }
  ~StallingRunner() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ShardProcessE2eTest, ShardedRunsMatchUnshardedBitExactly) {
  const std::string runner = testing_util::RunnerBinaryPath();
  if (runner.empty()) {
    GTEST_SKIP() << "shard_runner_main not found next to the test binary";
  }
  Table t = GenerateNcVoterTable(300, 6, 11);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, options);
  ASSERT_TRUE(unsharded.shard_status.ok());
  const std::string expected = OutputFingerprint(unsharded);

  options.shard_runner_path = runner;
  for (int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    options.num_shards = shards;
    DiscoveryResult sharded = DiscoverOds(enc, options);
    ASSERT_TRUE(sharded.shard_status.ok()) << sharded.shard_status.ToString();
    EXPECT_EQ(OutputFingerprint(sharded), expected);
    EXPECT_EQ(sharded.stats.shards_used, shards);
    EXPECT_GT(sharded.stats.shard_bytes_shipped, 0);
    // Stats footers delivered the shard-side partition counters.
    EXPECT_GT(sharded.stats.partitions_computed, 0);
    EXPECT_GT(sharded.stats.partition_bytes_peak, 0);
  }
}

TEST(ShardProcessE2eTest, RunnersReceiveTheTable) {
  const std::string runner = testing_util::RunnerBinaryPath();
  if (runner.empty()) {
    GTEST_SKIP() << "shard_runner_main not found next to the test binary";
  }
  Table t = GenerateNcVoterTable(250, 5, 3);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_threads = 1;
  options.shard_runner_path = runner;
  // Wire bytes of the kTableBlock frames one run shipped.
  const auto table_wire = [&](int shards) -> int64_t {
    options.num_shards = shards;
    DiscoveryResult result = DiscoverOds(enc, options);
    EXPECT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
    for (const auto& f : result.stats.shard_frame_bytes) {
      if (f.frame_type == "table") return f.bytes_wire;
    }
    return 0;
  };
  // Every runner is bootstrapped with the full rank-encoded table: one
  // table frame per shard.
  const int64_t one = table_wire(1);
  EXPECT_GT(one, 0);
  EXPECT_EQ(table_wire(2), 2 * one);
}

TEST(ShardProcessE2eTest, MissingRunnerBinaryIsTypedNotACrash) {
  Table t = GenerateNcVoterTable(60, 3, 5);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.num_shards = 2;
  options.shard_runner_path = "/nonexistent/aod_shard_runner";
  options.shard_io_timeout_seconds = 1.0;
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_TRUE(result.dependencies.empty());
}

TEST(ShardProcessE2eTest, RowShardPhaseWithoutARunnerIsTyped) {
  // The row phase has no fallback: a runner that cannot be spawned is
  // the phase's typed fail-stop, and the traversal never starts.
  Table t = GenerateNcVoterTable(60, 3, 5);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.row_shards = 2;
  options.shard_runner_path = "/nonexistent/aod_shard_runner";
  options.shard_io_timeout_seconds = 1.0;
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_EQ(result.shard_status.code(), StatusCode::kIoError)
      << result.shard_status.ToString();
  EXPECT_TRUE(result.dependencies.empty());
}

TEST(ShardProcessE2eTest, RunnerThatNeverConnectsTimesOutTyped) {
  Table t = GenerateNcVoterTable(60, 3, 5);
  EncodedTable enc = EncodeTable(t);
  StallingRunner stalling;
  DiscoveryOptions options;
  options.num_shards = 1;
  // Spawns fine, stays alive, never speaks the protocol: the accept wait
  // must end at the I/O timeout with a typed error, not hang.
  options.shard_runner_path = stalling.path();
  options.shard_io_timeout_seconds = 0.5;
  const auto start = std::chrono::steady_clock::now();
  DiscoveryResult result = DiscoverOds(enc, options);
  const double elapsed = SecondsSince(start);
  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_EQ(result.shard_status.code(), StatusCode::kIoError)
      << result.shard_status.ToString();
  EXPECT_NE(result.shard_status.message().find("never connected"),
            std::string::npos)
      << result.shard_status.ToString();
  EXPECT_GE(elapsed, 0.4) << "the accept wait ended before its timeout";
  EXPECT_LT(elapsed, 5.0);
}

TEST(ShardProcessE2eTest, RunnerThatExitsBeforeConnectingFailsFast) {
  // A runner that exits at once must not cost the whole I/O timeout
  // (here 30 s; 300 s by default): the spawn notices the
  // dead child between accept polls and fails with its exit status.
  Table t = GenerateNcVoterTable(60, 3, 5);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.num_shards = 1;
  options.shard_runner_path = "/bin/true";
  options.shard_io_timeout_seconds = 30.0;  // no time budget
  const auto start = std::chrono::steady_clock::now();
  DiscoveryResult result = DiscoverOds(enc, options);
  const double elapsed = SecondsSince(start);
  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_EQ(result.shard_status.code(), StatusCode::kIoError)
      << result.shard_status.ToString();
  EXPECT_NE(result.shard_status.message().find("exit status 0"),
            std::string::npos)
      << result.shard_status.ToString();
  EXPECT_LT(elapsed, 5.0);
}

// A real runner process that dies mid-run (no footer, no orderly close):
// the run fails stop with a typed error as soon as the coordinator sees
// the lost connection — well inside the I/O timeout — and reports only
// the levels merged before the crash, a prefix of the unsharded run's
// dependency list.
TEST(ShardProcessE2eTest, CrashingRunnerFailsStopWithAPrefix) {
  const std::string runner = testing_util::RunnerBinaryPath();
  if (runner.empty()) {
    GTEST_SKIP() << "shard_runner_main not found next to the test binary";
  }
  Table t = GenerateNcVoterTable(120, 4, 5);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_threads = 2;
  const std::string expected = OutputFingerprint(DiscoverOds(enc, options));

  options.num_shards = 2;
  options.shard_runner_path = runner;
  options.shard_io_timeout_seconds = 30.0;

  // Every runner serves its k base frames and three levels' batches,
  // then dies. Its last reply may or may not leave the process before
  // the exit, so levels 1 and 2 are merged, and maybe level 3.
  const std::string crash_before = std::to_string(enc.num_columns() + 4);
  ::setenv("AOD_TEST_RUNNER_CRASH_BEFORE_FRAME", crash_before.c_str(), 1);
  const auto start = std::chrono::steady_clock::now();
  DiscoveryResult result = DiscoverOds(enc, options);
  const double elapsed = SecondsSince(start);
  ::unsetenv("AOD_TEST_RUNNER_CRASH_BEFORE_FRAME");

  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_GE(result.stats.levels_processed, 2);
  EXPECT_FALSE(result.dependencies.empty());
  const std::string got = OutputFingerprint(result);
  EXPECT_EQ(expected.compare(0, got.size(), got), 0)
      << "not a prefix of the unsharded run";
  EXPECT_LT(elapsed, 10.0) << "the crash was noticed only by a timeout";
}

TEST(ShardProcessE2eTest, IoTimeoutIsClampedToTheRunDeadline) {
  Table t = GenerateNcVoterTable(60, 3, 5);
  EncodedTable enc = EncodeTable(t);
  StallingRunner stalling;
  DiscoveryOptions options;
  options.num_shards = 1;
  options.shard_runner_path = stalling.path();  // never connects
  // A generous I/O timeout clamped by a 1-second run budget: the accept
  // wait must shrink to the remaining budget instead of parking for
  // 30 s.
  options.shard_io_timeout_seconds = 30.0;
  options.time_budget_seconds = 1.0;
  const auto start = std::chrono::steady_clock::now();
  DiscoveryResult result = DiscoverOds(enc, options);
  const double elapsed = SecondsSince(start);
  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_NE(result.shard_status.message().find("never connected"),
            std::string::npos)
      << result.shard_status.ToString();
  EXPECT_LT(elapsed, 10.0) << "I/O waits were not clamped to the budget";
}

}  // namespace
}  // namespace aod
