// Supervised shard execution under injected faults.
//
// The strict-mode contract — any fault is a typed fail-stop abort — is
// pinned by tests/shard_channel_conformance_test.cc. This suite pins
// the supervised contract on top of it: with shard_max_retries >= 1 the
// same faults are absorbed by the retry / respawn / fallback ladder and
// the run COMPLETES, bit-identical to the unsharded run, with the
// recovery visible in the supervision counters.
//
//   - the fault sweep injects one fault fleet-wide (shared budget) per
//     run, across every fault kind x frame position over spawned runner
//     processes;
//   - the attempt-1-vs-2 tests fault the first AND second attempt of
//     one shard, forcing the ladder two rungs deep;
//   - the persistent-fault test breaks every attempt so the shards must
//     degrade to validation on the coordinator.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flaky_channel.h"
#include "gen/ncvoter_generator.h"
#include "od/discovery.h"
#include "shard/channel.h"
#include "test_util.h"

namespace aod {
namespace {

using shard::ShardChannel;
using testing_util::FlakyChannel;

void AppendDouble(std::string* out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a,", v);
  *out += buf;
}

/// Byte-exact serialization of the kind-tagged dependency list (the same
/// fingerprint shard_process_e2e_test diffs).
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
    out += ';';
  }
  return out;
}

int64_t RecoveryTotal(const DiscoveryStats& stats) {
  return stats.shard_retries + stats.shard_respawns +
         stats.shard_fallback_shards + stats.shard_footers_missing;
}

/// Supervised runs over spawned runner processes. A missing runner
/// binary fails the suite (so the supervision gate cannot pass without
/// running) unless AOD_ALLOW_MISSING_SHARD_RUNNER is set.
class ShardSupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runner_ = testing_util::RunnerBinaryPath();
    if (!runner_.empty()) return;
    if (std::getenv("AOD_ALLOW_MISSING_SHARD_RUNNER") != nullptr) {
      GTEST_SKIP() << "shard_runner_main not found next to the test binary";
    }
    FAIL() << "shard_runner_main not found next to the test binary; build "
              "it or set AOD_SHARD_RUNNER";
  }
  /// A supervised 2-shard run: tight backoff so retries are cheap, a
  /// 1 s I/O bound so DropFrame surfaces fast, and the default retry
  /// budget.
  DiscoveryOptions Options() const {
    DiscoveryOptions options;
    options.epsilon = 0.1;
    options.num_shards = 2;
    options.num_threads = 2;
    options.shard_runner_path = runner_;
    options.shard_io_timeout_seconds = 1.0;
    options.shard_retry_backoff_ms = 1.0;
    return options;
  }
  std::string runner_;
};

// One injected fault, anywhere in the fleet, for every fault kind and a
// sweep of frame positions. On the send side, positions 0 and 1 hit the
// config and table frames, 2 and 4 hit base frames (one per column), and
// 3 + k — after config, table, the k bases and the level-1 batch — hits
// the level-2 candidate batch. On the receive side they hit result
// chunks and the shutdown handshake. The run must complete with output
// bit-identical to the unsharded run, and whenever the fault actually
// fired the supervisor must have visibly recovered.
TEST_F(ShardSupervisorTest, EveryFaultAtEveryPositionRecoversBitExactly) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions unsharded_options;
  unsharded_options.epsilon = 0.1;
  unsharded_options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, unsharded_options);
  ASSERT_TRUE(unsharded.shard_status.ok());
  const std::string expected = OutputFingerprint(unsharded);

  const FlakyChannel::Fault kFaults[] = {
      FlakyChannel::Fault::kTornWrite, FlakyChannel::Fault::kShortRead,
      FlakyChannel::Fault::kCorruptByte, FlakyChannel::Fault::kDropFrame};
  for (FlakyChannel::Fault fault : kFaults) {
    for (int trigger : {0, 1, 2, 4, 3 + enc.num_columns()}) {
      SCOPED_TRACE("fault=" + std::to_string(static_cast<int>(fault)) +
                   " trigger=" + std::to_string(trigger));
      std::atomic<int> budget{1};  // one fault total, wherever it lands
      DiscoveryOptions options = Options();
      options.shard_channel_decorator =
          [&](std::unique_ptr<ShardChannel> inner)
          -> std::unique_ptr<ShardChannel> {
        FlakyChannel::Plan plan;
        plan.fault = fault;
        plan.trigger_after = trigger;
        plan.shared_budget = &budget;
        return std::make_unique<FlakyChannel>(std::move(inner), plan);
      };
      DiscoveryResult result = DiscoverOds(enc, options);
      ASSERT_TRUE(result.shard_status.ok())
          << result.shard_status.ToString();
      EXPECT_EQ(OutputFingerprint(result), expected);
      if (budget.load() <= 0) {
        // The fault fired — recovery must be observable. (A shutdown-path
        // fault counts as a lost footer rather than a retry.)
        EXPECT_GT(RecoveryTotal(result.stats), 0);
      }
    }
  }
}

// Fault the FIRST and the SECOND attempt of one shard: the supervisor
// must climb two rungs of the retry ladder — attempt 1 torn mid-level,
// respawned attempt 2 re-seeded and torn again, attempt 3 finishes the
// level — and the merged output must not change. Decorated channels are
// created serially in shard order, then one per re-attempt, so creation
// index identifies the attempt deterministically.
TEST_F(ShardSupervisorTest, FaultsOnAttemptOneAndTwoBothRecover) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions unsharded_options;
  unsharded_options.epsilon = 0.1;
  unsharded_options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, unsharded_options);
  ASSERT_TRUE(unsharded.shard_status.ok());

  // Sends before the first candidate batch: process attempts ship
  // config + table + one frame per base (k columns). Tearing the next
  // send faults the level's candidate batch.
  const int clean_sends = 2 + enc.num_columns();
  std::atomic<int> created{0};
  DiscoveryOptions options = Options();
  options.shard_channel_decorator =
      [&](std::unique_ptr<ShardChannel> inner)
      -> std::unique_ptr<ShardChannel> {
    const int idx = created.fetch_add(1);
    // idx 0: shard 0 attempt 1 (clean). idx 1: shard 1 attempt 1.
    // idx 2: shard 1 attempt 2 (the respawn). idx 3+: clean.
    if (idx != 1 && idx != 2) return inner;
    FlakyChannel::Plan plan;
    plan.fault = FlakyChannel::Fault::kTornWrite;
    plan.trigger_after = clean_sends;
    return std::make_unique<FlakyChannel>(std::move(inner), plan);
  };
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(result), OutputFingerprint(unsharded));
  // At least the two injected faults were retried (teardown/respawn
  // races can add a benign extra attempt on the process transport).
  EXPECT_GE(result.stats.shard_retries, 2);
  EXPECT_GE(result.stats.shard_respawns, 2);
  EXPECT_EQ(result.stats.shard_fallback_shards, 0);
}

// Every attempt's first send is torn, so no runner attempt can ever
// succeed: both shards must exhaust the retry budget and degrade to
// validation on the coordinator — which has no channel for the
// decorator to reach — and complete bit-identically, with the degraded
// cores' footers read directly.
TEST_F(ShardSupervisorTest, PersistentFaultDegradesEveryShardToTheCoordinator) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions unsharded_options;
  unsharded_options.epsilon = 0.1;
  unsharded_options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, unsharded_options);
  ASSERT_TRUE(unsharded.shard_status.ok());

  DiscoveryOptions options = Options();
  options.shard_max_retries = 1;
  options.shard_channel_decorator =
      [](std::unique_ptr<ShardChannel> inner)
      -> std::unique_ptr<ShardChannel> {
    FlakyChannel::Plan plan;
    plan.fault = FlakyChannel::Fault::kTornWrite;
    plan.trigger_after = 0;
    return std::make_unique<FlakyChannel>(std::move(inner), plan);
  };
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(result), OutputFingerprint(unsharded));
  EXPECT_EQ(result.stats.shard_fallback_shards, 2);
  EXPECT_GT(result.stats.shard_retries, 0);
  EXPECT_EQ(result.stats.shard_footers_missing, 0);
  EXPECT_GT(result.stats.partitions_computed, 0);
}

// Strict mode must not recover: the same persistent fault with
// shard_max_retries == 0 is the pre-supervision typed fail-stop.
TEST_F(ShardSupervisorTest, StrictModeStillFailsStop) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options = Options();
  options.shard_max_retries = 0;
  options.shard_channel_decorator =
      [](std::unique_ptr<ShardChannel> inner)
      -> std::unique_ptr<ShardChannel> {
    FlakyChannel::Plan plan;
    plan.fault = FlakyChannel::Fault::kTornWrite;
    plan.trigger_after = 0;
    return std::make_unique<FlakyChannel>(std::move(inner), plan);
  };
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_FALSE(result.shard_status.ok());
  EXPECT_EQ(result.stats.shard_retries, 0);
  EXPECT_EQ(result.stats.shard_fallback_shards, 0);
}

// A job mining all four kinds at once (OC + OFD + FD + AFD) rides the
// same ladder: a fault on the transport is retried away and the merged
// mixed-kind output — kind tags, g1 errors and ranking included — is
// bit-identical to the unsharded mixed-kind run.
TEST_F(ShardSupervisorTest, MixedKindJobRecoversBitExactly) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions unsharded_options;
  unsharded_options.epsilon = 0.1;
  unsharded_options.num_threads = 2;
  unsharded_options.kinds = DependencyKindSet::All();
  unsharded_options.afd_error = 0.05;
  DiscoveryResult unsharded = DiscoverOds(enc, unsharded_options);
  ASSERT_TRUE(unsharded.shard_status.ok());
  ASSERT_GT(unsharded.CountOfKind(DependencyKind::kFd) +
                unsharded.CountOfKind(DependencyKind::kAfd),
            0);

  std::atomic<int> budget{1};
  DiscoveryOptions options = Options();
  options.kinds = DependencyKindSet::All();
  options.afd_error = 0.05;
  options.shard_channel_decorator =
      [&](std::unique_ptr<ShardChannel> inner)
      -> std::unique_ptr<ShardChannel> {
    FlakyChannel::Plan plan;
    plan.fault = FlakyChannel::Fault::kCorruptByte;
    plan.trigger_after = 2;
    plan.shared_budget = &budget;
    return std::make_unique<FlakyChannel>(std::move(inner), plan);
  };
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(result), OutputFingerprint(unsharded));
  if (budget.load() <= 0) {
    EXPECT_GT(RecoveryTotal(result.stats), 0);
  }
}

// A single transient fault early in the conversation: one retry with a
// respawned runner absorbs it, no shard degrades, and the output
// converges bit-identically.
TEST_F(ShardSupervisorTest, TransientFaultIsRetriedWithoutFallback) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions unsharded_options;
  unsharded_options.epsilon = 0.1;
  unsharded_options.num_threads = 2;
  DiscoveryResult unsharded = DiscoverOds(enc, unsharded_options);
  ASSERT_TRUE(unsharded.shard_status.ok());

  std::atomic<int> budget{1};
  DiscoveryOptions options = Options();
  options.shard_channel_decorator =
      [&](std::unique_ptr<ShardChannel> inner)
      -> std::unique_ptr<ShardChannel> {
    FlakyChannel::Plan plan;
    plan.fault = FlakyChannel::Fault::kCorruptByte;
    plan.trigger_after = 1;
    plan.shared_budget = &budget;
    return std::make_unique<FlakyChannel>(std::move(inner), plan);
  };
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(result), OutputFingerprint(unsharded));
  EXPECT_EQ(budget.load(), 0);
  EXPECT_GT(result.stats.shard_retries, 0);
  EXPECT_EQ(result.stats.shard_fallback_shards, 0);
}

// A tight run budget must bound the whole retry ladder, backoff parks
// included: with a persistent fault, a generous backoff base and a
// ~0.4 s budget, the run must return promptly — the supervisor clamps
// every park to the remaining deadline and exits the ladder the moment
// the deadline expires, instead of sleeping out the configured backoff
// schedule (which alone would cost many seconds across shards).
TEST_F(ShardSupervisorTest, TightBudgetBoundsBackoffParks) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions options = Options();
  options.shard_retry_backoff_ms = 30000.0;  // absurd on purpose
  options.time_budget_seconds = 0.4;
  options.shard_channel_decorator =
      [](std::unique_ptr<ShardChannel> inner)
      -> std::unique_ptr<ShardChannel> {
    FlakyChannel::Plan plan;
    plan.fault = FlakyChannel::Fault::kTornWrite;
    plan.trigger_after = 0;  // no budget: every attempt faults
    return std::make_unique<FlakyChannel>(std::move(inner), plan);
  };

  const auto start = std::chrono::steady_clock::now();
  DiscoveryResult result = DiscoverOds(enc, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Well under a single un-clamped park (capped at 2 s each, several
  // per shard); generous slack for loaded CI machines.
  EXPECT_LT(elapsed, 6.0);
  // The run ended in a coherent terminal state: either the deadline
  // surfaced as a partial result, or the persistent fault as a typed
  // error — never a hang (the bound above) or a crash.
  EXPECT_TRUE(result.timed_out || !result.shard_status.ok());
}

}  // namespace
}  // namespace aod
