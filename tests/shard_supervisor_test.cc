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
//     degrade to validation on the coordinator;
//   - the fan-out tests log every coordinator-side Send and Receive in
//     the order the coordinator made them, and pin that each level
//     hands every shard its batch before any reply is received — with
//     and without a fault on a reply after that fan-out.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "flaky_channel.h"
#include "gen/ncvoter_generator.h"
#include "od/discovery.h"
#include "shard/channel.h"
#include "shard/wire.h"
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

/// One coordinator-side channel call: which decorated channel (by
/// creation index), which direction, and the frame's type.
struct ChannelEvent {
  int channel = 0;
  bool send = false;
  shard::FrameType type = shard::FrameType::kPartitionBlock;
};

/// Every Send and Receive of every decorated channel, in one order.
/// The coordinator drives all of its channels from one thread, so the
/// log order is the order the coordinator made the calls in — no
/// timing enters it.
class EventLog {
 public:
  void Add(ChannelEvent e) {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(e);
  }
  std::vector<ChannelEvent> events() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

 private:
  mutable std::mutex mutex_;
  std::vector<ChannelEvent> events_;
};

/// A pass-through channel that logs each call once it returned. With
/// `fail_first_reply`, the first result chunk it receives is consumed
/// and reported as a typed IoError instead: a reply receive that fails
/// after the level's batches went out.
class LoggingChannel final : public ShardChannel {
 public:
  LoggingChannel(std::unique_ptr<ShardChannel> inner, int index,
                 EventLog* log, bool fail_first_reply)
      : inner_(std::move(inner)),
        index_(index),
        log_(log),
        fail_first_reply_(fail_first_reply) {}

  Status Send(std::vector<uint8_t> frame) override {
    const shard::FrameType type = TypeOf(frame);
    Status st = inner_->Send(std::move(frame));
    log_->Add({index_, /*send=*/true, type});
    return st;
  }

  Result<std::vector<uint8_t>> Receive() override {
    Result<std::vector<uint8_t>> frame = inner_->Receive();
    if (!frame.ok()) return frame;
    const shard::FrameType type = TypeOf(*frame);
    log_->Add({index_, /*send=*/false, type});
    if (fail_first_reply_ && type == shard::FrameType::kResultBatch) {
      fail_first_reply_ = false;
      return Status::IoError("injected reply receive fault");
    }
    return frame;
  }

  void Close() override { inner_->Close(); }
  int64_t bytes_sent() const override { return inner_->bytes_sent(); }
  int64_t bytes_received() const override { return inner_->bytes_received(); }

 private:
  static shard::FrameType TypeOf(const std::vector<uint8_t>& frame) {
    Result<shard::DecodedFrame> decoded = shard::DecodeFrame(frame);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return decoded.ok() ? decoded->type : shard::FrameType::kPartitionBlock;
  }

  std::unique_ptr<ShardChannel> inner_;
  const int index_;
  EventLog* const log_;
  bool fail_first_reply_;
};

/// Decorates every coordinator-side channel with a LoggingChannel that
/// logs into `log`; the channel created `fail_index`-th (0-based; -1 =
/// none) fails its first reply receive.
std::function<std::unique_ptr<ShardChannel>(std::unique_ptr<ShardChannel>)>
LoggingDecorator(EventLog* log, std::atomic<int>* created,
                 int fail_index = -1) {
  return [log, created, fail_index](std::unique_ptr<ShardChannel> inner)
             -> std::unique_ptr<ShardChannel> {
    const int index = created->fetch_add(1);
    return std::make_unique<LoggingChannel>(std::move(inner), index, log,
                                            index == fail_index);
  };
}

bool IsBatchSend(const ChannelEvent& e) {
  return e.send && e.type == shard::FrameType::kCandidateBatch;
}
bool IsReplyReceive(const ChannelEvent& e) {
  return !e.send && e.type == shard::FrameType::kResultBatch;
}

/// True when every spawned runner of this process has been reaped.
bool NoChildLeft() {
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
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


// The fan-out: at every level the coordinator sends both shards their
// batches before it receives the first reply on either channel, so the
// two runners validate at the same time. Checked from the coordinator's
// own call order, so it does not depend on timing, at one thread (no
// pool) and on a 2-worker pool; the output stays bit-identical to the
// unsharded run.
TEST_F(ShardSupervisorTest, EveryLevelSendsEveryBatchBeforeAnyReply) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions unsharded_options;
  unsharded_options.epsilon = 0.1;
  unsharded_options.num_threads = 1;
  DiscoveryResult unsharded = DiscoverOds(enc, unsharded_options);
  ASSERT_TRUE(unsharded.shard_status.ok());

  for (int threads : {1, 2}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));
    EventLog log;
    std::atomic<int> created{0};
    DiscoveryOptions options = Options();
    options.num_threads = threads;
    options.shard_channel_decorator = LoggingDecorator(&log, &created);
    DiscoveryResult result = DiscoverOds(enc, options);
    testing_util::ExpectServedByRunners(result);
    EXPECT_EQ(OutputFingerprint(result), OutputFingerprint(unsharded));
    ASSERT_EQ(created.load(), 2);

    // batches[c] is the number of levels channel c was sent; a reply
    // received on c answers its latest one, so at that point every
    // channel must already hold that level's batch.
    int batches[2] = {0, 0};
    int replies = 0;
    for (const ChannelEvent& e : log.events()) {
      if (IsBatchSend(e)) ++batches[e.channel];
      if (!IsReplyReceive(e)) continue;
      ++replies;
      EXPECT_EQ(batches[0], batches[1])
          << "a reply on channel " << e.channel
          << " was received before every shard held its level-"
          << batches[e.channel] << " batch";
    }
    EXPECT_EQ(batches[0], batches[1]);
    EXPECT_GE(batches[0], 2);  // more than one level was fanned out
    EXPECT_GE(replies, 2 * batches[0]);
  }
}

// A fault after the fan-out, supervised: both batches went out, then
// shard 1's reply receive fails. Shard 1 alone retries on a fresh
// attempt (a third channel), shard 0's already received reply is kept —
// shard 0 is never retried — and the output stays bit-identical.
TEST_F(ShardSupervisorTest, ReplyFaultAfterFanOutRetriesOnlyThatShard) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions unsharded_options;
  unsharded_options.epsilon = 0.1;
  unsharded_options.num_threads = 1;
  DiscoveryResult unsharded = DiscoverOds(enc, unsharded_options);
  ASSERT_TRUE(unsharded.shard_status.ok());

  EventLog log;
  std::atomic<int> created{0};
  DiscoveryOptions options = Options();
  options.num_threads = 1;
  options.shard_channel_decorator =
      LoggingDecorator(&log, &created, /*fail_index=*/1);
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
  EXPECT_EQ(OutputFingerprint(result), OutputFingerprint(unsharded));
  EXPECT_EQ(result.stats.shard_retries, 1);
  EXPECT_EQ(result.stats.shard_respawns, 1);
  EXPECT_EQ(result.stats.shard_fallback_shards, 0);
  EXPECT_EQ(result.stats.shard_footers_missing, 0);
  ASSERT_EQ(created.load(), 3);  // shard 0, shard 1, shard 1's respawn

  // The level-1 conversation up to the fault, in the coordinator's
  // order: both batches, then shard 0's whole reply, then the failing
  // receive on shard 1; after it, shard 1's respawn is sent the batch
  // again and answers it.
  const std::vector<ChannelEvent> events = log.events();
  size_t fault = events.size();
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].channel == 1 && IsReplyReceive(events[i])) {
      fault = i;
      break;
    }
  }
  ASSERT_LT(fault, events.size());
  int batches_before[3] = {0, 0, 0};
  int replies_before[3] = {0, 0, 0};
  for (size_t i = 0; i < fault; ++i) {
    if (IsBatchSend(events[i])) ++batches_before[events[i].channel];
    if (IsReplyReceive(events[i])) ++replies_before[events[i].channel];
  }
  EXPECT_EQ(batches_before[0], 1);
  EXPECT_EQ(batches_before[1], 1);
  EXPECT_GE(replies_before[0], 1);
  EXPECT_EQ(batches_before[2] + replies_before[2], 0);
  // Shard 0's reply was received only after shard 1 held its batch.
  for (size_t i = 0; i < fault; ++i) {
    if (events[i].channel == 1 && IsBatchSend(events[i])) break;
    EXPECT_FALSE(IsReplyReceive(events[i])) << "event " << i;
  }
  bool resent = false;
  bool answered = false;
  for (size_t i = fault + 1; i < events.size(); ++i) {
    if (events[i].channel != 2) continue;
    if (IsBatchSend(events[i])) resent = true;
    if (IsReplyReceive(events[i]) && resent) answered = true;
  }
  EXPECT_TRUE(resent);
  EXPECT_TRUE(answered);
}

// The same fault on shard 0 in strict mode: the typed error returns
// without a retry, and shard 1 — whose batch went out in the fan-out
// but whose reply is never received by the level — still answers the
// shutdown: Finish drains the stale reply ahead of the footer, collects
// both footers and reaps both runners.
TEST_F(ShardSupervisorTest, StrictReplyFaultAfterFanOutStillCollectsFooters) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);
  EventLog log;
  std::atomic<int> created{0};
  DiscoveryOptions options = Options();
  options.num_threads = 1;
  options.shard_max_retries = 0;
  options.shard_channel_decorator =
      LoggingDecorator(&log, &created, /*fail_index=*/0);
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_EQ(result.shard_status.code(), StatusCode::kIoError)
      << result.shard_status.ToString();
  EXPECT_NE(result.shard_status.message().find("injected"),
            std::string::npos);
  EXPECT_EQ(result.stats.shard_retries, 0);
  EXPECT_EQ(result.stats.shard_footers_missing, 0);
  EXPECT_EQ(created.load(), 2);
  EXPECT_TRUE(NoChildLeft());

  const std::vector<ChannelEvent> events = log.events();
  int batches[2] = {0, 0};
  bool fault_seen = false;
  bool stale_reply_drained = false;
  bool footer[2] = {false, false};
  for (const ChannelEvent& e : events) {
    if (IsBatchSend(e)) ++batches[e.channel];
    if (IsReplyReceive(e) && e.channel == 0 && !fault_seen) {
      // The failing receive: every shard already held its batch.
      fault_seen = true;
      EXPECT_EQ(batches[0], 1);
      EXPECT_EQ(batches[1], 1);
    }
    if (IsReplyReceive(e) && e.channel == 1) stale_reply_drained = true;
    if (!e.send && e.type == shard::FrameType::kStatsFooter) {
      footer[e.channel] = true;
    }
  }
  EXPECT_TRUE(fault_seen);
  EXPECT_TRUE(stale_reply_drained);
  EXPECT_TRUE(footer[0]);
  EXPECT_TRUE(footer[1]);
}

}  // namespace
}  // namespace aod
