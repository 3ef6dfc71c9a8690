// Fail-stop shard execution under injected faults.
//
// Every shard fault is a typed abort: there is no retry, respawn or
// validation on the coordinator. tests/shard_channel_conformance_test.cc
// pins the fault classes one by one; this suite pins the coordinator's
// call order around them:
//
//   - a persistent fault on every link fails the run with a typed error;
//   - the fan-out tests log every coordinator-side Send and Receive in
//     the order the coordinator made them, and pin that each level
//     hands every shard its batch before any reply is received — with
//     and without a fault on a reply after that fan-out, where Finish
//     must still drain the stale reply and collect every footer.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
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

/// Runs over spawned runner processes. A missing runner binary fails
/// the suite (so the gate cannot pass without running) unless
/// AOD_ALLOW_MISSING_SHARD_RUNNER is set.
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
  /// A 2-shard run with a 1 s I/O bound, so a lost frame surfaces fast.
  DiscoveryOptions Options() const {
    DiscoveryOptions options;
    options.epsilon = 0.1;
    options.num_shards = 2;
    options.num_threads = 2;
    options.shard_runner_path = runner_;
    options.shard_io_timeout_seconds = 1.0;
    return options;
  }
  std::string runner_;
};

// Every link's first send is torn: the run fails with a typed error
// and merges nothing.
TEST_F(ShardSupervisorTest, PersistentFaultFailsStop) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options = Options();
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
  EXPECT_TRUE(result.dependencies.empty());
  EXPECT_TRUE(NoChildLeft());
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
    ASSERT_TRUE(result.shard_status.ok()) << result.shard_status.ToString();
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

// A fault after the fan-out: both batches went out, then shard 0's
// reply receive fails. The typed error returns, and shard 1 — whose
// reply is never received by the level — still answers the shutdown:
// Finish drains the stale reply ahead of the footer, collects both
// footers and reaps both runners.
TEST_F(ShardSupervisorTest, ReplyFaultAfterFanOutStillCollectsFooters) {
  Table t = GenerateNcVoterTable(120, 4, 7);
  EncodedTable enc = EncodeTable(t);
  EventLog log;
  std::atomic<int> created{0};
  DiscoveryOptions options = Options();
  options.num_threads = 1;
  options.shard_channel_decorator =
      LoggingDecorator(&log, &created, /*fail_index=*/0);
  DiscoveryResult result = DiscoverOds(enc, options);
  ASSERT_EQ(result.shard_status.code(), StatusCode::kIoError)
      << result.shard_status.ToString();
  EXPECT_NE(result.shard_status.message().find("injected"),
            std::string::npos);
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
