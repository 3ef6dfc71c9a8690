// One observable contract, every channel endpoint.
//
// Every SocketShardChannel endpoint — a localhost TCP socket and a pipe
// pair — must behave the same under the coordinator, so one
// parameterized suite holds both to the channel contract: exact in-order
// delivery, frame reassembly across partial reads, drain-then-kClosed
// shutdown (including waking a *blocked* receiver), typed oversized-
// frame rejection, and typed receive timeouts. Byte-level stream fault
// tests (EOF mid-frame, stream desync) follow, and the FlakyChannel
// fault-injection tests at the bottom pin the coordinator's failure
// contract: every injected fault yields a typed error from DiscoverOds —
// no hang, no crash, no partially merged level.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "flaky_channel.h"
#include "gen/ncvoter_generator.h"
#include "od/discovery.h"
#include "shard/channel.h"
#include "shard/wire.h"
#include "test_util.h"

namespace aod {
namespace {

using shard::ChannelOptions;
using shard::ShardChannel;
using shard::SocketListener;
using shard::SocketShardChannel;
using testing_util::FlakyChannel;

/// A connected sender/receiver pair of one transport, plus everything
/// that keeps it alive.
struct Endpoints {
  ShardChannel* sender = nullptr;
  ShardChannel* receiver = nullptr;
  std::vector<std::unique_ptr<ShardChannel>> owned;
  std::unique_ptr<SocketListener> listener;
};

using EndpointFactory =
    std::function<std::unique_ptr<Endpoints>(ChannelOptions)>;

std::unique_ptr<Endpoints> MakeTcp(ChannelOptions options) {
  auto endpoints = std::make_unique<Endpoints>();
  Result<std::unique_ptr<SocketListener>> listener = SocketListener::Bind();
  AOD_CHECK(listener.ok());
  endpoints->listener = std::move(listener).value();
  Result<std::unique_ptr<SocketShardChannel>> client =
      SocketShardChannel::Connect("127.0.0.1", endpoints->listener->port(),
                                  5.0, options);
  AOD_CHECK(client.ok());
  Result<int> accepted = endpoints->listener->AcceptFd(5.0);
  AOD_CHECK(accepted.ok());
  auto server = SocketShardChannel::Adopt(*accepted, options);
  endpoints->sender = client->get();
  endpoints->receiver = server.get();
  endpoints->owned.push_back(std::move(client).value());
  endpoints->owned.push_back(std::move(server));
  return endpoints;
}

std::unique_ptr<Endpoints> MakePipe(ChannelOptions options) {
  // The stdio path of shard_runner_main: a unidirectional fd pair.
  auto endpoints = std::make_unique<Endpoints>();
  int fds[2];
  AOD_CHECK(::pipe(fds) == 0);
  int devnull[2];
  AOD_CHECK(::pipe(devnull) == 0);
  auto write_end = SocketShardChannel::AdoptPair(devnull[0], fds[1], options);
  auto read_end = SocketShardChannel::AdoptPair(fds[0], devnull[1], options);
  endpoints->sender = write_end.get();
  endpoints->receiver = read_end.get();
  endpoints->owned.push_back(std::move(write_end));
  endpoints->owned.push_back(std::move(read_end));
  return endpoints;
}

struct TransportParam {
  const char* name;
  EndpointFactory factory;
};

class ShardChannelConformanceTest
    : public ::testing::TestWithParam<TransportParam> {};

/// A realistic sealed frame with `payload_bytes` of deterministic
/// payload — what actually crosses the seam in production.
std::vector<uint8_t> TestFrame(size_t payload_bytes, uint8_t salt = 0) {
  shard::WireWriter writer;
  for (size_t i = 0; i < payload_bytes; ++i) {
    writer.PutU8(static_cast<uint8_t>((i * 131 + salt) & 0xff));
  }
  return writer.SealFrame(shard::FrameType::kCandidateBatch);
}

TEST_P(ShardChannelConformanceTest, DeliversFramesInOrderWithExactBytes) {
  ChannelOptions options;
  options.receive_timeout_seconds = 10.0;
  auto endpoints = GetParam().factory(options);
  // Sizes straddle typical pipe/socket buffer boundaries so stream
  // transports must reassemble across partial reads; empty payloads pin
  // the header-only frame boundary.
  const size_t sizes[] = {0, 1, 24, 1000, 65536, 200000, 0, 3};
  std::vector<std::vector<uint8_t>> sent;
  for (size_t i = 0; i < std::size(sizes); ++i) {
    sent.push_back(TestFrame(sizes[i], static_cast<uint8_t>(i)));
    ASSERT_TRUE(endpoints->sender->Send(sent.back()).ok()) << i;
  }
  for (size_t i = 0; i < sent.size(); ++i) {
    Result<std::vector<uint8_t>> got = endpoints->receiver->Receive();
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, sent[i]) << "frame " << i << " not byte-identical";
    EXPECT_TRUE(shard::DecodeFrame(*got).ok());
  }
  EXPECT_GT(endpoints->sender->bytes_sent(), 0);
  EXPECT_EQ(endpoints->receiver->bytes_received(),
            endpoints->sender->bytes_sent());
}

TEST_P(ShardChannelConformanceTest, CloseDrainsQueuedFramesThenReportsClosed) {
  ChannelOptions options;
  options.receive_timeout_seconds = 10.0;
  auto endpoints = GetParam().factory(options);
  ASSERT_TRUE(endpoints->sender->Send(TestFrame(100)).ok());
  ASSERT_TRUE(endpoints->sender->Send(TestFrame(200)).ok());
  endpoints->sender->Close();
  EXPECT_TRUE(endpoints->receiver->Receive().ok());
  EXPECT_TRUE(endpoints->receiver->Receive().ok());
  Result<std::vector<uint8_t>> after = endpoints->receiver->Receive();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kClosed);
  // Send after close is refused with the same typed signal.
  Status send_after = endpoints->sender->Send(TestFrame(1));
  ASSERT_FALSE(send_after.ok());
  EXPECT_EQ(send_after.code(), StatusCode::kClosed);
}

TEST_P(ShardChannelConformanceTest, CloseWakesBlockedReceiver) {
  // The shutdown-while-blocked-receive story: a receiver parked inside
  // Receive() must wake with kClosed when the sender closes — never
  // strand (part of the channel contract, see channel.h).
  ChannelOptions options;
  options.receive_timeout_seconds = 30.0;
  auto endpoints = GetParam().factory(options);
  Status observed = Status::OK();
  std::thread receiver([&] {
    Result<std::vector<uint8_t>> got = endpoints->receiver->Receive();
    observed = got.status();
  });
  // Give the receiver time to actually park in Receive().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  endpoints->sender->Close();
  receiver.join();
  EXPECT_EQ(observed.code(), StatusCode::kClosed) << observed.ToString();
}

TEST_P(ShardChannelConformanceTest, LocalCloseWakesBlockedReceiver) {
  // The other half of never-strand: closing the *receiver's own*
  // endpoint (local teardown, not peer shutdown) must also wake a
  // blocked Receive with kClosed — stream endpoints use a self-pipe
  // for this.
  ChannelOptions options;
  options.receive_timeout_seconds = 30.0;
  auto endpoints = GetParam().factory(options);
  Status observed = Status::OK();
  std::thread receiver([&] {
    Result<std::vector<uint8_t>> got = endpoints->receiver->Receive();
    observed = got.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  endpoints->receiver->Close();
  receiver.join();
  EXPECT_EQ(observed.code(), StatusCode::kClosed) << observed.ToString();
}

TEST_P(ShardChannelConformanceTest, OversizedFrameRejectedWithTypedError) {
  ChannelOptions options;
  options.max_frame_bytes = 4096;
  options.receive_timeout_seconds = 10.0;
  auto endpoints = GetParam().factory(options);
  // The stream accepts the send and refuses at Receive from the length
  // header, before allocating the payload.
  ASSERT_TRUE(endpoints->sender->Send(TestFrame(8192)).ok());
  Result<std::vector<uint8_t>> got = endpoints->receiver->Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError)
      << got.status().ToString();
}

TEST_P(ShardChannelConformanceTest, ReceiveTimeoutIsTypedNotAHang) {
  ChannelOptions options;
  options.receive_timeout_seconds = 0.05;
  auto endpoints = GetParam().factory(options);
  Result<std::vector<uint8_t>> got = endpoints->receiver->Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError)
      << got.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ShardChannelConformanceTest,
    ::testing::Values(TransportParam{"tcp", MakeTcp},
                      TransportParam{"pipe", MakePipe}),
    [](const ::testing::TestParamInfo<TransportParam>& info) {
      return info.param.name;
    });

// ------------------------------------------- byte-level stream faults --

TEST(SocketChannelFaultTest, EofMidFrameIsTypedNotAHang) {
  Result<std::unique_ptr<SocketListener>> listener = SocketListener::Bind();
  ASSERT_TRUE(listener.ok());
  ChannelOptions options;
  options.receive_timeout_seconds = 5.0;
  Result<std::unique_ptr<SocketShardChannel>> client =
      SocketShardChannel::Connect("127.0.0.1", (*listener)->port(), 5.0,
                                  options);
  ASSERT_TRUE(client.ok());
  Result<int> accepted = (*listener)->AcceptFd(5.0);
  ASSERT_TRUE(accepted.ok());
  auto receiver = SocketShardChannel::Adopt(*accepted, options);

  // A valid header promising 1000 payload bytes, but the stream dies
  // after 100: the receiver must report EOF mid-frame, not hang and not
  // deliver a short frame.
  std::vector<uint8_t> frame = TestFrame(1000);
  {
    // Raw byte access: a second plain socket to the same receiver is not
    // possible (connection-oriented), so send the prefix through the
    // channel-owning fd by truncating at the sender: close the sender
    // channel after a raw partial write is not exposed — instead build
    // the prefix as a complete write followed by sender destruction.
    std::vector<uint8_t> prefix(frame.begin(), frame.begin() + 124);
    ASSERT_TRUE((*client)->Send(std::move(prefix)).ok());
  }
  client->reset();  // writer flushes the prefix, then FIN
  Result<std::vector<uint8_t>> got = receiver->Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kIoError)
      << got.status().ToString();
  EXPECT_NE(got.status().message().find("mid-frame"), std::string::npos);
}

TEST(SocketChannelFaultTest, DesynchronizedStreamIsRejected) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ChannelOptions options;
  options.receive_timeout_seconds = 5.0;
  int devnull[2];
  ASSERT_EQ(::pipe(devnull), 0);
  auto receiver = SocketShardChannel::AdoptPair(fds[0], devnull[1], options);
  // 24 bytes of garbage where a header should be: the channel must
  // refuse to trust the length field of a stream that lost framing.
  std::vector<uint8_t> garbage(shard::kFrameHeaderBytes, 0xab);
  ASSERT_EQ(::write(fds[1], garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  Result<std::vector<uint8_t>> got = receiver->Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  ::close(fds[1]);
  ::close(devnull[0]);
}

TEST(SocketChannelFaultTest, HostileLengthHeaderRejectedWithoutAllocation) {
  // Valid magic and version but a near-UINT64_MAX declared payload: the
  // receiver must reject from the header — wrapping the size arithmetic
  // or trusting it with an allocation would be an OOM bomb.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int devnull[2];
  ASSERT_EQ(::pipe(devnull), 0);
  ChannelOptions options;
  options.receive_timeout_seconds = 5.0;
  auto receiver = SocketShardChannel::AdoptPair(fds[0], devnull[1], options);
  std::vector<uint8_t> header = TestFrame(0);  // pristine 24-byte header
  header.resize(shard::kFrameHeaderBytes);
  for (int i = 8; i < 16; ++i) header[static_cast<size_t>(i)] = 0xff;
  ASSERT_EQ(::write(fds[1], header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  Result<std::vector<uint8_t>> got = receiver->Receive();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kParseError);
  ::close(fds[1]);
  ::close(devnull[0]);
}

TEST(SocketChannelFaultTest, PartialWritesAreReassembled) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ChannelOptions options;
  options.receive_timeout_seconds = 10.0;
  int devnull[2];
  ASSERT_EQ(::pipe(devnull), 0);
  auto receiver = SocketShardChannel::AdoptPair(fds[0], devnull[1], options);
  const std::vector<uint8_t> frame = TestFrame(5000);
  std::thread dripper([&] {
    // 7-byte trickle across frame boundaries: the receiver sees many
    // partial reads and must still reassemble the exact frame.
    for (size_t at = 0; at < frame.size(); at += 7) {
      const size_t n = std::min<size_t>(7, frame.size() - at);
      ASSERT_EQ(::write(fds[1], frame.data() + at, n),
                static_cast<ssize_t>(n));
      if (at % 700 == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  Result<std::vector<uint8_t>> got = receiver->Receive();
  dripper.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, frame);
  ::close(fds[1]);
  ::close(devnull[0]);
}

// -------------------------------------- coordinator fault injection --

/// A fault-injection discovery run: every coordinator-side endpoint is
/// wrapped in a FlakyChannel armed with `plan`.
DiscoveryResult RunWithFault(const EncodedTable& table,
                             FlakyChannel::Plan plan) {
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.num_threads = 2;
  options.num_shards = 2;
  options.shard_runner_path = testing_util::RunnerBinaryPath();
  // Short timeout: a dropped frame must surface as a typed timeout in
  // test time, not in the production default.
  options.shard_io_timeout_seconds = 1.0;
  // Strict mode: this suite pins the PRE-supervision failure contract —
  // any injected fault is a typed fail-stop abort, the behavior
  // shard_max_retries == 0 promises. The supervised-recovery
  // matrix (same faults, run completes) lives in
  // tests/shard_supervisor_test.cc.
  options.shard_max_retries = 0;
  options.shard_channel_decorator =
      [plan](std::unique_ptr<shard::ShardChannel> inner)
      -> std::unique_ptr<shard::ShardChannel> {
    return std::make_unique<FlakyChannel>(std::move(inner), plan);
  };
  return DiscoverOds(table, options);
}

class CoordinatorFaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (testing_util::RunnerBinaryPath().empty()) {
      GTEST_SKIP() << "shard_runner_main not found next to the test binary";
    }
  }
};

TEST_F(CoordinatorFaultInjectionTest, EveryFaultYieldsTypedErrorNoHang) {
  Table t = GenerateNcVoterTable(200, 5, 7);
  EncodedTable enc = EncodeTable(t);

  DiscoveryOptions clean_options;
  clean_options.epsilon = 0.1;
  clean_options.num_threads = 2;
  DiscoveryResult clean = DiscoverOds(enc, clean_options);
  ASSERT_TRUE(clean.shard_status.ok());

  // Triggers place each fault mid-run, after at least one level merged
  // cleanly. Send-side faults count the coordinator's physical sends —
  // runners first get the config and table frames, then the 5 base
  // partitions ship as ONE kBatch envelope, then the level-1 candidate
  // batch — so the send trigger lands the fault on the level-2 batch.
  // Receive-side faults count the coordinator socket's reply frames: 2
  // reply chunks pass, the level-3 reply is mangled.
  const int send_trigger = 4;
  const int receive_trigger = 2;
  struct FaultCase {
    FlakyChannel::Fault fault;
    int trigger_after;
  };
  const FaultCase faults[] = {
      {FlakyChannel::Fault::kTornWrite, send_trigger},
      {FlakyChannel::Fault::kShortRead, receive_trigger},
      {FlakyChannel::Fault::kCorruptByte, receive_trigger},
      {FlakyChannel::Fault::kDropFrame, send_trigger}};
  for (const FaultCase& c : faults) {
    SCOPED_TRACE(static_cast<int>(c.fault));
    FlakyChannel::Plan plan;
    plan.fault = c.fault;
    plan.trigger_after = c.trigger_after;
    DiscoveryResult faulted = RunWithFault(enc, plan);

    // Typed error, never a hang (the run returned) and never a crash.
    ASSERT_FALSE(faulted.shard_status.ok());
    EXPECT_NE(faulted.shard_status.code(), StatusCode::kOk);
    // The clean prefix — at least level 1 — was merged and reported.
    EXPECT_GE(faulted.stats.levels_processed, 1);

    // No partial merge: whatever prefix was reported is coherent with
    // its own stats and is a subset of the clean run.
    EXPECT_LE(faulted.CountOfKind(DependencyKind::kOc),
              clean.CountOfKind(DependencyKind::kOc));
    EXPECT_LE(faulted.CountOfKind(DependencyKind::kOfd),
              clean.CountOfKind(DependencyKind::kOfd));
    EXPECT_EQ(faulted.stats.TotalOcs(),
              faulted.CountOfKind(DependencyKind::kOc));
    EXPECT_EQ(faulted.stats.TotalOfds(),
              faulted.CountOfKind(DependencyKind::kOfd));
    for (const DiscoveredDependency& d : faulted.dependencies) {
      EXPECT_LE(d.level, faulted.stats.levels_processed);
    }
  }
}

TEST_F(CoordinatorFaultInjectionTest, FaultDuringBaseShippingIsTyped) {
  Table t = GenerateNcVoterTable(120, 4, 3);
  EncodedTable enc = EncodeTable(t);
  FlakyChannel::Plan plan;
  plan.fault = FlakyChannel::Fault::kTornWrite;
  plan.trigger_after = 0;  // the first bootstrap frame itself is torn
  DiscoveryResult faulted = RunWithFault(enc, plan);
  ASSERT_FALSE(faulted.shard_status.ok());
  EXPECT_TRUE(faulted.dependencies.empty());
}

}  // namespace
}  // namespace aod
