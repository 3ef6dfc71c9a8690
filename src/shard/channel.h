// Byte-level transport between the shard coordinator and one shard
// runner process.
//
// A ShardChannel moves opaque, already-framed byte vectors (see wire.h).
// The one production implementation is SocketShardChannel, a
// full-duplex byte stream over a localhost TCP socket (or a pipe pair);
// the interface stays minimal (send, blocking receive, close) so that
// test decorators (tests/flaky_channel.h) can wrap an endpoint without
// touching the coordinator, the runner, or any encoder: everything
// protocol-level lives in the frames themselves (versioning, typing,
// checksums). A shard that degrades to validation on the coordinator
// uses no channel at all (supervisor.h).
//
// Shutdown contract (every endpoint):
//   - Close() stops further sends; frames already accepted remain
//     receivable ("drain" semantics).
//   - Receive() on a closed-and-drained channel returns StatusCode::
//     kClosed — the receiver's orderly end-of-conversation signal,
//     distinct from kIoError (transport broke) and kParseError (byte
//     stream violated the frame format).
//   - A receiver *blocked* in Receive() when Close() happens wakes up
//     and returns kClosed; Close never strands a blocked receiver
//     (tests/shard_channel_conformance_test pins this for the TCP and
//     pipe endpoints).
//   - Send() after Close() returns kClosed.
//
// The stream rejects a frame larger than ChannelOptions::max_frame_bytes
// from its length header, with a typed error and before any allocation,
// and honors receive_timeout_seconds, so a receiver never hangs on a
// peer that died silently.
#ifndef AOD_SHARD_CHANNEL_H_
#define AOD_SHARD_CHANNEL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"

namespace aod {
namespace shard {

/// Receiver-side protection limits, shared by every transport.
struct ChannelOptions {
  /// Frames whose total size (header + payload) exceeds this are
  /// rejected with kParseError before the payload is read or allocated.
  int64_t max_frame_bytes = 1LL << 30;
  /// Receive() fails with kIoError once this much time passes without a
  /// complete frame arriving. 0 = wait forever (coordinator and runner
  /// always set a bound).
  double receive_timeout_seconds = 0.0;
};

class ShardChannel {
 public:
  virtual ~ShardChannel() = default;

  /// Enqueues one frame. Fails with kClosed once the channel is closed.
  virtual Status Send(std::vector<uint8_t> frame) = 0;

  /// Blocks until a frame is available and returns it. Once the channel
  /// is closed and drained, returns kClosed — the receiver's shutdown
  /// signal (see the contract above).
  virtual Result<std::vector<uint8_t>> Receive() = 0;

  /// Stops further sends; queued frames remain receivable. Wakes any
  /// receiver blocked in Receive().
  virtual void Close() = 0;

  /// Total payload+header bytes accepted by Send — the shipping-volume
  /// stat surfaced per shard in DiscoveryStats.
  virtual int64_t bytes_sent() const = 0;

  /// Total frame bytes returned by Receive. On a full-duplex endpoint
  /// bytes_sent + bytes_received is the link's total traffic as seen
  /// from this side.
  virtual int64_t bytes_received() const = 0;
};

/// Writer-side frame coalescing: buffers small frames and ships them as
/// one kBatch envelope, so byte transports pay one syscall + header per
/// flush instead of per frame. Add() auto-flushes once the buffered
/// bytes reach the threshold; callers flush explicitly on protocol
/// boundaries (end of a level's candidates, final result chunk). A
/// flush of one pending frame sends it unwrapped — the envelope only
/// exists where it saves something — so batching never changes what a
/// decoder has to accept, only how frames are grouped in transit.
///
/// Envelope boundaries are a pure function of the frame sequence (sizes
/// against a fixed threshold), so they never depend on timing. Not thread-safe; each link's sender is
/// driven by one thread.
class BatchingFrameSender {
 public:
  static constexpr size_t kDefaultFlushThresholdBytes = 64 * 1024;

  explicit BatchingFrameSender(
      ShardChannel* channel,
      size_t flush_threshold_bytes = kDefaultFlushThresholdBytes)
      : channel_(channel), threshold_(flush_threshold_bytes) {}
  AOD_DISALLOW_COPY_AND_ASSIGN(BatchingFrameSender);

  /// Buffers one complete frame; flushes if the buffer reaches the
  /// threshold. A failed flush surfaces here.
  Status Add(std::vector<uint8_t> frame);

  /// Sends everything buffered: nothing pending is a no-op, one frame
  /// goes unwrapped, two or more become a single kBatch envelope.
  Status Flush();

  /// Buffered (unsent) frame count — for tests.
  size_t pending_frames() const { return pending_.size(); }

 private:
  ShardChannel* const channel_;
  const size_t threshold_;
  size_t pending_bytes_ = 0;
  std::vector<std::vector<uint8_t>> pending_;
};

/// The logical frames one physical frame carries: the members of a
/// kBatch envelope (validated checksum-first via DecodeFrame), else the
/// frame itself, left for its consumer's DecodeFrame to judge. The one
/// envelope-unwrap rule, shared by LogicalFrameReceiver and the
/// supervisor's fallback seeding.
Result<std::vector<std::vector<uint8_t>>> SplitLogicalFrames(
    std::vector<uint8_t> frame);

/// Receiver-side mirror of BatchingFrameSender: yields logical frames,
/// transparently unwrapping kBatch envelopes (validated checksum-first
/// via DecodeFrame before any inner frame is surfaced). Consumers keep
/// seeing exactly the frame sequence the sender produced, enveloped or
/// not. Not thread-safe.
class LogicalFrameReceiver {
 public:
  explicit LogicalFrameReceiver(ShardChannel* channel) : channel_(channel) {}
  AOD_DISALLOW_COPY_AND_ASSIGN(LogicalFrameReceiver);

  /// Next logical frame: a pending envelope member if one is queued,
  /// otherwise whatever the channel delivers (unwrapped on the fly).
  Result<std::vector<uint8_t>> Receive();

 private:
  ShardChannel* const channel_;
  std::deque<std::vector<uint8_t>> pending_;
};

/// Full-duplex stream transport over a pair of file descriptors —
/// a connected localhost TCP socket (the off-box seam) or a pipe pair
/// (the stdio mode of shard_runner_main). Frames are length-delimited
/// by their own wire header: Receive reads the 24-byte header, sanity-
/// checks magic/version/declared size against max_frame_bytes, then
/// reads exactly the payload, handling partial reads and EINTR; a byte
/// stream that ends mid-frame yields kIoError ("EOF mid-frame"), a
/// clean EOF at a frame boundary yields kClosed.
///
/// Send never blocks on the peer: frames are handed to a dedicated
/// writer thread with an unbounded queue, so a coordinator can queue a
/// whole conversation of arbitrarily large frames before its peer reads
/// any of them without deadlocking on kernel socket buffers. A write
/// error is latched and surfaced by the next Send.
class SocketShardChannel final : public ShardChannel {
 public:
  /// Connects to host:port (blocking, bounded by timeout_seconds).
  static Result<std::unique_ptr<SocketShardChannel>> Connect(
      const std::string& host, uint16_t port, double timeout_seconds,
      ChannelOptions options = {});

  /// Wraps an already-connected socket; takes ownership of `fd`.
  static std::unique_ptr<SocketShardChannel> Adopt(int fd,
                                                   ChannelOptions options = {});

  /// Wraps a read fd and a write fd (e.g. stdin/stdout of a runner
  /// process, or the ends of two pipes); takes ownership of both.
  static std::unique_ptr<SocketShardChannel> AdoptPair(
      int read_fd, int write_fd, ChannelOptions options = {});

  ~SocketShardChannel() override;
  AOD_DISALLOW_COPY_AND_ASSIGN(SocketShardChannel);

  Status Send(std::vector<uint8_t> frame) override;
  Result<std::vector<uint8_t>> Receive() override;
  void Close() override;
  int64_t bytes_sent() const override;
  int64_t bytes_received() const override;

  /// Bytes accepted by Send but not yet written to the fd — the depth of
  /// the writer thread's queue. The queue itself is unbounded (so a
  /// single-threaded coordinator/runner pair can never deadlock on
  /// kernel buffers); a server streaming results to untrusted clients
  /// polls this and drops the connection of a reader that stops reading,
  /// which is where the slow-reader bound belongs (src/serve/server.cc).
  int64_t send_backlog_bytes() const;

 private:
  SocketShardChannel(int read_fd, int write_fd, bool is_socket,
                     ChannelOptions options);

  void WriterLoop();
  /// Reads exactly `size` bytes with poll-bounded waits. `*got` is the
  /// byte count actually read when the stream ended early. Returns
  /// kClosed when Close() is called on *this* endpoint mid-wait (the
  /// wake pipe) — the local half of the never-strand-a-receiver rule.
  Status ReadFully(uint8_t* out, size_t size, size_t* got);

  const ChannelOptions options_;
  const int read_fd_;
  const int write_fd_;
  /// Same fd on both sides and shutdown(SHUT_WR) applies (TCP); pipes
  /// close the write fd instead.
  const bool is_socket_;
  /// Self-pipe: Close() writes a byte so a Receive blocked in poll on
  /// this endpoint wakes immediately with kClosed.
  int wake_fds_[2] = {-1, -1};

  mutable std::mutex mutex_;
  std::condition_variable writer_cv_;
  std::deque<std::vector<uint8_t>> outgoing_;
  Status write_status_;
  bool closed_ = false;
  /// Set by WriterLoop when the pipe-mode orderly drain closed
  /// write_fd_ itself (pipes have no half-close); tells the destructor
  /// not to close the fd number a second time.
  bool write_fd_closed_ = false;
  int64_t bytes_sent_ = 0;
  int64_t bytes_received_ = 0;
  /// Enqueued-but-unwritten bytes, including a frame mid-write; zeroed
  /// when a write error abandons the queue.
  int64_t backlog_bytes_ = 0;
  std::thread writer_;
};

/// Accepts coordinator-side connections for the process transport and
/// for the serving layer. Binds 127.0.0.1 on an ephemeral port (or
/// a requested one); never listens off-loopback.
class SocketListener {
 public:
  static Result<std::unique_ptr<SocketListener>> Bind(uint16_t port = 0);
  ~SocketListener();
  AOD_DISALLOW_COPY_AND_ASSIGN(SocketListener);

  uint16_t port() const { return port_; }

  /// Accepts one connection (poll-bounded); the returned fd is owned by
  /// the caller (hand it to SocketShardChannel::Adopt). With
  /// `still_waiting` set, the wait is polled in short slices and the
  /// check runs between them; a non-OK check ends the wait with its
  /// status — how SpawnRunner notices a child that exited instead of
  /// connecting without waiting out the whole timeout.
  Result<int> AcceptFd(double timeout_seconds,
                       const std::function<Status()>& still_waiting = {});

 private:
  SocketListener(int fd, uint16_t port) : fd_(fd), port_(port) {}
  const int fd_;
  const uint16_t port_;
};

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_CHANNEL_H_
