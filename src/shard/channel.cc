#include "shard/channel.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/endian.h"
#include "shard/wire.h"

namespace aod {
namespace shard {

namespace {

using Clock = std::chrono::steady_clock;

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Milliseconds until `deadline`, clamped for poll(); -1 = no deadline.
int PollTimeoutMs(bool bounded, Clock::time_point deadline) {
  if (!bounded) return -1;
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(left.count(), 60'000));
}

}  // namespace

// ----------------------------------------------------------------- socket --

Result<std::unique_ptr<SocketShardChannel>> SocketShardChannel::Connect(
    const std::string& host, uint16_t port, double timeout_seconds,
    ChannelOptions options) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket"));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable shard host " + host);
  }

  // Non-blocking connect bounded by the timeout, then back to blocking
  // (Receive does its own poll-based waiting).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{fd, POLLOUT, 0};
    rc = ::poll(&pfd, 1, static_cast<int>(timeout_seconds * 1000.0));
    if (rc <= 0) {
      ::close(fd);
      return Status::IoError(rc == 0 ? "shard connect timed out"
                                     : ErrnoMessage("poll"));
    }
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      return Status::IoError(std::string("shard connect failed: ") +
                             std::strerror(err));
    }
  } else if (rc != 0) {
    ::close(fd);
    return Status::IoError(ErrnoMessage("connect"));
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Adopt(fd, options);
}

std::unique_ptr<SocketShardChannel> SocketShardChannel::Adopt(
    int fd, ChannelOptions options) {
  return std::unique_ptr<SocketShardChannel>(
      new SocketShardChannel(fd, options));
}

SocketShardChannel::SocketShardChannel(int fd, ChannelOptions options)
    : options_(options), fd_(fd), writer_([this] { WriterLoop(); }) {
  if (::pipe2(wake_fds_, O_CLOEXEC | O_NONBLOCK) != 0) {
    wake_fds_[0] = wake_fds_[1] = -1;  // degrade to timeout-bounded waits
  }
}

SocketShardChannel::~SocketShardChannel() {
  Close();
  if (writer_.joinable()) writer_.join();
  ::close(fd_);
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void SocketShardChannel::WriterLoop() {
  for (;;) {
    std::vector<uint8_t> frame;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      writer_cv_.wait(lock, [this] { return !outgoing_.empty() || closed_; });
      if (outgoing_.empty()) break;  // closed and drained
      frame = std::move(outgoing_.front());
      outgoing_.pop_front();
    }
    size_t sent = 0;
    while (sent < frame.size()) {
      // MSG_NOSIGNAL: a peer that died must surface as EPIPE, not kill
      // the process with SIGPIPE.
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        write_status_ = Status::IoError(ErrnoMessage("shard channel write"));
        outgoing_.clear();
        backlog_bytes_ = 0;
        return;
      }
      sent += static_cast<size_t>(n);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      backlog_bytes_ -= static_cast<int64_t>(frame.size());
    }
  }
  // Orderly flush complete: half-close so the peer's receiver sees EOF.
  ::shutdown(fd_, SHUT_WR);
}

Status SocketShardChannel::Send(std::vector<uint8_t> frame) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!write_status_.ok()) return write_status_;
    if (closed_) return Status::Closed("send on closed shard channel");
    bytes_sent_ += static_cast<int64_t>(frame.size());
    backlog_bytes_ += static_cast<int64_t>(frame.size());
    outgoing_.push_back(std::move(frame));
  }
  writer_cv_.notify_one();
  return Status::OK();
}

Status SocketShardChannel::ReadFully(uint8_t* out, size_t size, size_t* got) {
  *got = 0;
  const bool bounded = options_.receive_timeout_seconds > 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.receive_timeout_seconds));
  while (*got < size) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) return Status::Closed("shard channel closed");
    }
    pollfd pfds[2] = {{fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const nfds_t nfds = wake_fds_[0] >= 0 ? 2 : 1;
    const int rc = ::poll(pfds, nfds, PollTimeoutMs(bounded, deadline));
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(ErrnoMessage("poll"));
    }
    if (rc == 0) {
      if (Clock::now() >= deadline) {
        return Status::IoError("shard channel receive timed out");
      }
      continue;
    }
    if (pfds[0].revents == 0) continue;  // only the wake pipe fired
    const ssize_t n = ::read(fd_, out + *got, size - *got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Status::IoError(ErrnoMessage("shard channel read"));
    if (n == 0) return Status::OK();  // EOF; caller inspects *got
    *got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> SocketShardChannel::Receive() {
  uint8_t header[kFrameHeaderBytes];
  size_t got = 0;
  AOD_RETURN_NOT_OK(ReadFully(header, sizeof(header), &got));
  if (got == 0) {
    return Status::Closed("shard channel closed by peer");
  }
  if (got < sizeof(header)) {
    return Status::IoError("shard channel EOF mid-frame (header)");
  }
  // Sanity-check the length header before trusting it with an
  // allocation; full validation (checksum included) is DecodeFrame's.
  if (endian::LoadU32(header) != kWireMagic) {
    return Status::ParseError("shard byte stream desynchronized (bad magic)");
  }
  if (endian::LoadU16(header + 4) != kWireVersion) {
    return Status::ParseError("unsupported wire version on shard channel");
  }
  // Subtraction, not addition: `payload_size + header` could wrap a
  // hostile length into passing the cap and detonate the allocation.
  const uint64_t payload_size = endian::LoadU64(header + 8);
  if (options_.max_frame_bytes > 0) {
    const uint64_t cap = static_cast<uint64_t>(options_.max_frame_bytes);
    if (cap <= kFrameHeaderBytes ||
        payload_size > cap - kFrameHeaderBytes) {
      return Status::ParseError("frame exceeds max_frame_bytes");
    }
  }
  std::vector<uint8_t> frame(kFrameHeaderBytes +
                             static_cast<size_t>(payload_size));
  std::memcpy(frame.data(), header, sizeof(header));
  AOD_RETURN_NOT_OK(ReadFully(frame.data() + kFrameHeaderBytes,
                              static_cast<size_t>(payload_size), &got));
  if (got < payload_size) {
    return Status::IoError("shard channel EOF mid-frame (payload)");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    bytes_received_ += static_cast<int64_t>(frame.size());
  }
  return frame;
}

void SocketShardChannel::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return;
    closed_ = true;
  }
  writer_cv_.notify_all();
  if (wake_fds_[1] >= 0) {
    const uint8_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &one, 1);
  }
}

int64_t SocketShardChannel::bytes_sent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_sent_;
}

int64_t SocketShardChannel::bytes_received() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_received_;
}

int64_t SocketShardChannel::send_backlog_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return backlog_bytes_;
}

// --------------------------------------------------------------- listener --

Result<std::unique_ptr<SocketListener>> SocketListener::Bind(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Status::IoError(ErrnoMessage("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);  // 0 = ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError(ErrnoMessage("bind"));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return Status::IoError(ErrnoMessage("getsockname"));
  }
  if (::listen(fd, 128) != 0) {
    ::close(fd);
    return Status::IoError(ErrnoMessage("listen"));
  }
  // No fallback without the wake pipe: an acceptor that waits with no
  // timeout would never see Wake.
  int wake[2];
  if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) != 0) {
    ::close(fd);
    return Status::IoError(ErrnoMessage("pipe2"));
  }
  return std::unique_ptr<SocketListener>(
      new SocketListener(fd, ntohs(addr.sin_port), wake[0], wake[1]));
}

SocketListener::~SocketListener() {
  ::close(fd_);
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
}

void SocketListener::Wake() {
  const uint8_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &one, 1);
}

Result<int> SocketListener::AcceptFd(
    double timeout_seconds, const std::function<Status()>& still_waiting) {
  // Slice length between still_waiting checks: short enough that a child
  // that died at once costs milliseconds, long enough not to spin.
  constexpr int kSliceMs = 20;
  const bool bounded = timeout_seconds > 0.0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    pollfd pfds[2] = {{fd_, POLLIN, 0}, {wake_fds_[0], POLLIN, 0}};
    const int left = PollTimeoutMs(bounded, deadline);
    const int rc = ::poll(
        pfds, 2,
        still_waiting ? (left < 0 ? kSliceMs : std::min(left, kSliceMs))
                      : left);
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0) return Status::IoError(ErrnoMessage("poll"));
    if (pfds[1].revents != 0) return Status::Closed("listener woken");
    if (rc > 0) break;
    if (left == 0) return Status::IoError("shard runner never connected");
    if (still_waiting) AOD_RETURN_NOT_OK(still_waiting());
  }
  const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) return Status::IoError(ErrnoMessage("accept"));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace shard
}  // namespace aod
