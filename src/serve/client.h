// Client side of the discovery-as-a-service protocol.
//
// A DiscoveryClient owns one connection to a DiscoveryServer and speaks
// the serve frame vocabulary (serve_wire.h) over it. The API is
// deliberately synchronous — Submit blocks until the server's
// ack/rejection, Await blocks until the job's terminal result — because
// the server already multiplexes: a caller that wants concurrency opens
// several clients (or several jobs on one client and Awaits them in
// submission order; frames for different jobs interleave freely and the
// client demultiplexes by job id).
//
// Typed failure surface: Submit returns kOverloaded / kShuttingDown /
// kInvalidArgument exactly as the server rejected the job, so callers
// can branch (retry after backoff, fail over, fix the request). A job
// that was admitted always resolves through Await with a full
// DiscoveryResult — cancelled or deadline-hit jobs resolve with the
// corresponding flags set, not with an error.
#ifndef AOD_SERVE_CLIENT_H_
#define AOD_SERVE_CLIENT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "data/encoder.h"
#include "od/discovery.h"
#include "serve/serve_wire.h"
#include "shard/channel.h"

namespace aod {
namespace serve {

struct ClientOptions {
  double connect_timeout_seconds = 10.0;
  /// Bound on every receive while awaiting acks/results; must exceed
  /// the longest expected job (0 = wait forever).
  double io_timeout_seconds = 600.0;
  int64_t max_frame_bytes = 1LL << 30;
};

class DiscoveryClient {
 public:
  using Options = ClientOptions;

  static Result<std::unique_ptr<DiscoveryClient>> Connect(
      const std::string& host, uint16_t port, const Options& options = {});
  AOD_DISALLOW_COPY_AND_ASSIGN(DiscoveryClient);

  /// Ships the table + options and blocks until the server answers.
  /// Returns the job id, or the server's typed rejection. Only the
  /// serializable options subset travels (see WireJobOptions);
  /// `deadline_seconds` (0 = none) rides time_budget_seconds.
  ///
  /// A table this connection already uploaded (and the server acked)
  /// travels as its 16-byte TableDigest instead of the full block. If
  /// the server no longer resolves the reference (typed kNotFound: the
  /// table was evicted), Submit forgets it and uploads the block once,
  /// so the caller never sees that error. References are per
  /// connection: a fresh client always uploads.
  Result<uint64_t> Submit(const EncodedTable& table,
                          const DiscoveryOptions& options,
                          double deadline_seconds = 0.0);

  /// Blocks until `job_id`'s terminal result, relaying any progress
  /// frames to `progress`. Result frames for *other* jobs arriving in
  /// between are buffered and served to their own Await.
  Result<DiscoveryResult> Await(
      uint64_t job_id,
      std::function<void(const WireJobStatus&)> progress = {});

  /// Requests cooperative cancellation; the job still resolves through
  /// Await (with cancelled set). Fire-and-forget on the wire.
  Status Cancel(uint64_t job_id);

  /// Sends a bare status query and returns the server's snapshot.
  Result<WireJobStatus> Query(uint64_t job_id);

  /// Test seam: records `digest` as acked on this connection, so the
  /// next Submit of that table sends a reference the server never saw
  /// here (say, another connection's upload).
  void AssumeTableAckedForTest(const Digest128& digest) {
    RememberTable(digest);
  }

 private:
  explicit DiscoveryClient(std::unique_ptr<shard::SocketShardChannel> channel);

  /// Sends one submission under a fresh request id and waits for its
  /// ack or rejection.
  Result<uint64_t> SendSubmit(WireJobSubmit submit);
  /// Appends a result chunk to its job's blob; a final chunk moves the
  /// deserialized result to done_.
  Status FoldResultChunk(const shard::DecodedFrame& frame);
  void RememberTable(const Digest128& digest);

  std::unique_ptr<shard::SocketShardChannel> channel_;
  uint64_t next_request_id_ = 1;
  /// Digests of tables the server acked on this connection, replaced
  /// round-robin (Submit sends these by reference).
  std::array<std::optional<Digest128>, 8> acked_tables_;
  size_t next_acked_slot_ = 0;
  /// Completed results that arrived while awaiting a different job.
  std::map<uint64_t, DiscoveryResult> done_;
  /// Partial blob accumulation per job.
  std::map<uint64_t, std::vector<uint8_t>> partial_;
};

/// One-call convenience: connect, submit, await, disconnect. What
/// `csv_discovery --server` uses. Its connection carries one job, so the
/// table is always uploaded in full.
Result<DiscoveryResult> RunRemoteDiscovery(
    const std::string& host, uint16_t port, const EncodedTable& table,
    const DiscoveryOptions& options, double deadline_seconds = 0.0,
    const DiscoveryClient::Options& client_options = {});

}  // namespace serve
}  // namespace aod

#endif  // AOD_SERVE_CLIENT_H_
