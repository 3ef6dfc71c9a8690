// The discovery-as-a-service host: a long-lived server multiplexing
// discovery jobs from many concurrent clients over localhost TCP.
//
// Architecture (one process):
//
//   SocketListener ──accept──▶ Connection (1 reader thread each)
//                                  │ kJobSubmit/kCancel/kJobStatus
//                                  ▼
//                             JobScheduler (N executor threads)
//                                  │ shares one exec::ThreadPool
//                                  ▼
//                             DiscoverOds (warm-started via TableCache)
//                                  │ result blob
//                                  ▼
//                             Connection send (chunked kJobResultBatch)
//
// Failure domains: each connection is its own. A malformed, oversized
// or desynced frame fails only that connection (best-effort typed error,
// then teardown); a client that vanishes mid-anything (kill -9, crash,
// network cut) is detected by its reader's Receive error, its jobs are
// cooperatively cancelled, and everything it held is reclaimed — no
// other client observes more than a scheduling delay. A reader that
// stops draining its socket (slow reader) is bounded by the
// per-connection send backlog and dropped rather than ballooning server
// memory. All of this is pinned by tests/serve_fault_test.cc, including
// that a healthy client's results stay bit-identical to direct
// DiscoverOds throughout the fault storm.
//
// Table references: a connection that uploaded a table inline may name
// it again by its 16-byte TableDigest (serve_wire.h). The server keeps,
// per connection, the digests it computed itself from that connection's
// uploads, so a reference can only ever select content the same peer
// sent; anything else gets a typed kNotFound and the client re-uploads.
//
// Lifecycle: Start binds 127.0.0.1 on an ephemeral (or requested) port.
// RequestDrain (the SIGTERM path) stops admission — new submits get
// kShuttingDown — while in-flight jobs complete and deliver. Shutdown
// drains, then closes every connection and joins every thread; after it
// returns the process holds no job, thread or fd of the server's.
#ifndef AOD_SERVE_SERVER_H_
#define AOD_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "exec/thread_pool.h"
#include "serve/scheduler.h"
#include "serve/serve_wire.h"
#include "serve/table_cache.h"
#include "shard/channel.h"

namespace aod {
namespace serve {

struct ServerOptions {
  /// 0 = ephemeral (read the bound port back via port()).
  uint16_t port = 0;
  /// Validation pool width shared by all running jobs (0 = hardware
  /// concurrency).
  int num_threads = 0;
  /// Admission bounds (see JobScheduler::Options).
  int max_queue_depth = 8;
  int max_running_jobs = 2;
  int max_inflight_per_client = 4;
  /// Hard cap on any job's wall clock (0 = uncapped).
  double max_job_seconds = 0.0;
  /// Concurrent connections; accepts beyond this are refused with a
  /// typed kOverloaded error before a reader is spawned.
  int max_connections = 64;
  /// Tables kept warm across jobs (see TableCache).
  size_t table_cache_capacity = 8;
  /// Largest frame a client may send (a submission's table rides in one
  /// frame). Far below the shard seam's 1 GiB default: submissions come
  /// from untrusted clients.
  int64_t max_frame_bytes = 256LL << 20;
  /// Drop a connection after this long with no complete inbound frame
  /// (0 = never). Bounds half-open/slowloris connections; must exceed
  /// the longest expected job, since a client awaiting its result is
  /// silent.
  double idle_timeout_seconds = 0.0;
  /// Per-connection bound on enqueued-but-unsent bytes. Result sends
  /// wait for the backlog to drain below it; a connection that stays
  /// over it for send_stall_seconds is dropped (slow reader).
  int64_t max_send_backlog_bytes = 8LL << 20;
  double send_stall_seconds = 10.0;
};

/// Server-side job/connection counters (test observability).
struct ServerStats {
  int64_t connections_accepted = 0;
  int64_t connections_refused = 0;
  int64_t connections_dropped = 0;  // faulted/slow/disconnected
  int64_t frames_rejected = 0;      // malformed/desynced/unexpected
  int64_t jobs_admitted = 0;
  int64_t jobs_rejected = 0;
  /// Resolved table references count as hits too: each reuses a
  /// resident table.
  int64_t table_cache_hits = 0;
  int64_t table_cache_misses = 0;
  /// Submissions that named their table by digest: resolved on their
  /// connection, or answered with kNotFound (the client then uploads).
  int64_t table_refs_resolved = 0;
  int64_t table_refs_unknown = 0;
};

class DiscoveryServer {
 public:
  static Result<std::unique_ptr<DiscoveryServer>> Start(
      const ServerOptions& options);
  ~DiscoveryServer();
  AOD_DISALLOW_COPY_AND_ASSIGN(DiscoveryServer);

  uint16_t port() const { return port_; }

  /// Stop admitting jobs and connections; in-flight jobs complete and
  /// deliver. Idempotent; the SIGTERM handler's half of a graceful exit.
  void RequestDrain();

  /// Drain, deliver, then tear everything down. After this returns the
  /// server holds no threads, connections, fds or jobs. Idempotent.
  void Shutdown();

  bool draining() const { return scheduler_->draining(); }
  int active_connections() const;
  /// 0 once Shutdown returned (leak check seam).
  int active_jobs() const { return scheduler_->active_jobs(); }
  ServerStats stats() const;

 private:
  struct Connection {
    uint64_t client_id = 0;
    std::unique_ptr<shard::SocketShardChannel> channel;
    std::atomic<bool> alive{true};
    std::atomic<bool> reader_done{false};
    std::thread reader;
    /// Serializes multi-frame sequences (result chunk streams) against
    /// other writers on this connection.
    std::mutex send_mutex;
    /// Table references this connection may use: the digests the server
    /// computed from tables uploaded inline on it, least recently used
    /// first, at most table_cache_capacity of them. Weak, so a reference
    /// never keeps an evicted table alive. Touched only by the reader
    /// thread.
    std::vector<std::pair<Digest128, std::weak_ptr<const TableCache::Entry>>>
        table_refs;
  };

  explicit DiscoveryServer(const ServerOptions& options);

  void AcceptLoop();
  void ReaderLoop(const std::shared_ptr<Connection>& conn);
  /// OK to keep the connection; an error fails (only) this connection.
  Status Dispatch(const std::shared_ptr<Connection>& conn,
                  const std::vector<uint8_t>& raw);
  Status HandleSubmit(const std::shared_ptr<Connection>& conn,
                      const shard::DecodedFrame& frame);
  /// The submission's table: interned from its inline block (and then
  /// registered as a reference on `conn`), or resolved from its digest.
  /// A null entry with OK status means the submission was answered with
  /// a typed kJobError and the connection stays.
  Result<std::shared_ptr<const TableCache::Entry>> SubmittedTable(
      const std::shared_ptr<Connection>& conn, const WireJobSubmit& submit);
  Status HandleStatusQuery(const std::shared_ptr<Connection>& conn,
                           const shard::DecodedFrame& frame);
  /// Best-effort send without backpressure wait (acks, errors, status).
  void SendNow(const std::shared_ptr<Connection>& conn,
               std::vector<uint8_t> frame);
  /// Backpressure-bounded send (result chunks); drops the connection on
  /// a persistent stall.
  Status SendBounded(const std::shared_ptr<Connection>& conn,
                     std::vector<uint8_t> frame);
  void StreamResult(const std::shared_ptr<Connection>& conn,
                    const ServeJob& job, const DiscoveryResult& result);
  /// Idempotent per-connection teardown: cancel its jobs, close its
  /// channel (waking its reader), count it dropped.
  void DropConnection(const std::shared_ptr<Connection>& conn);
  void ReapFinishedReaders();

  const ServerOptions options_;
  uint16_t port_ = 0;
  std::unique_ptr<shard::SocketListener> listener_;
  std::unique_ptr<exec::ThreadPool> pool_;
  TableCache tables_;
  std::unique_ptr<JobScheduler> scheduler_;

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
  uint64_t next_client_id_ = 1;
  int64_t connections_accepted_ = 0;
  int64_t connections_refused_ = 0;
  int64_t connections_dropped_ = 0;
  int64_t frames_rejected_ = 0;
  int64_t table_refs_resolved_ = 0;
  int64_t table_refs_unknown_ = 0;

  std::atomic<bool> stop_accepting_{false};
  std::atomic<bool> shut_down_{false};
  std::thread acceptor_;
};

}  // namespace serve
}  // namespace aod

#endif  // AOD_SERVE_SERVER_H_
