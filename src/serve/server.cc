#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/stopwatch.h"
#include "od/result_io.h"
#include "serve/serve_wire.h"
#include "shard/wire.h"

namespace aod {
namespace serve {

using shard::DecodedFrame;
using shard::FrameType;

namespace {

/// Result blobs stream in slices of this size — small enough that a
/// slow reader's backlog bound engages per chunk, large enough that
/// framing overhead is noise.
constexpr size_t kResultChunkBytes = 256 * 1024;

/// One-shot gate: executor callbacks for a job wait until the reader
/// thread has sent the submission ack, so a client never sees progress
/// or result frames for a job id it has not been told about yet.
class AckGate {
 public:
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

}  // namespace

DiscoveryServer::DiscoveryServer(const ServerOptions& options)
    : options_(options), tables_(options.table_cache_capacity) {}

Result<std::unique_ptr<DiscoveryServer>> DiscoveryServer::Start(
    const ServerOptions& options) {
  std::unique_ptr<DiscoveryServer> server(new DiscoveryServer(options));
  AOD_ASSIGN_OR_RETURN(server->listener_,
                       shard::SocketListener::Bind(options.port));
  server->port_ = server->listener_->port();
  server->pool_ = std::make_unique<exec::ThreadPool>(options.num_threads);
  JobScheduler::Options sched;
  sched.max_queue_depth = options.max_queue_depth;
  sched.max_running_jobs = options.max_running_jobs;
  sched.max_inflight_per_client = options.max_inflight_per_client;
  sched.max_job_seconds = options.max_job_seconds;
  sched.pool = server->pool_.get();
  server->scheduler_ = std::make_unique<JobScheduler>(sched);
  server->acceptor_ = std::thread([raw = server.get()] { raw->AcceptLoop(); });
  return server;
}

DiscoveryServer::~DiscoveryServer() { Shutdown(); }

void DiscoveryServer::RequestDrain() {
  scheduler_->RequestDrain();
}

void DiscoveryServer::Shutdown() {
  if (shut_down_.exchange(true)) return;
  // Order matters: stop taking connections, let admitted jobs finish
  // and deliver over still-open connections, then tear the connections
  // down and join every thread.
  stop_accepting_.store(true, std::memory_order_release);
  if (listener_ != nullptr) listener_->Wake();
  if (acceptor_.joinable()) acceptor_.join();
  scheduler_->Shutdown();
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conns.swap(connections_);
  }
  for (const auto& conn : conns) {
    conn->alive.store(false, std::memory_order_release);
    conn->channel->Close();
  }
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

int DiscoveryServer::active_connections() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int live = 0;
  for (const auto& conn : connections_) {
    if (conn->alive.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

ServerStats DiscoveryServer::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.connections_accepted = connections_accepted_;
    s.connections_refused = connections_refused_;
    s.connections_dropped = connections_dropped_;
    s.frames_rejected = frames_rejected_;
  }
  s.jobs_admitted = scheduler_->jobs_admitted();
  s.jobs_rejected = scheduler_->jobs_rejected();
  s.table_cache_hits = tables_.hits();
  s.table_cache_misses = tables_.misses();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s.table_refs_resolved = table_refs_resolved_;
    s.table_refs_unknown = table_refs_unknown_;
  }
  return s;
}

void DiscoveryServer::AcceptLoop() {
  while (!stop_accepting_.load(std::memory_order_acquire)) {
    // No timeout: Shutdown wakes this wait (kClosed) directly.
    Result<int> fd = listener_->AcceptFd(/*timeout_seconds=*/0.0);
    if (!fd.ok()) {
      if (fd.status().code() == StatusCode::kClosed) break;
      continue;  // a failed accept; the next one may succeed
    }
    ReapFinishedReaders();
    shard::ChannelOptions copts;
    copts.max_frame_bytes = options_.max_frame_bytes;
    copts.receive_timeout_seconds = options_.idle_timeout_seconds;
    auto channel = shard::SocketShardChannel::Adopt(*fd, copts);
    bool refuse = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (static_cast<int>(connections_.size()) >= options_.max_connections) {
        refuse = true;
        ++connections_refused_;
      }
    }
    if (refuse || stop_accepting_.load(std::memory_order_acquire)) {
      // Typed refusal so the client can back off instead of guessing
      // from a bare RST.
      WireJobError error;
      error.status = refuse ? Status::Overloaded("connection limit reached")
                            : Status::ShuttingDown("server is exiting");
      (void)channel->Send(EncodeJobError(error));
      channel->Close();
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->channel = std::move(channel);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      conn->client_id = next_client_id_++;
      ++connections_accepted_;
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
  }
}

void DiscoveryServer::ReapFinishedReaders() {
  std::vector<std::shared_ptr<Connection>> done;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->reader_done.load(std::memory_order_acquire)) {
        done.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : done) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void DiscoveryServer::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    Result<std::vector<uint8_t>> raw = conn->channel->Receive();
    if (!raw.ok()) {
      // kClosed: orderly disconnect. kIoError: vanished client (crash,
      // kill -9, cut) or idle timeout. kParseError: garbage byte stream
      // (bad magic/checksum/oversize). All end only this connection.
      if (raw.status().code() == StatusCode::kParseError) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++frames_rejected_;
      }
      break;
    }
    const Status st = Dispatch(conn, *raw);
    if (!st.ok()) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++frames_rejected_;
      }
      // Best-effort typed goodbye; the stream can no longer be trusted
      // (a desynced or hostile peer), so the connection ends here.
      WireJobError error;
      error.status = st;
      SendNow(conn, EncodeJobError(error));
      break;
    }
  }
  DropConnection(conn);
  conn->reader_done.store(true, std::memory_order_release);
}

Status DiscoveryServer::Dispatch(const std::shared_ptr<Connection>& conn,
                                 const std::vector<uint8_t>& raw) {
  AOD_ASSIGN_OR_RETURN(DecodedFrame frame, shard::DecodeFrame(raw));
  switch (frame.type) {
    case FrameType::kJobSubmit:
      return HandleSubmit(conn, frame);
    case FrameType::kJobStatus:
      return HandleStatusQuery(conn, frame);
    case FrameType::kCancel: {
      AOD_ASSIGN_OR_RETURN(uint64_t job_id, DecodeCancel(frame));
      // Cancelling a job that already finished (or never existed) is a
      // benign race, not a protocol violation.
      scheduler_->Cancel(job_id);
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("unexpected frame type on job stream");
  }
}

Status DiscoveryServer::HandleSubmit(const std::shared_ptr<Connection>& conn,
                                     const DecodedFrame& frame) {
  AOD_ASSIGN_OR_RETURN(WireJobSubmit submit, DecodeJobSubmit(frame));
  AOD_ASSIGN_OR_RETURN(std::shared_ptr<const TableCache::Entry> table,
                       SubmittedTable(conn, submit));
  if (table == nullptr) return Status::OK();

  auto job = std::make_shared<ServeJob>();
  job->request_id = submit.request_id;
  job->client_id = conn->client_id;
  job->table = std::move(table);
  job->options = ToDiscoveryOptions(submit.options);

  auto gate = std::make_shared<AckGate>();
  std::weak_ptr<Connection> weak = conn;
  DiscoveryServer* server = this;
  job->on_progress = [server, weak, gate](const ServeJob& j,
                                          const DiscoveryProgress& p) {
    gate->Wait();
    std::shared_ptr<Connection> c = weak.lock();
    if (c == nullptr || !c->alive.load(std::memory_order_acquire)) return;
    WireJobStatus status;
    status.job_id = j.id;
    status.state = JobState::kRunning;
    status.level = p.level;
    status.totals = p.totals;
    server->SendNow(c, EncodeJobStatus(status));
  };
  job->on_done = [server, conn, gate](const ServeJob& j,
                                      const DiscoveryResult& result) {
    gate->Wait();
    server->StreamResult(conn, j, result);
  };

  Result<uint64_t> admitted = scheduler_->Submit(job);
  if (!admitted.ok()) {
    WireJobError error;
    error.request_id = submit.request_id;
    error.status = admitted.status();
    SendNow(conn, EncodeJobError(error));
    gate->Open();
    return Status::OK();
  }
  WireJobStatus ack;
  ack.job_id = *admitted;
  ack.request_id = submit.request_id;
  ack.state = JobState::kQueued;
  ack.queue_position = scheduler_->QueuePosition(*admitted);
  SendNow(conn, EncodeJobStatus(ack));
  gate->Open();
  return Status::OK();
}

Result<std::shared_ptr<const TableCache::Entry>>
DiscoveryServer::SubmittedTable(const std::shared_ptr<Connection>& conn,
                                const WireJobSubmit& submit) {
  // Semantically invalid but well-formed submissions reject the job and
  // keep the connection: the client is speaking the protocol correctly.
  auto reject = [&](Status status) {
    WireJobError error;
    error.request_id = submit.request_id;
    error.status = std::move(status);
    SendNow(conn, EncodeJobError(error));
    return std::shared_ptr<const TableCache::Entry>();
  };
  auto& refs = conn->table_refs;
  if (submit.table_ref.has_value()) {
    auto it = std::find_if(refs.begin(), refs.end(), [&](const auto& ref) {
      return ref.first == *submit.table_ref;
    });
    std::shared_ptr<const TableCache::Entry> entry;
    if (it != refs.end()) {
      entry = it->second.lock();
      if (entry != nullptr && tables_.Reuse(*entry)) {
        std::rotate(it, it + 1, refs.end());  // most recently used last
      } else {
        // Evicted from the cache: the reference dies with it, even while
        // a running job still holds the table.
        entry.reset();
        refs.erase(it);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++(entry != nullptr ? table_refs_resolved_ : table_refs_unknown_);
    }
    if (entry != nullptr) return entry;
    return reject(Status::NotFound(
        "table reference unknown on this connection; send the table"));
  }

  // The nested table frame is validated exactly like on the shard seam.
  AOD_ASSIGN_OR_RETURN(DecodedFrame table_frame,
                       shard::DecodeFrame(submit.table_frame.data(),
                                          submit.table_frame.size()));
  AOD_ASSIGN_OR_RETURN(EncodedTable table,
                       shard::DecodeTableBlock(table_frame));
  if (table.num_columns() == 0 || table.num_columns() > 64) {
    return reject(Status::InvalidArgument(
        "discovery needs 1..64 attributes, got " +
        std::to_string(table.num_columns())));
  }
  std::shared_ptr<const TableCache::Entry> entry =
      tables_.Intern(std::move(table));
  auto it = std::find_if(refs.begin(), refs.end(), [&](const auto& ref) {
    return ref.first == entry->digest;
  });
  if (it != refs.end()) refs.erase(it);
  refs.emplace_back(entry->digest, entry);
  if (refs.size() > options_.table_cache_capacity) refs.erase(refs.begin());
  return entry;
}

Status DiscoveryServer::HandleStatusQuery(
    const std::shared_ptr<Connection>& conn, const DecodedFrame& frame) {
  AOD_ASSIGN_OR_RETURN(WireJobStatus query, DecodeJobStatus(frame));
  std::shared_ptr<ServeJob> job = scheduler_->Find(query.job_id);
  if (job == nullptr) {
    WireJobError error;
    error.job_id = query.job_id;
    error.status = Status::NotFound("no live job with id " +
                                    std::to_string(query.job_id));
    SendNow(conn, EncodeJobError(error));
    return Status::OK();
  }
  WireJobStatus status;
  status.job_id = job->id;
  status.state = job->state.load(std::memory_order_acquire);
  status.queue_position = status.state == JobState::kQueued
                              ? scheduler_->QueuePosition(job->id)
                              : -1;
  status.level = job->level.load(std::memory_order_relaxed);
  for (int k = 0; k < kNumDependencyKinds; ++k) {
    status.totals[k] = job->totals[k].load(std::memory_order_relaxed);
  }
  SendNow(conn, EncodeJobStatus(status));
  return Status::OK();
}

void DiscoveryServer::SendNow(const std::shared_ptr<Connection>& conn,
                              std::vector<uint8_t> frame) {
  if (!conn->alive.load(std::memory_order_acquire)) return;
  // Small control frames skip the backpressure wait but still respect
  // the bound: past it the connection is already being punished by the
  // result path, and control frames would only deepen the backlog.
  if (conn->channel->send_backlog_bytes() >
      options_.max_send_backlog_bytes) {
    return;
  }
  std::lock_guard<std::mutex> lock(conn->send_mutex);
  (void)conn->channel->Send(std::move(frame));
}

Status DiscoveryServer::SendBounded(const std::shared_ptr<Connection>& conn,
                                    std::vector<uint8_t> frame) {
  Stopwatch stall;
  while (conn->channel->send_backlog_bytes() +
             static_cast<int64_t>(frame.size()) >
         options_.max_send_backlog_bytes) {
    if (!conn->alive.load(std::memory_order_acquire)) {
      return Status::Closed("connection gone");
    }
    if (stall.ElapsedSeconds() > options_.send_stall_seconds) {
      // The reader stopped reading: bound its cost. Dropping the
      // connection also cancels its other jobs via the usual path.
      DropConnection(conn);
      return Status::IoError("slow reader: send backlog bound exceeded");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!conn->alive.load(std::memory_order_acquire)) {
    return Status::Closed("connection gone");
  }
  std::lock_guard<std::mutex> lock(conn->send_mutex);
  return conn->channel->Send(std::move(frame));
}

void DiscoveryServer::StreamResult(const std::shared_ptr<Connection>& conn,
                                   const ServeJob& job,
                                   const DiscoveryResult& result) {
  if (!conn->alive.load(std::memory_order_acquire)) return;
  const std::vector<uint8_t> blob = SerializeResult(result);
  size_t offset = 0;
  do {
    const size_t len = std::min(kResultChunkBytes, blob.size() - offset);
    WireJobResultChunk chunk;
    chunk.job_id = job.id;
    chunk.final_chunk = offset + len == blob.size();
    chunk.blob_bytes.assign(blob.begin() + offset,
                            blob.begin() + offset + len);
    offset += len;
    if (!SendBounded(conn, EncodeJobResultChunk(chunk)).ok()) return;
  } while (offset < blob.size());
}

void DiscoveryServer::DropConnection(const std::shared_ptr<Connection>& conn) {
  if (conn->alive.exchange(false)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++connections_dropped_;
    }
    // Cooperative cancel of everything this client had in flight; the
    // executor's terminal callbacks then find alive == false and stop.
    scheduler_->CancelClient(conn->client_id);
    conn->channel->Close();
  }
}

}  // namespace serve
}  // namespace aod
