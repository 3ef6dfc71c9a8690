// Multiplexes many discovery jobs over one shared thread pool.
//
// The scheduler owns the server's execution resources: a bounded job
// queue, a small set of executor threads (one per concurrently *running*
// job), and the single exec::ThreadPool every job's validation work
// lands on. Admission control lives here — the decision to refuse work
// is about executor state, not connection state — and is typed:
//
//   kShuttingDown   the scheduler is draining toward exit;
//   kOverloaded     the queue is at max_queue_depth, or the submitting
//                   client already has max_inflight_per_client jobs
//                   queued or running.
//
// Fairness: the queue is round-robin across clients (one FIFO lane per
// client, lanes served in rotation), so a client that floods the queue
// delays its own jobs, not everyone else's. Within a client, jobs run
// in submission order.
//
// Per-job deadlines ride the driver's cooperative budget seams
// (DiscoveryOptions::time_budget_seconds, capped at the scheduler's
// max_job_seconds), and cancellation rides the cancel seam — so a
// cancelled or deadline-hit job winds down at the next validation/merge
// boundary and still produces a valid partial result. Cancel of a
// *queued* job is immediate: the job is dropped from its lane and
// completes with an empty cancelled result, never touching the pool.
//
// Every admitted job terminates with exactly one on_done callback
// (executor thread), whatever its fate — done, failed, cancelled while
// queued, cancelled while running, drained at shutdown. That invariant
// is what lets the server promise "zero leaked jobs" (serve_fault_test).
#ifndef AOD_SERVE_SCHEDULER_H_
#define AOD_SERVE_SCHEDULER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/macros.h"
#include "common/status.h"
#include "od/discovery.h"
#include "serve/serve_wire.h"
#include "serve/table_cache.h"

namespace aod {
namespace exec {
class ThreadPool;
}  // namespace exec

namespace serve {

/// One admitted job. Connections hold these shared to answer status
/// queries; the scheduler owns the lifecycle.
struct ServeJob {
  uint64_t id = 0;
  uint64_t request_id = 0;
  uint64_t client_id = 0;
  std::shared_ptr<const TableCache::Entry> table;
  DiscoveryOptions options;

  std::atomic<JobState> state{JobState::kQueued};
  std::atomic<bool> cancel_requested{false};
  /// Progress mirror for status queries (updated by the running driver).
  std::atomic<int32_t> level{0};
  /// Dependency totals so far, indexed by DependencyKind.
  std::array<std::atomic<int64_t>, kNumDependencyKinds> totals{};

  /// Invoked from the executor on every completed level.
  std::function<void(const ServeJob&, const DiscoveryProgress&)> on_progress;
  /// Invoked exactly once from the executor with the terminal result.
  std::function<void(const ServeJob&, const DiscoveryResult&)> on_done;
};

class JobScheduler {
 public:
  struct Options {
    /// Queued (not yet running) jobs across all clients.
    int max_queue_depth = 8;
    /// Executor threads == jobs running concurrently. They share one
    /// validation pool, so this trades per-job latency for throughput
    /// without oversubscribing the machine.
    int max_running_jobs = 2;
    /// Queued + running jobs any single client may hold.
    int max_inflight_per_client = 4;
    /// Hard cap applied to every job's deadline (0 = uncapped).
    double max_job_seconds = 0.0;
    /// The shared validation pool (borrowed, must outlive the
    /// scheduler). Required.
    exec::ThreadPool* pool = nullptr;
  };

  explicit JobScheduler(const Options& options);
  ~JobScheduler();
  AOD_DISALLOW_COPY_AND_ASSIGN(JobScheduler);

  /// Admission: assigns the job an id and queues it, or refuses with
  /// kOverloaded / kShuttingDown. `job->options` must already carry the
  /// table-cache warm seam; the scheduler wires cancel/progress/pool.
  Result<uint64_t> Submit(std::shared_ptr<ServeJob> job);

  /// Cooperative cancel; unknown ids are a no-op (the job may have
  /// finished and been forgotten between the client's send and this
  /// call — that race is inherent and harmless).
  void Cancel(uint64_t job_id);

  /// Cancels every job of `client_id` (disconnect cleanup). The jobs
  /// still run their on_done exactly once; the server's callbacks are
  /// responsible for noticing the connection is gone.
  void CancelClient(uint64_t client_id);

  /// Status snapshot for a bare kJobStatus query.
  std::shared_ptr<ServeJob> Find(uint64_t job_id);

  /// Queued jobs ahead of `job_id` in dispatch order (-1 if not queued).
  int QueuePosition(uint64_t job_id);

  /// Stops admission (Submit -> kShuttingDown); queued and running jobs
  /// still complete. Idempotent.
  void RequestDrain();

  /// Drain + wait for every admitted job to finish + join executors.
  void Shutdown();

  bool draining() const { return draining_.load(std::memory_order_acquire); }
  /// Jobs admitted and not yet terminal — 0 after Shutdown by
  /// construction (the leak check of serve_fault_test).
  int active_jobs() const;
  int64_t jobs_admitted() const;
  int64_t jobs_rejected() const;
  /// Clients with at least one job queued or running — the admission
  /// map's size. A rejected probe must leave it unchanged (pinned in
  /// serve_fault_test: churning client ids on an overloaded server must
  /// not grow server state).
  size_t inflight_clients() const;

 private:
  void ExecutorLoop();
  std::shared_ptr<ServeJob> NextJob();  // under lock via caller
  void RunJob(const std::shared_ptr<ServeJob>& job);
  void FinishCancelledQueued(const std::shared_ptr<ServeJob>& job);

  const Options options_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  /// One FIFO lane per client, served round-robin.
  std::map<uint64_t, std::deque<std::shared_ptr<ServeJob>>> lanes_;
  /// Rotation cursor: the client id served last.
  uint64_t last_client_ = 0;
  int queued_ = 0;
  int running_ = 0;
  /// Queued + running per client (admission cap).
  std::map<uint64_t, int> inflight_;
  /// All non-terminal jobs by id (status queries, cancel).
  std::map<uint64_t, std::shared_ptr<ServeJob>> live_;
  uint64_t next_job_id_ = 1;
  int64_t admitted_ = 0;
  int64_t rejected_ = 0;
  std::atomic<bool> draining_{false};
  bool stopping_ = false;
  std::vector<std::thread> executors_;
};

}  // namespace serve
}  // namespace aod

#endif  // AOD_SERVE_SCHEDULER_H_
