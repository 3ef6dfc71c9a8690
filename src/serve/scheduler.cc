#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

#include "exec/thread_pool.h"

namespace aod {
namespace serve {

JobScheduler::JobScheduler(const Options& options) : options_(options) {
  AOD_CHECK_MSG(options_.pool != nullptr,
                "JobScheduler needs a shared thread pool");
  const int executors = std::max(1, options_.max_running_jobs);
  executors_.reserve(executors);
  for (int i = 0; i < executors; ++i) {
    executors_.emplace_back([this] { ExecutorLoop(); });
  }
}

JobScheduler::~JobScheduler() { Shutdown(); }

Result<uint64_t> JobScheduler::Submit(std::shared_ptr<ServeJob> job) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (draining_.load(std::memory_order_relaxed) || stopping_) {
    ++rejected_;
    return Status::ShuttingDown("server is draining; submit elsewhere");
  }
  if (queued_ >= options_.max_queue_depth) {
    ++rejected_;
    return Status::Overloaded("job queue full (" +
                              std::to_string(options_.max_queue_depth) +
                              " queued); retry after backoff");
  }
  // find(), not operator[]: a rejected probe must not default-insert a
  // zero entry — churning client ids (every connection gets a fresh one)
  // would grow the map without bound on an overloaded server.
  const auto inflight_it = inflight_.find(job->client_id);
  const int inflight =
      inflight_it == inflight_.end() ? 0 : inflight_it->second;
  if (inflight >= options_.max_inflight_per_client) {
    ++rejected_;
    return Status::Overloaded(
        "client already has " + std::to_string(inflight) +
        " jobs in flight; await or cancel one first");
  }
  job->id = next_job_id_++;
  // The deadline is enforced through the driver's cooperative budget
  // seam; the server-side cap bounds hostile/buggy deadlines.
  if (options_.max_job_seconds > 0.0) {
    double budget = job->options.time_budget_seconds;
    if (budget <= 0.0 || budget > options_.max_job_seconds) {
      budget = options_.max_job_seconds;
    }
    job->options.time_budget_seconds = budget;
  }
  job->options.pool = options_.pool;
  // Serve jobs run unsharded on the pool — neither candidate-space nor
  // row-space sharding applies to a resident server's jobs.
  job->options.num_shards = 0;
  job->options.row_shards = 0;
  const uint64_t id = job->id;
  ++queued_;
  ++inflight_[job->client_id];
  ++admitted_;
  live_[id] = job;
  lanes_[job->client_id].push_back(std::move(job));
  work_cv_.notify_one();
  return id;
}

void JobScheduler::Cancel(uint64_t job_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = live_.find(job_id);
    if (it == live_.end()) return;
    it->second->cancel_requested.store(true, std::memory_order_release);
  }
  // Running jobs notice at the driver's next cancel poll; queued jobs
  // are collected by whichever executor dequeues them next (it skips
  // the run and goes straight to the terminal callback). Waking an
  // executor makes that prompt even on an idle server.
  work_cv_.notify_all();
}

void JobScheduler::CancelClient(uint64_t client_id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, job] : live_) {
      if (job->client_id == client_id) {
        job->cancel_requested.store(true, std::memory_order_release);
      }
    }
  }
  work_cv_.notify_all();
}

std::shared_ptr<ServeJob> JobScheduler::Find(uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = live_.find(job_id);
  return it == live_.end() ? nullptr : it->second;
}

int JobScheduler::QueuePosition(uint64_t job_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Dispatch order across lanes is rotation-dependent; an exact global
  // position is not stable, so report the job's position in its own
  // lane — the number its submitter can act on.
  for (const auto& [client, lane] : lanes_) {
    int pos = 0;
    for (const auto& job : lane) {
      if (job->id == job_id) return pos;
      ++pos;
    }
  }
  return -1;
}

void JobScheduler::RequestDrain() {
  draining_.store(true, std::memory_order_release);
  work_cv_.notify_all();
}

void JobScheduler::Shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    draining_.store(true, std::memory_order_release);
    // Wait for the queue and the running set to empty: every admitted
    // job gets its terminal callback before the executors die.
    idle_cv_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : executors_) {
    if (t.joinable()) t.join();
  }
}

int JobScheduler::active_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_ + running_;
}

int64_t JobScheduler::jobs_admitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admitted_;
}

int64_t JobScheduler::jobs_rejected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rejected_;
}

size_t JobScheduler::inflight_clients() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_.size();
}

std::shared_ptr<ServeJob> JobScheduler::NextJob() {
  // Round-robin: the first non-empty lane strictly after last_client_,
  // wrapping. std::map iteration order makes the rotation deterministic.
  if (lanes_.empty()) return nullptr;
  auto it = lanes_.upper_bound(last_client_);
  for (size_t step = 0; step <= lanes_.size(); ++step) {
    if (it == lanes_.end()) it = lanes_.begin();
    if (!it->second.empty()) {
      std::shared_ptr<ServeJob> job = std::move(it->second.front());
      it->second.pop_front();
      last_client_ = it->first;
      if (it->second.empty()) lanes_.erase(it);
      return job;
    }
    it = lanes_.erase(it);
  }
  return nullptr;
}

void JobScheduler::ExecutorLoop() {
  for (;;) {
    std::shared_ptr<ServeJob> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return queued_ > 0 || stopping_; });
      if (queued_ == 0) return;  // stopping and drained
      job = NextJob();
      AOD_CHECK(job != nullptr);
      --queued_;
      ++running_;
    }
    if (job->cancel_requested.load(std::memory_order_acquire)) {
      FinishCancelledQueued(job);
    } else {
      RunJob(job);
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --running_;
      live_.erase(job->id);
      auto it = inflight_.find(job->client_id);
      if (it != inflight_.end() && --it->second <= 0) inflight_.erase(it);
    }
    idle_cv_.notify_all();
  }
}

void JobScheduler::FinishCancelledQueued(
    const std::shared_ptr<ServeJob>& job) {
  job->state.store(JobState::kCancelled, std::memory_order_release);
  DiscoveryResult result;
  result.cancelled = true;
  if (job->on_done) job->on_done(*job, result);
}

void JobScheduler::RunJob(const std::shared_ptr<ServeJob>& job) {
  job->state.store(JobState::kRunning, std::memory_order_release);
  DiscoveryOptions options = job->options;
  ServeJob* raw = job.get();
  options.cancel = [raw] {
    return raw->cancel_requested.load(std::memory_order_acquire);
  };
  options.warm_base_partitions = &job->table->bases;
  options.progress = [raw](const DiscoveryProgress& p) {
    raw->level.store(p.level, std::memory_order_relaxed);
    for (int k = 0; k < kNumDependencyKinds; ++k) {
      raw->totals[k].store(p.totals[k], std::memory_order_relaxed);
    }
    if (raw->on_progress) raw->on_progress(*raw, p);
  };
  DiscoveryResult result = DiscoverOds(*job->table->table, options);
  job->state.store(result.cancelled  ? JobState::kCancelled
                   : !result.shard_status.ok() ? JobState::kFailed
                                               : JobState::kDone,
                   std::memory_order_release);
  if (job->on_done) job->on_done(*job, result);
}

}  // namespace serve
}  // namespace aod
