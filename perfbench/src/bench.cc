#include "bench.h"

#include <dirent.h>
#include <malloc.h>
#include <poll.h>
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>

namespace aod {
namespace perfbench {

int64_t ScaledRows(const Config& config, int64_t base) {
  const auto rows = static_cast<int64_t>(static_cast<double>(base) * config.scale);
  return std::max<int64_t>(rows, 500);
}

// --------------------------------------------------------- fingerprint --

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  // SplitMix64 finalizer over the running hash.
  uint64_t x = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Fingerprint FingerprintOf(const DiscoveryResult& result) {
  Fingerprint fp;
  uint64_t h = 0x6a09e667f3bcc908ULL;
  for (const DiscoveredDependency& d : result.dependencies) {
    uint64_t error_bits = 0;
    std::memcpy(&error_bits, &d.error, sizeof(error_bits));
    h = Mix(h, static_cast<uint64_t>(d.kind));
    h = Mix(h, d.context.bits());
    h = Mix(h, static_cast<uint64_t>(static_cast<int64_t>(d.a)));
    h = Mix(h, static_cast<uint64_t>(static_cast<int64_t>(d.b)));
    h = Mix(h, d.opposite ? 1 : 0);
    h = Mix(h, static_cast<uint64_t>(d.level));
    h = Mix(h, static_cast<uint64_t>(d.removal_size));
    h = Mix(h, error_bits);
  }
  fp.digest = h;
  fp.dependencies = static_cast<int64_t>(result.dependencies.size());
  return fp;
}

std::string RunFailure(const DiscoveryResult& result) {
  if (!result.shard_status.ok()) {
    return "shard_status: " + result.shard_status.ToString();
  }
  if (result.cancelled) return "cancelled";
  if (result.timed_out) return "timed_out";
  return "";
}

// --------------------------------------------------------------- spans --

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Add(Record record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(std::move(record));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  for (const Record& r : records_) origin = std::min(origin, r.start_ns);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu",
                 r.name.c_str(),
                 static_cast<unsigned long long>(r.thread % 100000),
                 static_cast<double>(r.start_ns - origin) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent));
    for (const auto& [key, value] : r.args) {
      std::fprintf(f, ", \"%s\": %.17g", key.c_str(),
                   std::isfinite(value) ? value : 0.0);
    }
    std::fprintf(f, "}}%s\n", i + 1 < records_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, bool record, uint64_t parent)
    : recording_(record) {
  if (recording_) {
    id_ = Tracer::Get().NextId();
    record_.id = id_;
    record_.parent = parent;
    record_.name = name;
    record_.thread = std::hash<std::thread::id>()(std::this_thread::get_id());
  }
  record_.start_ns = NowNanos();
}

void Span::Arg(const char* key, double value) {
  if (recording_) record_.args.emplace_back(key, value);
}

void Span::End() {
  if (ended_) return;
  ended_ = true;
  record_.end_ns = NowNanos();
  if (recording_) Tracer::Get().Add(record_);
}

double Span::Seconds() const {
  const int64_t end = ended_ ? record_.end_ns : NowNanos();
  return static_cast<double>(end - record_.start_ns) / 1e9;
}

void AttachStats(Span* span, const DiscoveryStats& s) {
  span->Arg("partition_seconds", s.partition_seconds);
  span->Arg("oc_validation_seconds", s.oc_validation_seconds);
  span->Arg("ofd_validation_seconds", s.ofd_validation_seconds);
  span->Arg("fd_validation_seconds", s.fd_validation_seconds);
  span->Arg("afd_validation_seconds", s.afd_validation_seconds);
  span->Arg("candidate_wall_seconds", s.candidate_wall_seconds);
  span->Arg("validation_wall_seconds", s.validation_wall_seconds);
  span->Arg("merge_wall_seconds", s.merge_wall_seconds);
  span->Arg("partition_wall_seconds", s.partition_wall_seconds);
  span->Arg("partitions_computed", static_cast<double>(s.partitions_computed));
  span->Arg("partitions_evicted", static_cast<double>(s.partitions_evicted));
  span->Arg("partition_bytes_peak", static_cast<double>(s.partition_bytes_peak));
  span->Arg("oc_candidates_validated",
            static_cast<double>(s.oc_candidates_validated));
  span->Arg("oc_candidates_pruned", static_cast<double>(s.oc_candidates_pruned));
  span->Arg("nodes_processed", static_cast<double>(s.nodes_processed));
  span->Arg("levels_processed", s.levels_processed);
  span->Arg("shard_bytes_wire", static_cast<double>(s.shard_bytes_wire));
  span->Arg("row_shard_bytes_wire",
            static_cast<double>(s.row_shard_bytes_wire));
}

// ----------------------------------------------------------------- rss --

RssSampler::RssSampler(bool include_children)
    : include_children_(include_children) {}

RssSampler::~RssSampler() { Stop(); }

namespace {

int64_t SelfRssBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  long long size = 0;
  long long resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * static_cast<int64_t>(::sysconf(_SC_PAGESIZE)) : 0;
}

/// VmHWM of /proc/<pid>, in bytes (0 if unreadable).
int64_t HighWaterBytes(const char* pid) {
  char path[300];
  std::snprintf(path, sizeof(path), "/proc/%s/status", pid);
  FILE* f = std::fopen(path, "r");
  if (f == nullptr) return 0;
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024;
}

}  // namespace

void RssSampler::SampleChildren() {
  const pid_t self = ::getpid();
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return;
  while (struct dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    char path[300];
    std::snprintf(path, sizeof(path), "/proc/%s/stat", entry->d_name);
    FILE* f = std::fopen(path, "r");
    if (f == nullptr) continue;
    char buf[1024];
    const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // The fields after the parenthesised command start at field 3
    // (state); ppid is field 4 and starttime field 22.
    const char* p = std::strrchr(buf, ')');
    if (p == nullptr) continue;
    long long ppid = 0;
    long long start_time = 0;
    int field = 3;
    for (p = std::strchr(p, ' '); p != nullptr && field <= 22;
         p = std::strchr(p + 1, ' '), ++field) {
      if (field == 4) ppid = std::atoll(p + 1);
      if (field == 22) start_time = std::atoll(p + 1);
    }
    if (ppid != self || field <= 22) continue;
    const int64_t hwm = HighWaterBytes(entry->d_name);
    int64_t& known = children_hwm_[{std::atoll(entry->d_name), start_time}];
    known = std::max(known, hwm);
  }
  ::closedir(dir);
}

void RssSampler::Start() {
  ::malloc_trim(0);
  baseline_ = SelfRssBytes();
  peak_ = baseline_;
  stop_ = false;
  thread_ = std::thread([this] {
    // Own RSS every millisecond (a cheap read), children every 5 ms (a
    // scan of /proc).
    for (int tick = 0; !stop_.load(); ++tick) {
      peak_ = std::max(peak_, SelfRssBytes());
      if (include_children_ && tick % 5 == 0) SampleChildren();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

void RssSampler::Stop() {
  if (!thread_.joinable()) return;
  stop_ = true;
  thread_.join();
  peak_ = std::max(peak_, SelfRssBytes());
}

double RssSampler::PeakMiB(int64_t operations) const {
  int64_t children = 0;
  for (const auto& entry : children_hwm_) children += entry.second;
  const int64_t bytes = std::max<int64_t>(0, peak_ - baseline_) +
                        children / std::max<int64_t>(1, operations);
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------- operations --

namespace {

std::mutex g_abandoned_mutex;
std::vector<std::thread>* g_abandoned = new std::vector<std::thread>();

/// What a simulated hang blocks on: a future nobody ever completes.
[[noreturn]] void HangForever() {
  std::promise<void> never;
  never.get_future().wait();
  std::abort();
}

}  // namespace

void PinToCpu(int64_t index) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[static_cast<size_t>(index) % cpus.size()], &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

void Abandon(std::thread thread) {
  std::lock_guard<std::mutex> lock(g_abandoned_mutex);
  g_abandoned->push_back(std::move(thread));
}

bool AnyAbandoned() {
  std::lock_guard<std::mutex> lock(g_abandoned_mutex);
  return !g_abandoned->empty();
}

bool RunWithWatchdog(const std::function<void()>& fn, double limit_s) {
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
  };
  auto state = std::make_shared<State>();
  std::thread thread([state, fn] {
    fn();
    std::lock_guard<std::mutex> lock(state->mutex);
    state->done = true;
    state->cv.notify_all();
  });
  bool done = false;
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    done = state->cv.wait_for(lock, std::chrono::duration<double>(limit_s),
                              [&] { return state->done; });
  }
  if (done) {
    thread.join();
  } else {
    Abandon(std::move(thread));
  }
  return done;
}

bool RunInChild(const std::function<void(void* out)>& fn, void* out,
                size_t size, double limit_s) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    std::vector<char> reply(size);
    fn(reply.data());
    size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::write(fds[1], reply.data() + sent, size - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) ::_exit(1);
      sent += static_cast<size_t>(n);
    }
    // No destructors: the child may hold library threads mid-flight.
    ::_exit(0);
  }
  ::close(fds[1]);
  const int64_t deadline = NowNanos() + static_cast<int64_t>(limit_s * 1e9);
  size_t got = 0;
  while (got < size) {
    const int64_t left_ms = (deadline - NowNanos()) / 1000000;
    if (left_ms <= 0) break;
    pollfd p{fds[0], POLLIN, 0};
    const int ready = ::poll(&p, 1, static_cast<int>(std::min<int64_t>(left_ms, 1 << 30)));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    const ssize_t n = ::read(fds[0], static_cast<char*>(out) + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  if (got < size) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return got == size && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

LoopResult RunWindow(
    int workers, double window_s, double watchdog_s, int64_t max_ops,
    int64_t inject_hang,
    const std::function<OpRecord(int worker, int64_t index)>& op) {
  struct Slot {
    int64_t start_ns = 0;  // 0 = idle
    int64_t index = -1;
    bool finished = false;
    bool hung = false;
  };
  // Shared with the workers, so an abandoned worker never touches freed
  // memory should its call ever return.
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<Slot> slots;
    std::vector<OpRecord> records;
    int64_t next = 0;
    bool stop = false;
  };
  auto state = std::make_shared<State>();
  state->slots.resize(static_cast<size_t>(workers));

  const int64_t t0 = NowNanos();
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([state, w, max_ops, inject_hang, op] {
      for (;;) {
        int64_t index = 0;
        {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (state->stop || state->next >= max_ops) break;
          index = state->next++;
          Slot& slot = state->slots[static_cast<size_t>(w)];
          slot.index = index;
          slot.start_ns = NowNanos();
        }
        if (index == inject_hang) HangForever();
        OpRecord record = op(w, index);
        record.index = index;
        std::lock_guard<std::mutex> lock(state->mutex);
        Slot& slot = state->slots[static_cast<size_t>(w)];
        if (slot.hung) return;
        slot.start_ns = 0;
        state->records.push_back(std::move(record));
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      state->slots[static_cast<size_t>(w)].finished = true;
      state->cv.notify_all();
    });
  }

  const int64_t window_end = t0 + static_cast<int64_t>(window_s * 1e9);
  const auto watchdog_ns = static_cast<int64_t>(watchdog_s * 1e9);
  std::unique_lock<std::mutex> lock(state->mutex);
  for (;;) {
    const int64_t now = NowNanos();
    if (now >= window_end) state->stop = true;
    bool all_done = true;
    for (Slot& slot : state->slots) {
      if (slot.finished || slot.hung) continue;
      if (slot.start_ns != 0 && now - slot.start_ns > watchdog_ns) {
        slot.hung = true;
        state->stop = true;
        OpRecord failed;
        failed.index = slot.index;
        failed.seconds = static_cast<double>(now - slot.start_ns) / 1e9;
        char why[96];
        std::snprintf(why, sizeof(why), "hang: no result after %.1f s",
                      failed.seconds);
        failed.error = why;
        state->records.push_back(std::move(failed));
        continue;
      }
      all_done = false;
    }
    if (all_done) break;
    state->cv.wait_for(lock, std::chrono::milliseconds(10));
  }
  LoopResult result;
  result.wall_seconds = static_cast<double>(NowNanos() - t0) / 1e9;
  std::vector<bool> hung;
  for (const Slot& slot : state->slots) hung.push_back(slot.hung);
  lock.unlock();
  for (size_t w = 0; w < threads.size(); ++w) {
    if (hung[w]) {
      Abandon(std::move(threads[w]));
    } else {
      threads[w].join();
    }
  }
  lock.lock();
  result.records = state->records;
  std::sort(result.records.begin(), result.records.end(),
            [](const OpRecord& a, const OpRecord& b) { return a.index < b.index; });
  return result;
}

// -------------------------------------------------------------- metrics --

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double InterquartileMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t cut = values.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

void Report::Add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
}

void Report::Print(bool correct, int64_t attempted, int64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(), metrics_[i].value,
                metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
}  // namespace aod
