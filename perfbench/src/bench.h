// Shared plumbing of the libaod benchmark: run configuration, the result
// fingerprint, in-memory spans, the RSS sampler, the watchdog'd operation
// loop and the metric report.
//
// The benchmark measures libaod from outside: every number comes from
// timing calls into the library's public functions or from reading its
// public stats records (DiscoveryStats, ServerStats). Nothing here reaches
// into library internals.
#ifndef AOD_PERFBENCH_BENCH_H_
#define AOD_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "od/discovery.h"

namespace aod {
namespace perfbench {

// ------------------------------------------------------------- config --

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Multiplies every row count (the self-test runs at a tiny scale).
  double scale = 1.0;
  /// Per-operation watchdog in seconds; 0 derives it from the set-up
  /// operation's time.
  double watchdog_seconds = 0.0;
  /// Test hooks: the timed operation with this index hangs / has its
  /// result fingerprint corrupted (-1 = off).
  int64_t inject_hang = -1;
  int64_t inject_corrupt = -1;
  std::string runner_path;
  std::string trace_dir;
  std::string revision = "unknown";
};

/// Scales a base row count by --scale, keeping at least 500 rows.
int64_t ScaledRows(const Config& config, int64_t base);

// -------------------------------------------------------- fingerprint --

/// Digest of a discovery result: every dependency's kind, context, a, b,
/// polarity, level, removal size and the exact bit pattern of its error,
/// in result order. Two results agree iff their fingerprints are equal.
struct Fingerprint {
  uint64_t digest = 0;
  int64_t dependencies = 0;
  bool operator==(const Fingerprint& o) const {
    return digest == o.digest && dependencies == o.dependencies;
  }
};

Fingerprint FingerprintOf(const DiscoveryResult& result);

/// Empty when the run completed cleanly; otherwise why it failed
/// (timed out, cancelled, non-OK shard status).
std::string RunFailure(const DiscoveryResult& result);

// ---------------------------------------------------------------- spans --

/// Spans recorded by the benchmark around its calls into the library.
/// Kept in memory; written as Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  struct Record {
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    uint64_t thread = 0;
    std::vector<std::pair<std::string, double>> args;
  };

  static Tracer& Get();

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Record record);
  bool Write(const std::string& path) const;
  size_t size() const;

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

int64_t NowNanos();

/// Times one call. Always measures (Seconds()); when `record` is set it
/// also adds a span under `parent` to the Tracer on End()/destruction.
class Span {
 public:
  Span(const char* name, bool record, uint64_t parent = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a counter to the span (ignored when not recording).
  void Arg(const char* key, double value);
  void End();
  double Seconds() const;
  uint64_t id() const { return id_; }

 private:
  Tracer::Record record_;
  bool recording_ = false;
  bool ended_ = false;
  uint64_t id_ = 0;
};

/// Attaches the DiscoveryStats counters to a discover span.
void AttachStats(Span* span, const DiscoveryStats& stats);

// ------------------------------------------------------------------ rss --

/// Measures the memory the program's work needs: this process's resident
/// high-water mark above the baseline taken at Start (the generated inputs
/// are already resident then), plus, when asked, the high-water marks of
/// its child processes (the shard runners) summed per operation. Sampled
/// on a background thread.
class RssSampler {
 public:
  explicit RssSampler(bool include_children);
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Releases freed heap to the OS, takes the baseline, starts sampling.
  void Start();
  void Stop();
  /// Self high-water above the baseline plus the children's summed
  /// high-water divided by `operations`, in MiB. Call after Stop().
  double PeakMiB(int64_t operations) const;

 private:
  void SampleChildren();

  const bool include_children_;
  int64_t baseline_ = 0;
  // Written by the sampling thread only, read after Stop() joins it.
  int64_t peak_ = 0;
  /// (pid, start time) -> highest VmHWM seen.
  std::map<std::pair<long long, long long>, int64_t> children_hwm_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------- operations --

/// What one operation produced. `seconds` is the end-to-end time of the
/// operation; the phase fields are its parts (0 when not applicable).
struct OpRecord {
  int64_t index = -1;
  bool traced = false;
  double seconds = 0.0;
  /// Non-empty: the operation failed (hang, error status, rejection,
  /// wrong result).
  std::string error;
  Fingerprint fingerprint;
  /// Which reference result the fingerprint must match.
  int64_t reference = 0;
  DiscoveryStats stats;
  double parse_s = 0.0;
  double encode_s = 0.0;
  double discover_s = 0.0;
  double submit_s = 0.0;
  double await_s = 0.0;
  uint64_t span = 0;
};

/// Moves the calling thread onto the `index`-th CPU (modulo the CPUs
/// this process may use).
void PinToCpu(int64_t index);

/// Runs `fn` on its own thread and waits at most `limit_s`. Returns false
/// on a hang; the stuck thread is then abandoned (see Abandon()).
bool RunWithWatchdog(const std::function<void()>& fn, double limit_s);

/// Runs `fn` in a forked child process, which fills the `size` bytes at
/// the pointer it is given; they are copied to `out`. Waits at most
/// `limit_s`. Returns false on a hang, a crash or a short reply; the child
/// is killed if needed and always reaped. Call only while the process has
/// no other threads.
bool RunInChild(const std::function<void(void* out)>& fn, void* out,
                size_t size, double limit_s);

/// Parks a thread stuck in a hung library call. The process then ends
/// through std::_Exit once the result is printed, because neither the
/// thread nor the objects it is blocked on can be torn down.
void Abandon(std::thread thread);
bool AnyAbandoned();

struct LoopResult {
  std::vector<OpRecord> records;
  /// Wall time from the first operation's start to the last one's end.
  double wall_seconds = 0.0;
};

/// The timed window: `workers` threads run operations back to back (a
/// closed loop) until `window_s` has passed, each operation under a
/// watchdog of `watchdog_s`. Operation indices come from one shared
/// counter, so the sequence of operations is the same for any timing. A
/// hung operation is recorded as failed and ends the window.
LoopResult RunWindow(int workers, double window_s, double watchdog_s,
                     int64_t max_ops, int64_t inject_hang,
                     const std::function<OpRecord(int worker, int64_t index)>&
                         op);

// -------------------------------------------------------------- metrics --

double Median(std::vector<double> values);
/// Mean of the middle half of `values` (the interquartile mean): robust
/// to a few outliers like the median, but it moves smoothly when a run's
/// operations split between a faster and a slower host phase, where the
/// median jumps from one phase to the other.
double InterquartileMean(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Human-readable lines, then the one-line JSON result.
  void Print(bool correct, int64_t attempted, int64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
}  // namespace aod

#endif  // AOD_PERFBENCH_BENCH_H_
