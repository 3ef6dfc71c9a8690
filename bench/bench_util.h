// Shared plumbing for the experiment harnesses (bench/exp*.cc).
//
// Each harness regenerates one figure/table of the paper. Because the
// paper's testbed ran hours-long Java jobs on 1M-5M row datasets, the
// default sizes here are scaled down to keep the full suite runnable in
// minutes; set AOD_BENCH_SCALE=<float> to scale row counts up (e.g. 40
// approximates the paper's sizes) and AOD_BENCH_BUDGET=<seconds> to give
// the quadratic iterative validator a larger time allowance (the paper
// used a 24h cap; runs that exceed the budget are reported as ">budget",
// mirroring the paper's "* 24h" annotations).
#ifndef AOD_BENCH_BENCH_UTIL_H_
#define AOD_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "data/encoder.h"
#include "od/discovery.h"

namespace aod {
namespace bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  return end == v ? fallback : parsed;
}

/// Row-count multiplier for all experiment harnesses.
inline double Scale() { return EnvDouble("AOD_BENCH_SCALE", 1.0); }

/// Per-run wall-clock allowance for the iterative validator (seconds).
inline double IterativeBudget() { return EnvDouble("AOD_BENCH_BUDGET", 20.0); }

inline int64_t ScaledRows(int64_t base) {
  double rows = static_cast<double>(base) * Scale();
  return rows < 2 ? 2 : static_cast<int64_t>(rows);
}

/// One measured discovery run.
struct RunResult {
  double seconds = 0.0;
  bool timed_out = false;
  int64_t ocs = 0;
  int64_t ofds = 0;
  int64_t fds = 0;
  int64_t afds = 0;
  double avg_oc_level = 0.0;
  double oc_validation_share = 0.0;
  DiscoveryResult full;
};

/// Measures one DiscoverOds call with fully explicit options (the
/// exp7 threads harness varies num_threads/pool).
inline RunResult RunDiscoveryWithOptions(const EncodedTable& table,
                                         const DiscoveryOptions& options) {
  Stopwatch sw;
  DiscoveryResult result = DiscoverOds(table, options);
  RunResult out;
  out.seconds = sw.ElapsedSeconds();
  out.timed_out = result.timed_out;
  out.ocs = result.CountOfKind(DependencyKind::kOc);
  out.ofds = result.CountOfKind(DependencyKind::kOfd);
  out.fds = result.CountOfKind(DependencyKind::kFd);
  out.afds = result.CountOfKind(DependencyKind::kAfd);
  out.avg_oc_level = result.stats.AverageOcLevel();
  out.oc_validation_share = result.stats.OcValidationShare();
  out.full = std::move(result);
  return out;
}

/// Timed calls behind every point of a scaling series.
inline constexpr int kTimedRepeats = 3;

/// One untimed warm-up call (page cache, allocator, pool workers, the
/// runner binary), then kTimedRepeats timed calls; returns the timed run
/// with the median wall clock. Without the warm-up the first point of a
/// series runs cold, and every later point reads as a super-linear
/// speedup over it.
inline RunResult RunDiscoveryWarmMedian(const EncodedTable& table,
                                        const DiscoveryOptions& options) {
  RunDiscoveryWithOptions(table, options);
  std::vector<RunResult> runs;
  for (int i = 0; i < kTimedRepeats; ++i) {
    runs.push_back(RunDiscoveryWithOptions(table, options));
  }
  std::sort(runs.begin(), runs.end(),
            [](const RunResult& a, const RunResult& b) {
              return a.seconds < b.seconds;
            });
  return std::move(runs[kTimedRepeats / 2]);
}

inline RunResult RunDiscovery(const EncodedTable& table, ValidatorKind kind,
                              double epsilon, double budget_seconds = 0.0) {
  DiscoveryOptions options;
  options.validator = kind;
  options.epsilon = epsilon;
  options.time_budget_seconds = budget_seconds;
  return RunDiscoveryWithOptions(table, options);
}

/// "0.123" or ">20.0*" when the run hit the budget (paper's "* 24h").
inline std::string TimeCell(const RunResult& r) {
  char buf[32];
  if (r.timed_out) {
    std::snprintf(buf, sizeof(buf), ">%.1f*", r.seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f", r.seconds);
  }
  return buf;
}

inline void PrintHeaderLine(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void PrintNote(const char* note) { std::printf("%s\n", note); }

/// Returns the path following a `--json` flag, or nullptr. Shared by the
/// harnesses that emit machine-readable results (CI uploads them as the
/// BENCH_*.json perf-trajectory series).
inline const char* JsonPathArg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  }
  return nullptr;
}

/// Returns the dependency-kind set from a `--kinds=oc,ofd,fd,afd` (or
/// `--kinds <spec>`) flag, defaulting to the classic OC+OFD series.
/// Aborts on an unparseable spec — a bench run over the wrong kinds is
/// worse than no run.
inline DependencyKindSet KindsArg(int argc, char** argv) {
  std::string spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg(argv[i]);
    if (arg.rfind("--kinds=", 0) == 0) {
      spec = arg.substr(8);
    } else if (arg == "--kinds" && i + 1 < argc) {
      spec = argv[i + 1];
    }
  }
  if (spec.empty()) return DependencyKindSet::OdDefault();
  Result<DependencyKindSet> parsed = DependencyKindSet::Parse(spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bad --kinds '%s': %s\n", spec.c_str(),
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return *parsed;
}

}  // namespace bench
}  // namespace aod

#endif  // AOD_BENCH_BENCH_UTIL_H_
