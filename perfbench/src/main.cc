// perfbench: the libaod benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scale F] [--watchdog S]
//             [--inject-hang I] [--inject-corrupt I]
//             [--runner PATH] [--trace-dir DIR] [--revision REV]
//
// One run: generate the seeded inputs, set the workload up several times,
// each in a fresh child process (setup_s is the median), set it up once
// more in this process, run operations back to back for
// --seconds under a per-operation watchdog, check every result against
// an untimed reference, and print a stamp line, the metrics, and as the
// last line one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 records spans on
// every other operation, adds the seeded per-layer replays and reports
// the per-layer metrics. run.py builds this binary and wraps it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "bench.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace aod {
namespace perfbench {
namespace {

/// Generous bound on one set-up; the per-operation watchdog of the timed
/// window is derived from how long set-up actually took.
constexpr double kSetUpWatchdogSeconds = 60.0;
constexpr size_t kMinSetUpReps = 3;
constexpr size_t kMaxSetUpReps = 15;
constexpr double kSetUpSeconds = 2.0;
constexpr double kMinWatchdogSeconds = 5.0;
constexpr double kWatchdogFactor = 10.0;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale F] [--watchdog S] "
               "[--inject-hang I] [--inject-corrupt I] [--runner PATH] "
               "[--trace-dir DIR] [--revision REV]\n");
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      c.workload = value;
    } else if (flag == "--seed") {
      c.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      c.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      c.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--scale") {
      c.scale = std::strtod(value, nullptr);
    } else if (flag == "--watchdog") {
      c.watchdog_seconds = std::strtod(value, nullptr);
    } else if (flag == "--inject-hang") {
      c.inject_hang = std::strtoll(value, nullptr, 10);
    } else if (flag == "--inject-corrupt") {
      c.inject_corrupt = std::strtoll(value, nullptr, 10);
    } else if (flag == "--runner") {
      c.runner_path = value;
    } else if (flag == "--trace-dir") {
      c.trace_dir = value;
    } else if (flag == "--revision") {
      c.revision = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (c.seconds <= 0 || c.scale <= 0) {
    Usage("--seconds and --scale must be positive");
  }
  return c;
}

/// What a cold set-up child sends back; trivially copyable.
struct ColdSetUpReply {
  double setup_s = 0.0;
  double op_s = 0.0;
  uint64_t digest = 0;
  int64_t dependencies = 0;
  int64_t reference = 0;
  char error[160] = {};
};

/// One set-up in a forked child. Appends its wall time (`limit_s` after a
/// hang or crash) to `setup_s` and returns its operation for verification.
OpRecord ColdSetUp(Workload* workload, double limit_s,
                   std::vector<double>* setup_s) {
  ColdSetUpReply reply;
  const bool done = RunInChild(
      [workload](void* out) {
        ColdSetUpReply r;
        const int64_t start = NowNanos();
        const OpRecord op = workload->SetUp();
        r.setup_s = static_cast<double>(NowNanos() - start) / 1e9;
        r.op_s = op.seconds;
        r.digest = op.fingerprint.digest;
        r.dependencies = op.fingerprint.dependencies;
        r.reference = op.reference;
        std::snprintf(r.error, sizeof(r.error), "%s", op.error.c_str());
        std::memcpy(out, &r, sizeof(r));
      },
      &reply, sizeof(reply), limit_s);
  OpRecord record;
  if (!done) {
    record.error = "set-up hung or crashed";
    setup_s->push_back(limit_s);
    return record;
  }
  record.seconds = reply.op_s;
  record.fingerprint.digest = reply.digest;
  record.fingerprint.dependencies = reply.dependencies;
  record.reference = reply.reference;
  record.error = reply.error;
  setup_s->push_back(reply.setup_s);
  return record;
}

void PrintStamp(const Config& c, const Shape& shape, size_t setup_reps,
                int64_t operations) {
  std::printf(
      "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"revision\": \"%s\", "
      "\"rows\": \"%s\", \"attributes\": %d, \"threads\": \"%s\", "
      "\"scale\": %g, \"seconds\": %g, \"trace\": %d, \"setup_reps\": %zu, "
      "\"timed_operations\": %lld}}\n",
      c.workload.c_str(), static_cast<unsigned long long>(c.seed),
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, c.revision.c_str(), shape.rows.c_str(),
      shape.attributes, shape.threads.c_str(), c.scale, c.seconds,
      c.trace ? 1 : 0, setup_reps, static_cast<long long>(operations));
}

int Main(int argc, char** argv) {
  const Config config = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) Usage(("unknown workload " + config.workload).c_str());

  workload->Generate();

  // Cold set-ups, each in a child forked from this process while it is
  // still single-threaded and has not run the library, so nothing a
  // set-up leaves behind (caches, pools, allocator state) is warm for the
  // next. At least kMinSetUpReps, until kSetUpSeconds of set-up or
  // kMaxSetUpReps; setup_s is their median.
  const double setup_limit = config.watchdog_seconds > 0
                                 ? config.watchdog_seconds
                                 : kSetUpWatchdogSeconds;
  std::vector<OpRecord> setups;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  while (setups.size() < kMinSetUpReps ||
         (setups.size() < kMaxSetUpReps && setup_total < kSetUpSeconds)) {
    setups.push_back(ColdSetUp(workload.get(), setup_limit, &setup_s));
    setup_total += setup_s.back();
    if (!setups.back().error.empty()) break;
  }
  const size_t cold_setups = setups.size();
  bool setup_ok = setups.back().error.empty();

  workload->Reference(0);

  RssSampler rss(workload->measures_children());
  rss.Start();

  // The set-up that stays up for the timed window; its operation is the
  // window's warm-up.
  bool wedged = false;
  if (setup_ok) {
    // Shared with the set-up thread, which a hang leaves running.
    auto result = std::make_shared<OpRecord>();
    Workload* w = workload.get();
    const bool done = RunWithWatchdog(
        [result, w, trace = config.trace] {
          Span span("setup", trace);
          *result = w->SetUp();
        },
        setup_limit);
    OpRecord record = done ? *result : OpRecord();
    if (!done) {
      wedged = true;
      record.error = "hang in set-up";
    }
    setups.push_back(record);
    setup_ok = record.error.empty();
  }

  LoopResult window;
  if (setup_ok) {
    std::vector<double> warm;
    for (const OpRecord& r : setups) warm.push_back(r.seconds);
    const double watchdog =
        config.watchdog_seconds > 0
            ? config.watchdog_seconds
            : std::max(kMinWatchdogSeconds, kWatchdogFactor * Median(warm));
    window = RunWindow(
        workload->workers(), config.seconds, watchdog, workload->max_ops(),
        config.inject_hang, [&](int worker, int64_t index) {
          // Traced runs alternate traced and untraced operations, so the
          // tracing overhead is measured within one run.
          return workload->Run(worker, index, config.trace && index % 2 == 0);
        });
  }
  rss.Stop();
  wedged = wedged || AnyAbandoned();

  // Check every completed operation against its reference.
  int64_t wrong = 0;
  auto verify = [&](OpRecord* r) {
    if (!r->error.empty()) return;
    Span span("verify", r->traced, r->span);
    const Fingerprint expected = workload->Reference(r->reference);
    Fingerprint got = r->fingerprint;
    if (r->index >= 0 && r->index == config.inject_corrupt) got.digest ^= 1;
    if (!(got == expected)) {
      r->error = "wrong result";
      ++wrong;
    }
  };
  for (OpRecord& r : setups) verify(&r);
  for (OpRecord& r : window.records) verify(&r);

  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> ok_seconds, traced_seconds, untraced_seconds;
  std::vector<OpRecord> traced_ok;
  for (const std::vector<OpRecord>* list : {&setups, &window.records}) {
    for (const OpRecord& r : *list) {
      ++attempted;
      if (!r.error.empty()) {
        ++failed;
        std::fprintf(stderr, "operation %lld failed: %s\n",
                     static_cast<long long>(r.index), r.error.c_str());
      }
    }
  }
  for (const OpRecord& r : window.records) {
    if (!r.error.empty()) continue;
    ok_seconds.push_back(r.seconds);
    (r.traced ? traced_seconds : untraced_seconds).push_back(r.seconds);
    if (r.traced) traced_ok.push_back(r);
  }

  Report report;
  if (!config.trace) {
    report.Add("run_s", InterquartileMean(ok_seconds), "s");
    report.Add("run_p90_s", Quantile(ok_seconds, 0.9), "s");
    report.Add("jobs_per_s",
               window.wall_seconds > 0
                   ? static_cast<double>(ok_seconds.size()) / window.wall_seconds
                   : 0.0,
               "1/s");
    report.Add("setup_s", Median(setup_s), "s");
    // Per operation sampled here: the cold set-ups ran in other processes.
    report.Add("peak_rss_mb",
               rss.PeakMiB(attempted - static_cast<int64_t>(cold_setups)),
               "MiB");
  } else {
    LayerValues values;
    if (setup_ok) workload->PerLayer(traced_ok, &values);
    values["fail_frac"] =
        attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                      : 0.0;
    values["trace.overhead_s"] = Median(traced_seconds) - Median(untraced_seconds);
    values["trace.spans"] = static_cast<double>(Tracer::Get().size());
    for (const auto& [name, unit] : PerLayerMetrics()) {
      auto it = values.find(name);
      report.Add(name, it == values.end() ? 0.0 : it->second, unit);
    }
    if (!config.trace_dir.empty()) {
      const std::string path = config.trace_dir + "/" + config.workload +
                               "-seed" + std::to_string(config.seed) + ".json";
      if (!Tracer::Get().Write(path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      }
    }
  }
  if (!wedged) workload->TearDown();

  PrintStamp(config, workload->shape(), cold_setups,
             static_cast<int64_t>(window.records.size()));
  report.Print(wrong == 0, attempted, failed);
  if (wedged) {
    // A thread is stuck inside a hung library call; nothing it holds can
    // be torn down, so end the process without running destructors.
    std::fflush(nullptr);
    std::_Exit(0);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace aod

int main(int argc, char** argv) { return aod::perfbench::Main(argc, argv); }
