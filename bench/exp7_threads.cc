// Exp-7 (this repo, beyond the paper): discovery scalability over worker
// threads.
//
// The paper's testbed is single-threaded Java; our execution subsystem
// (src/exec) schedules candidate validation and partition
// materialization on a persistent work-stealing pool. This harness
// measures wall-clock speedup of AOD (optimal) discovery against a
// 1-worker pool on generated flight/ncvoter data — 100K rows and 10
// attributes at the default scale — for pools of 1, 2, 4 and 8 workers,
// and cross-checks the determinism contract (identical dependency counts
// at every point). One pool per worker count is created up front and
// reused across datasets, exercising pool reuse through
// DiscoveryOptions::pool. Every point is the median of kTimedRepeats
// timed runs after one untimed warm-up, so no point pays for a cold
// start the others skip.
//
// The 1-worker point is the serial run: DiscoverOds treats a 1-worker
// pool as no pool, so the caller validates, merges and derives every
// partition itself.
//
// Speedup is bounded by the machine: on N hardware threads, counts above
// N add scheduling overhead but no parallelism (the printed "hw" line
// tells you where that cliff is). The level-wise lattice also has a
// serial merge phase per level, so perfect linearity is not expected —
// Amdahl caps the curve at the validation + materialization share.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/encoder.h"
#include "exec/thread_pool.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"

namespace aod {
namespace bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

void PrintRow(const char* label, const RunResult& r, double baseline,
              bool deterministic) {
  std::printf("%8s %12.3f %8.2fx %8lld %8lld %12.3f %12.3f%s\n", label,
              r.seconds, r.seconds > 0 ? baseline / r.seconds : 0.0,
              static_cast<long long>(r.ocs), static_cast<long long>(r.ofds),
              r.full.stats.validation_wall_seconds,
              r.full.stats.partition_wall_seconds,
              deterministic ? "" : "  <-- DETERMINISM VIOLATION");
}

void RunDataset(const char* name, bool flight, int64_t base_rows,
                std::vector<std::unique_ptr<exec::ThreadPool>>& pools) {
  const int64_t rows = ScaledRows(base_rows);
  std::printf("\n--- %s (%lld rows, 10 attributes, eps = 10%%) ---\n", name,
              static_cast<long long>(rows));
  Table t = flight ? GenerateFlightTable(rows, 10, 42)
                   : GenerateNcVoterTable(rows, 10, 1729);
  EncodedTable enc = EncodeTable(t);

  std::printf("%8s %12s %9s %8s %8s %12s %12s\n", "workers", "wall(s)",
              "speedup", "#AOC", "#AOFD", "valid.wall", "part.wall");
  DiscoveryOptions options;
  options.validator = ValidatorKind::kOptimal;
  options.epsilon = 0.10;
  double baseline = 0.0;
  int64_t baseline_ocs = 0;
  int64_t baseline_ofds = 0;
  for (size_t i = 0; i < pools.size(); ++i) {
    options.pool = pools[i].get();
    RunResult r = RunDiscoveryWarmMedian(enc, options);
    if (i == 0) {
      baseline = r.seconds;
      baseline_ocs = r.ocs;
      baseline_ofds = r.ofds;
    }
    const std::string label = std::to_string(kThreadCounts[i]);
    PrintRow(label.c_str(), r, baseline,
             r.ocs == baseline_ocs && r.ofds == baseline_ofds);
  }
}

}  // namespace
}  // namespace bench
}  // namespace aod

int main() {
  using namespace aod::bench;
  PrintHeaderLine("Exp-7: scalability in the number of worker threads");
  std::printf("scale=%.2f (default: 100K rows), hw=%d hardware threads\n",
              Scale(), aod::exec::ThreadPool::HardwareConcurrency());
  std::printf("each point: median of %d timed runs after 1 warm-up\n",
              kTimedRepeats);
  PrintNote("speedup is wall-clock vs the 1-worker (serial) run on the same"
            " table; counts must match at every point (determinism"
            " contract).");

  // One persistent pool per worker count, reused across both datasets —
  // workers are spawned once, never per call.
  std::vector<std::unique_ptr<aod::exec::ThreadPool>> pools;
  for (int threads : kThreadCounts) {
    pools.push_back(std::make_unique<aod::exec::ThreadPool>(threads));
  }

  RunDataset("flight", /*flight=*/true, 100000, pools);
  RunDataset("ncvoter", /*flight=*/false, 100000, pools);
  return 0;
}
