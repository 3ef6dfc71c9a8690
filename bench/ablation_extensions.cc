// Ablations for the extension modules (DESIGN.md "beyond the paper"):
//   A. parallel level processing — discovery wall-clock vs worker count
//      (the shared-nothing analogue of Saxena et al. [8]);
//   C. bidirectional search [10] — the cost of also exploring the
//      A asc ~ B desc polarity class.
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "data/encoder.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"
#include "od/discovery.h"

namespace aod {
namespace bench {
namespace {

void ParallelAblation() {
  // Attribute-heavy workload: thousands of lattice nodes per level, so
  // per-node validation dominates and parallelism across nodes pays off.
  // (On row-heavy/narrow tables the serial partition products dominate
  // and extra threads cannot help — Amdahl in action.)
  const int64_t rows = ScaledRows(2000);
  Table t = GenerateFlightTable(rows, 22, 42);
  EncodedTable enc = EncodeTable(t);
  std::printf("\n--- A. parallel level processing (flight, %lld rows x 22"
              " attrs) ---\n",
              static_cast<long long>(rows));
  std::printf("hardware threads available: %u  (speedup is bounded by the"
              " core count;\n on a single-core host all rows read ~1.0x —"
              " the tests assert result equality instead)\n",
              std::thread::hardware_concurrency());
  std::printf("%8s  %10s  %8s  %6s\n", "threads", "time(s)", "speedup",
              "#AOC");
  double base = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    DiscoveryOptions options;
    options.epsilon = 0.10;
    options.num_threads = threads;
    Stopwatch sw;
    DiscoveryResult result = DiscoverOds(enc, options);
    double secs = sw.ElapsedSeconds();
    if (threads == 1) base = secs;
    std::printf("%8d  %10.3f  %7.2fx  %6zu\n", threads, secs,
                base / (secs > 0 ? secs : 1e-9), result.Ocs().size());
  }
}

void BidirectionalAblation() {
  const int64_t rows = ScaledRows(10000);
  Table t = GenerateNcVoterTable(rows, 10, 1729);
  EncodedTable enc = EncodeTable(t);
  std::printf("\n--- C. bidirectional search (ncvoter, %lld rows) ---\n",
              static_cast<long long>(rows));
  for (bool bid : {false, true}) {
    DiscoveryOptions options;
    options.epsilon = 0.10;
    options.bidirectional = bid;
    Stopwatch sw;
    DiscoveryResult result = DiscoverOds(enc, options);
    double secs = sw.ElapsedSeconds();
    const auto ocs = result.Ocs();
    int64_t opposite = 0;
    for (const DiscoveredDependency* d : ocs) {
      opposite += d->opposite ? 1 : 0;
    }
    std::printf("%-15s %8.3fs  %4zu OCs (%lld with desc polarity), "
                "%lld OC validations\n",
                bid ? "bidirectional:" : "unidirectional:", secs,
                ocs.size(), static_cast<long long>(opposite),
                static_cast<long long>(
                    result.stats.oc_candidates_validated));
  }
}

}  // namespace
}  // namespace bench
}  // namespace aod

int main() {
  using namespace aod::bench;
  PrintHeaderLine("Ablations: extensions beyond the paper's core");
  ParallelAblation();
  BidirectionalAblation();
  return 0;
}
