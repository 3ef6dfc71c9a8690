// Exp-2 (paper Figure 3): discovery runtime vs number of attributes.
//
// 1K tuples (paper's choice "to allow experiments with a large number of
// attributes in reasonable time"); attributes swept in multiples of five:
// flight 5..35, ncvoter 5..30; threshold 10%. Expected shape: exponential
// growth in the attribute count (the paper plots log-scale y), with
// AOD(optimal) within a small factor of OD and AOD(iterative) roughly an
// order of magnitude slower — less dramatic than Exp-1 because classes
// are small at 1K rows.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "data/encoder.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"

namespace aod {
namespace bench {
namespace {

void RunDataset(const char* name, bool flight, int max_attrs) {
  std::printf("\n--- %s (1K tuples, eps = 10%%) ---\n", name);
  std::printf("%6s  %12s %6s | %12s %6s | %12s %6s\n", "attrs", "OD(ms)",
              "#OC", "AODopt(ms)", "#AOC", "AODiter(ms)", "#AOC");
  const int64_t rows = ScaledRows(1000);
  for (int attrs = 5; attrs <= max_attrs; attrs += 5) {
    Table t = flight ? GenerateFlightTable(rows, attrs, 42)
                     : GenerateNcVoterTable(rows, attrs, 1729);
    EncodedTable enc = EncodeTable(t);
    RunResult exact = RunDiscovery(enc, ValidatorKind::kExact, 0.10);
    RunResult optimal = RunDiscovery(enc, ValidatorKind::kOptimal, 0.10);
    RunResult iterative = RunDiscovery(enc, ValidatorKind::kIterative, 0.10,
                                       IterativeBudget());
    auto ms = [](const RunResult& r) {
      char buf[32];
      if (r.timed_out) {
        std::snprintf(buf, sizeof(buf), ">%.0f*", r.seconds * 1e3);
      } else {
        std::snprintf(buf, sizeof(buf), "%.1f", r.seconds * 1e3);
      }
      return std::string(buf);
    };
    std::printf("%6d  %12s %6lld | %12s %6lld | %12s %6lld\n", attrs,
                ms(exact).c_str(), static_cast<long long>(exact.ocs),
                ms(optimal).c_str(), static_cast<long long>(optimal.ocs),
                ms(iterative).c_str(),
                static_cast<long long>(iterative.ocs));
  }
}

}  // namespace
}  // namespace bench
}  // namespace aod

int main() {
  using namespace aod::bench;
  // Line-buffered, so a run redirected to a file shows each row as it
  // finishes rather than only at exit.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  PrintHeaderLine(
      "Exp-2 / Figure 3: scalability in the number of attributes");
  PrintNote("paper reference (flight, ms): OD 0..221460, AOD(opt) 0..115949,"
            " AOD(iter) 0..115774 across 5..35 attrs (log-scale growth)");
  PrintNote("paper reference (ncvoter, ms): OD 0..675676, AOD(opt)"
            " 5..1398967 across 5..30 attrs");

  RunDataset("flight", /*flight=*/true, 35);
  RunDataset("ncvoter", /*flight=*/false, 30);
  return 0;
}
