// The four benchmark workloads behind one interface.
//
//   flight-aoc         CSV -> ParseCsv -> EncodeTable -> DiscoverOds, OC/OFD,
//                      optimal validator: OC validation dominates.
//   ncvoter-fd-budget  the same pipeline over FD/AFD with a partition memory
//                      budget: partition products and eviction dominate.
//   serve-mix          closed-loop clients against an in-process
//                      DiscoveryServer: Submit -> Await round trips.
//   shard-proc         the flight-aoc pipeline on ncvoter, sharded over
//                      spawned shard runner processes.
//
// README.md records why each was chosen and what it bypasses.
#ifndef AOD_PERFBENCH_WORKLOADS_H_
#define AOD_PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "data/encoder.h"

namespace aod {
namespace perfbench {

/// Input shape of a workload, printed in the stamp.
struct Shape {
  std::string rows;
  int attributes = 0;
  /// Library threads (plus client connections or runner processes).
  std::string threads;
};

/// Per-layer values a workload measured, keyed by the names in
/// PerLayerMetrics(); anything absent reads 0 (module not exercised).
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the seeded inputs. Not timed, and resident before the memory
  /// baseline is taken.
  virtual void Generate() = 0;
  /// Reference result for `key` by the simplest path (direct, unsharded,
  /// one thread), computed untimed on first use and cached.
  virtual Fingerprint Reference(int64_t key) = 0;
  /// One set-up: the workload's start-up work plus its warm-up operation.
  /// Called once in this process and, for setup_s, in forked children
  /// before the library has run here.
  virtual OpRecord SetUp() = 0;
  virtual int workers() const { return 1; }
  virtual int64_t max_ops() const { return 1 << 20; }
  virtual bool measures_children() const { return false; }
  /// One timed operation; `traced` records its spans.
  virtual OpRecord Run(int worker, int64_t index, bool traced) = 0;
  /// Releases what SetUp() started (skipped after a hang).
  virtual void TearDown() {}
  /// Fills per-layer values from the traced operations and the
  /// workload's seeded replays.
  virtual void PerLayer(const std::vector<OpRecord>& traced,
                        LayerValues* values) = 0;
  virtual Shape shape() const = 0;
};

std::unique_ptr<Workload> MakeWorkload(const Config& config);

/// Every per-layer metric with its unit, in print order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

// Helpers shared by the workloads (layers.cc).

/// Medians of the DiscoveryStats-derived metrics over `records`.
void AddDiscoveryLayers(const std::vector<OpRecord>& records,
                        LayerValues* values);
/// Seeded replays of single library calls on `table`: base partitions,
/// products, one validation per kind, and the partition wire codec.
void AddReplays(const EncodedTable& table, double epsilon, uint64_t seed,
                LayerValues* values);
/// Median ParseCsv / EncodeTable time over a few replays of `csv`.
void AddIngestReplay(const std::string& csv, LayerValues* values);

}  // namespace perfbench
}  // namespace aod

#endif  // AOD_PERFBENCH_WORKLOADS_H_
