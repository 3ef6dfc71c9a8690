#include "od/discovery_stats.h"

#include <sstream>

#include "common/string_util.h"

namespace aod {

double DiscoveryStats::OcValidationShare() const {
  if (total_seconds <= 0.0) return 0.0;
  return oc_validation_seconds / total_seconds;
}

double DiscoveryStats::AverageOcLevel() const {
  int64_t count = 0;
  int64_t weighted = 0;
  for (size_t level = 0; level < levels.size(); ++level) {
    const int64_t ocs =
        levels[level].found[static_cast<int>(DependencyKind::kOc)];
    count += ocs;
    weighted += ocs * static_cast<int64_t>(level);
  }
  if (count == 0) return 0.0;
  return static_cast<double>(weighted) / static_cast<double>(count);
}

int64_t DiscoveryStats::Total(DependencyKind kind) const {
  int64_t total = 0;
  for (const LevelStats& l : levels) total += l.found[static_cast<int>(kind)];
  return total;
}

LevelStats& DiscoveryStats::Level(int level) {
  if (static_cast<int>(levels.size()) <= level) {
    levels.resize(static_cast<size_t>(level) + 1);
  }
  return levels[static_cast<size_t>(level)];
}

std::string DiscoveryStats::ToString() const {
  // FD/AFD lines and columns appear only when those kinds actually ran,
  // so the report for a default-kind (OC/OFD) run is byte-identical to
  // the pre-multi-kind format.
  const bool fd_kinds_ran =
      fd_candidates_validated + afd_candidates_validated > 0;
  std::ostringstream out;
  out << "total time: " << FormatDouble(total_seconds, 3) << " s wall, "
      << threads_used << (threads_used == 1 ? " thread" : " threads") << "\n"
      << "  OC validation:  " << FormatDouble(oc_validation_seconds, 3)
      << " s CPU (" << FormatDouble(100.0 * OcValidationShare(), 1)
      << "% of total; summed across workers)\n"
      << "  OFD validation: " << FormatDouble(ofd_validation_seconds, 3)
      << " s CPU\n"
      << (fd_kinds_ran
              ? "  FD validation:  " + FormatDouble(fd_validation_seconds, 3) +
                    " s CPU\n" + "  AFD validation: " +
                    FormatDouble(afd_validation_seconds, 3) + " s CPU\n"
              : "")
      << "  partitions:     " << FormatDouble(partition_seconds, 3)
      << " s CPU (" << partitions_computed << " products)\n"
      << "  planner:        " << planner_derivations << " planned derivations"
      << ", cost est " << planner_cost_estimated << " / realized "
      << planner_cost_realized << " rows\n"
      << "  partition memory: "
      << FormatDouble(static_cast<double>(partition_bytes_peak) / (1 << 20), 2)
      << " MiB peak, "
      << FormatDouble(static_cast<double>(partition_bytes_evicted) / (1 << 20),
                      2)
      << " MiB evicted, "
      << FormatDouble(static_cast<double>(partition_bytes_final) / (1 << 20),
                      2)
      << " MiB final (" << partitions_evicted << " evicted)\n"
      << "  phase wall clock: candidates "
      << FormatDouble(candidate_wall_seconds, 3) << " s, validation "
      << FormatDouble(validation_wall_seconds, 3) << " s, partitions "
      << FormatDouble(partition_wall_seconds, 3) << " s, merge "
      << FormatDouble(merge_wall_seconds, 3) << " s\n"
      << (shards_used > 0
              ? "  shards:         " + std::to_string(shards_used) +
                    " shard runners, " +
                    FormatDouble(
                        static_cast<double>(shard_bytes_shipped) / (1 << 20),
                        2) +
                    " MiB shipped over the wire\n" +
                    "  shard codecs:   " +
                    FormatDouble(
                        static_cast<double>(shard_bytes_wire) / (1 << 20), 2) +
                    " MiB wire / " +
                    FormatDouble(
                        static_cast<double>(shard_bytes_raw) / (1 << 20), 2) +
                    " MiB raw (ratio " +
                    FormatDouble(shard_bytes_wire > 0
                                     ? static_cast<double>(shard_bytes_raw) /
                                           static_cast<double>(
                                               shard_bytes_wire)
                                     : 0.0,
                                 2) +
                    "x)\n"
              : "")
      << (row_shards_used > 0
              ? "  row shards:     " + std::to_string(row_shards_used) +
                    " row shards, " +
                    FormatDouble(static_cast<double>(row_shard_bytes_shipped) /
                                     (1 << 20),
                                 2) +
                    " MiB shipped (" +
                    FormatDouble(
                        static_cast<double>(row_shard_bytes_wire) / (1 << 20),
                        2) +
                    " MiB wire / " +
                    FormatDouble(
                        static_cast<double>(row_shard_bytes_raw) / (1 << 20),
                        2) +
                    " MiB raw)\n"
              : "")
      << "candidates: " << oc_candidates_validated << " OC validated, "
      << oc_candidates_pruned << " OC pruned, " << ofd_candidates_validated
      << " OFD validated"
      << (fd_kinds_ran ? ", " + std::to_string(fd_candidates_validated) +
                             " FD validated, " +
                             std::to_string(afd_candidates_validated) +
                             " AFD validated"
                       : "")
      << "\n"
      << "lattice: " << nodes_processed << " nodes over " << levels_processed
      << " levels\n"
      << "found: " << TotalOcs() << " OCs (avg level "
      << FormatDouble(AverageOcLevel(), 2) << "), "
      << Total(DependencyKind::kOfd) << " OFDs"
      << (fd_kinds_ran
              ? ", " + std::to_string(Total(DependencyKind::kFd)) + " FDs, " +
                    std::to_string(Total(DependencyKind::kAfd)) + " AFDs"
              : "")
      << "\n";
  out << (fd_kinds_ran ? "per level (level: nodes / OCs / OFDs / FDs / AFDs):\n"
                       : "per level (level: nodes / OCs / OFDs):\n");
  // Columns in kind order; without FD/AFD only the OC and OFD ones.
  const int columns = fd_kinds_ran ? kNumDependencyKinds : 2;
  for (size_t level = 1; level < levels.size(); ++level) {
    const LevelStats& l = levels[level];
    out << "  " << level << ": " << l.nodes;
    for (int k = 0; k < columns; ++k) {
      out << " / " << l.found[k];
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace aod
