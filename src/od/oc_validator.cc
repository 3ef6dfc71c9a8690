#include "od/oc_validator.h"

#include <algorithm>

#include "algo/inversions.h"
#include "od/class_order.h"

namespace aod {

bool ValidateOcExact(const EncodedTable& table,
                     const StrippedPartition& context_partition, int a,
                     int b, bool opposite, ValidatorScratch* scratch) {
  const ClassOrder class_order(table, a, b, {.opposite = opposite});
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;

  // Largest class first (ties by index, so the order is deterministic):
  // the class most likely to contain a swap is checked before the tail of
  // small ones. Counting sort keyed by class size — O(nc + max_size),
  // which is dominated by the per-class sorting below (max_size <=
  // rows_covered), where a comparison sort of the indices would dominate
  // on singleton-heavy partitions.
  const int64_t nc = context_partition.num_classes();
  std::vector<int32_t>& order = s.order();
  order.resize(static_cast<size_t>(nc));
  int32_t max_size = 0;
  for (int64_t i = 0; i < nc; ++i) {
    max_size = std::max(max_size,
                        static_cast<int32_t>(context_partition.cls(i).size()));
  }
  std::vector<int32_t>& size_count = s.value_counts(max_size + 1);
  for (int64_t i = 0; i < nc; ++i) {
    ++size_count[context_partition.cls(i).size()];
  }
  int32_t cursor = 0;
  for (int32_t sz = max_size; sz >= 2; --sz) {
    int32_t c = size_count[static_cast<size_t>(sz)];
    size_count[static_cast<size_t>(sz)] = cursor;
    cursor += c;
  }
  for (int64_t i = 0; i < nc; ++i) {
    // Ascending i with cursor placement keeps equal-size classes in index
    // order (the deterministic tie-break).
    order[static_cast<size_t>(
        size_count[context_partition.cls(i).size()]++)] =
        static_cast<int32_t>(i);
  }
  for (int32_t sz = 2; sz <= max_size; ++sz) {
    size_count[static_cast<size_t>(sz)] = 0;
  }

  for (int32_t ci : order) {
    class_order.Sort(context_partition.cls(ci), &s);
    const std::vector<int32_t>& projection = s.projection();
    // With ties broken by B, the OC holds on this class iff the
    // B-projection is non-decreasing (any descent certifies a swap).
    for (size_t i = 1; i < projection.size(); ++i) {
      if (projection[i] < projection[i - 1]) return false;
    }
  }
  return true;
}

int64_t CountOcSwaps(const EncodedTable& table,
                     const StrippedPartition& context_partition, int a,
                     int b) {
  const ClassOrder class_order(table, a, b, {});
  ValidatorScratch s;
  int64_t swaps = 0;
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    class_order.Sort(cls, &s);
    swaps += CountInversions(s.projection());
  }
  return swaps;
}

}  // namespace aod
