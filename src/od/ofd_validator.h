// Validation of OFD candidates X: [] -> A, exact and approximate.
//
// The approximate case uses the linear-time removal-count computation for
// approximate FDs established by Huhtala et al. (TANE [3]), which the
// paper adopts unchanged (Sec. 2.3): within each equivalence class of the
// context, keep the tuples carrying the most frequent A-value and remove
// the rest; the total removed is the minimal removal set size.
#ifndef AOD_OD_OFD_VALIDATOR_H_
#define AOD_OD_OFD_VALIDATOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "data/encoder.h"
#include "od/canonical_od.h"
#include "od/validator_scratch.h"
#include "partition/stripped_partition.h"

namespace aod {

/// True iff A is constant within every class of the context partition:
/// the exact OFD X: [] -> A, which is also the exact FD X -> A.
bool ValidateOfdExact(const EncodedTable& table,
                      const StrippedPartition& context_partition, int a);

/// Validates the OFD approximately against `epsilon`. The removal set is
/// minimal. `table_rows` is |r| (the partition alone cannot supply it, as
/// stripped partitions drop singleton classes). `scratch` (optional)
/// replaces the per-class hash map with pooled dense counters.
ValidationOutcome ValidateOfdApprox(const EncodedTable& table,
                                    const StrippedPartition& context_partition,
                                    int a, double epsilon, int64_t table_rows,
                                    const ValidatorOptions& options = {},
                                    ValidatorScratch* scratch = nullptr);

/// The per-class frequency pass of the removal-count validators (OFD
/// above, AFD g1 in fd_validator.h): counts the class's A-ranks into
/// `freq` (dense per-rank counters, all zero on entry and again on
/// return, so the reset stays O(class size)), calls `on_count(f)` with
/// each running count f, and returns the count of the most frequent
/// value. With `removal_rows` set, appends the class's rows outside its
/// first most frequent value: a minimal removal set for the class.
template <typename OnCount>
inline int32_t CountClassMode(StrippedPartition::ClassSpan cls,
                              const std::vector<int32_t>& ranks,
                              std::vector<int32_t>& freq,
                              std::vector<int32_t>* removal_rows,
                              OnCount on_count) {
  int32_t best = 0;
  for (int32_t row : cls) {
    const int32_t f =
        ++freq[static_cast<size_t>(ranks[static_cast<size_t>(row)])];
    on_count(f);
    best = std::max(best, f);
  }
  if (removal_rows != nullptr) {
    int32_t keep_rank = -1;
    for (int32_t row : cls) {
      if (freq[static_cast<size_t>(ranks[static_cast<size_t>(row)])] ==
          best) {
        keep_rank = ranks[static_cast<size_t>(row)];
        break;
      }
    }
    for (int32_t row : cls) {
      if (ranks[static_cast<size_t>(row)] != keep_rank) {
        removal_rows->push_back(row);
      }
    }
  }
  for (int32_t row : cls) {
    freq[static_cast<size_t>(ranks[static_cast<size_t>(row)])] = 0;
  }
  return best;
}

}  // namespace aod

#endif  // AOD_OD_OFD_VALIDATOR_H_
