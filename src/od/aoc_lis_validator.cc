#include "od/aoc_lis_validator.h"

#include <limits>

#include "algo/lnds.h"
#include "od/class_order.h"

namespace aod {
namespace {

/// Shared implementation; `descending_ties` selects the OD variant.
ValidationOutcome ValidateLis(const EncodedTable& table,
                              const StrippedPartition& context_partition,
                              int a, int b, double epsilon,
                              int64_t table_rows,
                              const ValidatorOptions& options,
                              bool descending_ties,
                              ValidatorScratch* scratch) {
  const int64_t max_removals = MaxRemovals(epsilon, table_rows);
  // Line 3 of Algorithm 2: order each class by [A ASC, B ASC] (B DESC
  // within A-ties for the OD variant). Bidirectional polarity (see
  // ValidatorOptions): reversing B's rank order reduces A asc ~ B desc to
  // the unidirectional problem.
  const ClassOrder order(table, a, b,
                         {.opposite = options.opposite_polarity,
                          .descending_ties = descending_ties,
                          .row_ids = options.collect_removal_set});

  ValidationOutcome out;
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    order.Sort(cls, &s);
    const std::vector<int32_t>& projection = s.projection();
    // Line 4: longest non-decreasing subsequence of the B-projection;
    // Line 5: the complement is the removal set for this class.
    if (options.collect_removal_set) {
      std::vector<int32_t> removed_positions = LndsComplement(projection);
      out.removal_size += static_cast<int64_t>(removed_positions.size());
      for (int32_t pos : removed_positions) {
        out.removal_rows.push_back(s.rows()[static_cast<size_t>(pos)]);
      }
    } else {
      // With early exit the scan stops inside the class once the
      // threshold is provably crossed; removal_size is then a lower bound.
      const int64_t budget = options.early_exit
                                 ? max_removals - out.removal_size
                                 : std::numeric_limits<int64_t>::max();
      out.removal_size += LndsRemovals(projection, budget, s.tails());
    }
    if (options.early_exit && out.removal_size > max_removals) {
      out.valid = false;
      out.early_exit = true;
      out.approx_factor = static_cast<double>(out.removal_size) /
                          static_cast<double>(table_rows);
      return out;
    }
  }
  out.valid = out.removal_size <= max_removals;
  out.approx_factor = table_rows == 0
                          ? 0.0
                          : static_cast<double>(out.removal_size) /
                                static_cast<double>(table_rows);
  return out;
}

}  // namespace

ValidationOutcome ValidateAocOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options,
                                     ValidatorScratch* scratch) {
  return ValidateLis(table, context_partition, a, b, epsilon, table_rows,
                     options, /*descending_ties=*/false, scratch);
}

ValidationOutcome ValidateAodOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options,
                                     ValidatorScratch* scratch) {
  return ValidateLis(table, context_partition, a, b, epsilon, table_rows,
                     options, /*descending_ties=*/true, scratch);
}

}  // namespace aod
