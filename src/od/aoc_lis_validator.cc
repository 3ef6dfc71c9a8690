#include "od/aoc_lis_validator.h"

#include <limits>
#include <span>
#include <vector>

#include "algo/lnds.h"
#include "od/class_order.h"

namespace aod {
namespace {

/// Classes of at most this many rows skip the sort (ClassOrder::
/// TinyClassRemovals).
constexpr size_t kTinyClassRows = 3;
/// A class of at least this many rows, and at least 4x the remaining
/// budget + 1, first validates a row-stride sample (so never without a
/// budget).
constexpr size_t kSampleMinRows = 4096;

/// LndsRemovals over the sorted projection in `s`: the patience search
/// below kSuccessorLndsMinRows, the successor-set tails from there on.
int64_t ProjectionRemovals(const ClassOrder& order, int64_t budget,
                           ValidatorScratch& s) {
  const std::vector<int32_t>& xs = s.projection();
  if (xs.size() < kSuccessorLndsMinRows) {
    return LndsRemovals(xs, budget, s.tails());
  }
  const int32_t domain = order.projection_domain();
  return LndsRemovalsBySuccessor(xs, domain, budget, s.value_counts(domain),
                                 s.tail_bits());
}

/// The optimal validators' per-class kernel: |rows| - LNDS of one class in
/// `order`, exact when it is <= `budget` and otherwise budget + 1 (a lower
/// bound), as LndsRemovals. `budget` INT64_MAX computes it exactly.
int64_t ClassRemovals(const ClassOrder& order, std::span<const int32_t> rows,
                      int64_t budget, ValidatorScratch* scratch) {
  ValidatorScratch& s = *scratch;
  const size_t m = rows.size();
  if (m <= kTinyClassRows) {
    const int64_t removals = order.TinyClassRemovals(rows);
    // With no budget (INT64_MAX) this never clamps.
    return removals > budget ? budget + 1 : removals;
  }
  if (m >= kSampleMinRows && static_cast<int64_t>(m / 4) > budget) {
    // Reject from a row-stride sample of ~2 (budget + 1) rows: a minimal
    // removal set of the class restricted to the sample is a removal set
    // of the sample, so the sample's removals never exceed the class's.
    const size_t stride = m / static_cast<size_t>(2 * (budget + 1));
    std::vector<int32_t>& sample = s.rows();
    sample.clear();
    for (size_t i = 0; i < m; i += stride) sample.push_back(rows[i]);
    order.Sort(sample, &s);
    const int64_t removals = ProjectionRemovals(order, budget, s);
    if (removals > budget) return removals;  // budget + 1, as the class
  }
  order.Sort(rows, &s);
  return ProjectionRemovals(order, budget, s);
}

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
  // the unidirectional problem. A plain OC count may swap A and B
  // (ClassOrder::ForOc).
  const ClassOrder order =
      descending_ties || options.collect_removal_set
          ? ClassOrder(table, a, b,
                       {.opposite = options.opposite_polarity,
                        .descending_ties = descending_ties,
                        .row_ids = options.collect_removal_set})
          : ClassOrder::ForOc(table, a, b, options.opposite_polarity);

  ValidationOutcome out;
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    // Line 4: longest non-decreasing subsequence of the B-projection;
    // Line 5: the complement is the removal set for this class.
    if (options.collect_removal_set) {
      order.Sort(cls, &s);
      std::vector<int32_t> removed_positions = LndsComplement(s.projection());
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
      out.removal_size += ClassRemovals(order, cls, budget, &s);
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
