#include "od/fd_validator.h"

#include "od/ofd_validator.h"

namespace aod {

ValidationOutcome ValidateAfdG1(const EncodedTable& table,
                                const StrippedPartition& context_partition,
                                int a, double max_g1_error,
                                int64_t table_rows,
                                const ValidatorOptions& options,
                                ValidatorScratch* scratch) {
  const auto& ranks = table.ranks(a);
  const double denom = static_cast<double>(table_rows) *
                       static_cast<double>(table_rows);
  // Largest violating-pair count still within budget; FP round-off is
  // guarded the same way MaxRemovals guards the removal budget.
  int64_t max_violations =
      table_rows == 0 ? 0 : static_cast<int64_t>(max_g1_error * denom);
  while (max_violations > 0 &&
         static_cast<double>(max_violations) > max_g1_error * denom) {
    --max_violations;
  }

  ValidationOutcome out;
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  std::vector<int32_t>& freq = s.value_counts(table.column(a).cardinality);
  std::vector<int32_t>* removal_rows =
      options.collect_removal_set ? &out.removal_rows : nullptr;
  int64_t violations = 0;
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    // Σ_v cnt_v² incrementally: adding the f-th copy of a value adds
    // f² − (f−1)² = 2f − 1 to the sum of squares.
    int64_t sum_squares = 0;
    const int32_t best =
        CountClassMode(cls, ranks, freq, removal_rows, [&](int32_t f) {
          sum_squares += 2 * static_cast<int64_t>(f) - 1;
        });
    const int64_t size = static_cast<int64_t>(cls.size());
    violations += size * size - sum_squares;
    out.removal_size += size - best;
    if (options.early_exit && violations > max_violations) {
      out.valid = false;
      out.early_exit = true;
      out.approx_factor = static_cast<double>(violations) / denom;
      return out;
    }
  }
  out.valid = violations <= max_violations;
  out.approx_factor =
      table_rows == 0 ? 0.0 : static_cast<double>(violations) / denom;
  return out;
}

}  // namespace aod
