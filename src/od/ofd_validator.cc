#include "od/ofd_validator.h"

namespace aod {

bool ValidateOfdExact(const EncodedTable& table,
                      const StrippedPartition& context_partition, int a) {
  const auto& ranks = table.ranks(a);
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    int32_t first = ranks[static_cast<size_t>(cls[0])];
    for (size_t i = 1; i < cls.size(); ++i) {
      if (ranks[static_cast<size_t>(cls[i])] != first) return false;
    }
  }
  return true;
}

ValidationOutcome ValidateOfdApprox(const EncodedTable& table,
                                    const StrippedPartition& context_partition,
                                    int a, double epsilon, int64_t table_rows,
                                    const ValidatorOptions& options,
                                    ValidatorScratch* scratch) {
  const auto& ranks = table.ranks(a);
  const int64_t max_removals = MaxRemovals(epsilon, table_rows);

  ValidationOutcome out;
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  // Dense per-rank counters: ranks are already dense in [0, cardinality),
  // so frequency counting is an array index, not a hash probe.
  std::vector<int32_t>& freq = s.value_counts(table.column(a).cardinality);
  std::vector<int32_t>* removal_rows =
      options.collect_removal_set ? &out.removal_rows : nullptr;
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    const int32_t best =
        CountClassMode(cls, ranks, freq, removal_rows, [](int32_t) {});
    out.removal_size += static_cast<int64_t>(cls.size()) - best;
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

}  // namespace aod
