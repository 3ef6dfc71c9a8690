#include "od/list_od_validator.h"

#include <numeric>

#include "od/aoc_lis_validator.h"
#include "od/class_order.h"
#include "od/oc_validator.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace {

/// Dense ranks of every row's tuple over `attrs` in lexicographic order
/// (an empty list ranks every row 0). One class-order pass per attribute
/// refines the ranks of the prefix by the next attribute.
EncodedColumn TupleRanks(const EncodedTable& table,
                         const std::vector<int>& attrs, ValidatorScratch& s) {
  const int64_t n = table.num_rows();
  EncodedColumn out;
  out.ranks.assign(static_cast<size_t>(n), 0);
  out.cardinality = 1;
  std::vector<int32_t> all_rows(static_cast<size_t>(n));
  std::iota(all_rows.begin(), all_rows.end(), 0);
  for (int a : attrs) {
    EncodedColumn next;
    next.ranks = table.ranks(a);
    next.cardinality = table.column(a).cardinality;
    const EncodedTable prefix_and_next({std::move(out), std::move(next)}, n);
    const ClassOrder order(prefix_and_next, 0, 1,
                           {.row_ids = true, .ranks_a = true});
    order.Sort(all_rows, &s);
    out = EncodedColumn{};
    out.ranks.resize(static_cast<size_t>(n));
    int32_t rank = -1;
    for (size_t i = 0; i < all_rows.size(); ++i) {
      if (i == 0 || s.ranks_a()[i] != s.ranks_a()[i - 1] ||
          s.projection()[i] != s.projection()[i - 1]) {
        ++rank;
      }
      out.ranks[static_cast<size_t>(s.rows()[i])] = rank;
    }
    out.cardinality = rank + 1;
  }
  return out;
}

/// The list dependency as a canonical one over the whole relation: column
/// 0 holds the lhs tuple ranks, column 1 the rhs tuple ranks.
EncodedTable TupleRankTable(const EncodedTable& table, const ListOd& od,
                            ValidatorScratch& s) {
  return EncodedTable(
      {TupleRanks(table, od.lhs, s), TupleRanks(table, od.rhs, s)},
      table.num_rows());
}

/// List dependencies have no polarity, and both approximate validators
/// report the full minimal removal set.
ValidatorOptions ListOptions(const ValidatorOptions& options) {
  ValidatorOptions list = options;
  list.early_exit = false;
  list.opposite_polarity = false;
  return list;
}

}  // namespace

bool ValidateListOdExact(const EncodedTable& table, const ListOd& od,
                         ValidatorScratch* scratch) {
  // r |= X -> Y iff, with X-ties ordered by Y descending, the Y-projection
  // is non-decreasing: no swap and no split.
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  const EncodedTable ranks = TupleRankTable(table, od, s);
  const int64_t n = table.num_rows();
  return ValidateAodOptimal(ranks, StrippedPartition::WholeRelation(n), 0, 1,
                            0.0, n, {}, &s)
      .valid;
}

bool ValidateListOcExact(const EncodedTable& table, const ListOd& od,
                         ValidatorScratch* scratch) {
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  const EncodedTable ranks = TupleRankTable(table, od, s);
  return ValidateOcExact(
      ranks, StrippedPartition::WholeRelation(table.num_rows()), 0, 1,
      /*opposite=*/false, &s);
}

ValidationOutcome ValidateListOdApprox(const EncodedTable& table,
                                       const ListOd& od, double epsilon,
                                       const ValidatorOptions& options,
                                       ValidatorScratch* scratch) {
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  const EncodedTable ranks = TupleRankTable(table, od, s);
  const int64_t n = table.num_rows();
  return ValidateAodOptimal(ranks, StrippedPartition::WholeRelation(n), 0, 1,
                            epsilon, n, ListOptions(options), &s);
}

ValidationOutcome ValidateListOcApprox(const EncodedTable& table,
                                       const ListOd& od, double epsilon,
                                       const ValidatorOptions& options,
                                       ValidatorScratch* scratch) {
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  const EncodedTable ranks = TupleRankTable(table, od, s);
  const int64_t n = table.num_rows();
  return ValidateAocOptimal(ranks, StrippedPartition::WholeRelation(n), 0, 1,
                            epsilon, n, ListOptions(options), &s);
}

}  // namespace aod
