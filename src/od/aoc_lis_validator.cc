#include "od/aoc_lis_validator.h"

#include <algorithm>
#include <array>
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
/// The count loop tracks at most this many members at once; a larger
/// group is validated in chunks of this size.
constexpr size_t kMaxGroupMembers = 16;

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

/// Whether a class of `m` rows is first validated on a row-stride sample,
/// and if so the stride that takes about 2 (budget + 1) rows. A minimal
/// removal set of the class restricted to the sample is a removal set of
/// the sample, so the sample's removals never exceed the class's.
size_t SampleStride(size_t m, int64_t budget) {
  if (m < kSampleMinRows || static_cast<int64_t>(m / 4) <= budget) return 0;
  return m / static_cast<size_t>(2 * (budget + 1));
}

/// The optimal validators' per-class kernel: |rows| - LNDS of one class in
/// `order`, exact when it is <= `budget` and otherwise budget + 1 (a lower
/// bound), as LndsRemovals. `budget` INT64_MAX computes it exactly.
int64_t ClassRemovals(const ClassOrder& order, std::span<const int32_t> rows,
                      int64_t budget, ValidatorScratch& s) {
  const size_t m = rows.size();
  if (m <= kTinyClassRows) {
    const int64_t removals = order.TinyClassRemovals(rows);
    // With no budget (INT64_MAX) this never clamps.
    return removals > budget ? budget + 1 : removals;
  }
  if (const size_t stride = SampleStride(m, budget); stride > 0) {
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

/// ClassRemovals for a class of at least 4 rows already in `order`'s sort
/// order (ordered by its primary attribute, a table key). The stride
/// sample of a sorted class is sorted, so neither pass sorts.
int64_t SortedClassRemovals(const ClassOrder& order,
                            std::span<const int32_t> sorted, int64_t budget,
                            ValidatorScratch& s) {
  if (const size_t stride = SampleStride(sorted.size(), budget); stride > 0) {
    order.Project(sorted, stride, s.projection());
    const int64_t removals = ProjectionRemovals(order, budget, s);
    if (removals > budget) return removals;
  }
  order.Project(sorted, 1, s.projection());
  return ProjectionRemovals(order, budget, s);
}

/// Marks `out` as stopped at the threshold.
void ExitEarly(int64_t table_rows, ValidationOutcome& out) {
  out.valid = false;
  out.early_exit = true;
  out.approx_factor = static_cast<double>(out.removal_size) /
                      static_cast<double>(table_rows);
}

/// Sets the verdict of a scan that visited every class.
void Finish(int64_t max_removals, int64_t table_rows, ValidationOutcome& out) {
  out.valid = out.removal_size <= max_removals;
  out.approx_factor = table_rows == 0
                          ? 0.0
                          : static_cast<double>(out.removal_size) /
                                static_cast<double>(table_rows);
}

/// The one per-class count loop of the optimal validators (no removal
/// set). Member i counts its removals in `orders[i]` over the classes in
/// partition order and leaves the loop once its sum exceeds
/// `max_removals` under early exit, exactly as a scan of its own would.
/// With `key_order` set, every member's order sorts by the table key
/// `key` first, and `key_order` sorts by it with row ids; while two or
/// more members are live, a class of 4 to kSampleMinRows - 1 rows is then
/// sorted once for all of them, and the whole relation is read in the
/// key's rank order without a sort. Tiny classes and other large ones
/// stay per member.
OcGroupBranches CountRemovals(const EncodedTable& table,
                              const StrippedPartition& partition,
                              std::span<const ClassOrder> orders,
                              const ClassOrder* key_order, int key,
                              int64_t max_removals, bool early_exit,
                              int64_t table_rows, ValidatorScratch& s,
                              std::span<ValidationOutcome> out) {
  OcGroupBranches branches;
  std::array<uint8_t, kMaxGroupMembers> live;
  size_t num_live = orders.size();
  for (size_t i = 0; i < num_live; ++i) {
    live[i] = static_cast<uint8_t>(i);
    out[i] = ValidationOutcome{};
  }
  const auto n = static_cast<size_t>(table.num_rows());
  bool have_rank_order = false;
  for (StrippedPartition::ClassSpan cls : partition.classes()) {
    const size_t m = cls.size();
    // The class in the key's order, when the live members share it.
    std::span<const int32_t> sorted;
    if (key_order != nullptr && num_live >= 2 && m > kTinyClassRows) {
      if (m == n) {
        std::vector<int32_t>& order = s.rank_order();
        if (!have_rank_order) {
          order.resize(n);
          const int32_t* ranks = table.ranks(key).data();
          for (size_t r = 0; r < n; ++r) {
            order[static_cast<size_t>(ranks[r])] = static_cast<int32_t>(r);
          }
          have_rank_order = true;
          ++branches.rank_orders;
        }
        sorted = order;
      } else if (m < kSampleMinRows) {
        key_order->Sort(cls, &s);
        sorted = s.rows();
        ++branches.shared_sorts;
      }
    }
    size_t kept = 0;
    for (size_t j = 0; j < num_live; ++j) {
      const size_t i = live[j];
      ValidationOutcome& o = out[i];
      // With early exit the scan stops inside the class once the
      // threshold is provably crossed; removal_size is then a lower bound.
      const int64_t budget = early_exit ? max_removals - o.removal_size
                                        : std::numeric_limits<int64_t>::max();
      o.removal_size += sorted.empty()
                            ? ClassRemovals(orders[i], cls, budget, s)
                            : SortedClassRemovals(orders[i], sorted, budget, s);
      if (early_exit && o.removal_size > max_removals) {
        ExitEarly(table_rows, o);
      } else {
        live[kept++] = static_cast<uint8_t>(i);
      }
    }
    num_live = kept;
    if (num_live == 0) break;
  }
  for (size_t j = 0; j < num_live; ++j) {
    Finish(max_removals, table_rows, out[live[j]]);
  }
  return branches;
}

/// The removal-set variant of Algorithm 2 (`descending_ties` selects the
/// OD variant): each class fully sorted with row ids, its LNDS complement
/// collected.
ValidationOutcome CollectRemovalSet(const EncodedTable& table,
                                    const StrippedPartition& partition,
                                    int a, int b, double epsilon,
                                    int64_t table_rows,
                                    const ValidatorOptions& options,
                                    bool descending_ties,
                                    ValidatorScratch& s) {
  const int64_t max_removals = MaxRemovals(epsilon, table_rows);
  const ClassOrder order(table, a, b,
                         {.opposite = options.opposite_polarity,
                          .descending_ties = descending_ties,
                          .row_ids = true});
  ValidationOutcome out;
  for (StrippedPartition::ClassSpan cls : partition.classes()) {
    // Line 4: longest non-decreasing subsequence of the B-projection;
    // Line 5: the complement is the removal set for this class.
    order.Sort(cls, &s);
    std::vector<int32_t> removed_positions = LndsComplement(s.projection());
    out.removal_size += static_cast<int64_t>(removed_positions.size());
    for (int32_t pos : removed_positions) {
      out.removal_rows.push_back(s.rows()[static_cast<size_t>(pos)]);
    }
    if (options.early_exit && out.removal_size > max_removals) {
      ExitEarly(table_rows, out);
      return out;
    }
  }
  Finish(max_removals, table_rows, out);
  return out;
}

}  // namespace

OcGroupBranches ValidateAocOptimalGroup(
    const EncodedTable& table, const StrippedPartition& context_partition,
    std::span<const OcGroupMember> members, double epsilon,
    int64_t table_rows, bool early_exit, ValidatorScratch* scratch,
    std::span<ValidationOutcome> out) {
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  const int64_t max_removals = MaxRemovals(epsilon, table_rows);
  OcGroupBranches branches;
  for (size_t first = 0; first < members.size(); first += kMaxGroupMembers) {
    const size_t k = std::min(kMaxGroupMembers, members.size() - first);
    const OcGroupMember& lead = members[first];
    const int key = ClassOrder::OcPrimary(table, lead.a, lead.b);
    bool shared =
        k >= 2 && table.column(key).cardinality == table.num_rows();
    std::array<ClassOrder, kMaxGroupMembers> orders;
    for (size_t i = 0; i < k; ++i) {
      const OcGroupMember& m = members[first + i];
      // Line 3 of Algorithm 2: order each class by [A ASC, B ASC], where
      // an OC may swap A and B (ClassOrder::ForOc). Bidirectional
      // polarity (see ValidatorOptions): reversing B's rank order reduces
      // A asc ~ B desc to the unidirectional problem.
      orders[i] = ClassOrder::ForOc(table, m.a, m.b, m.opposite);
      shared = shared && ClassOrder::OcPrimary(table, m.a, m.b) == key;
    }
    const ClassOrder key_order =
        shared ? ClassOrder::ByKey(table, key) : ClassOrder();
    const OcGroupBranches chunk = CountRemovals(
        table, context_partition, std::span(orders.data(), k),
        shared ? &key_order : nullptr, key, max_removals, early_exit,
        table_rows, s, out.subspan(first, k));
    branches.shared_sorts += chunk.shared_sorts;
    branches.rank_orders += chunk.rank_orders;
  }
  return branches;
}

ValidationOutcome ValidateAocOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options,
                                     ValidatorScratch* scratch) {
  if (options.collect_removal_set) {
    ValidatorScratch local;
    return CollectRemovalSet(table, context_partition, a, b, epsilon,
                             table_rows, options, /*descending_ties=*/false,
                             scratch == nullptr ? local : *scratch);
  }
  // A count is a group of one.
  const OcGroupMember member{a, b, options.opposite_polarity};
  ValidationOutcome out;
  ValidateAocOptimalGroup(table, context_partition, std::span(&member, 1),
                          epsilon, table_rows, options.early_exit, scratch,
                          std::span(&out, 1));
  return out;
}

ValidationOutcome ValidateAodOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options,
                                     ValidatorScratch* scratch) {
  ValidatorScratch local;
  ValidatorScratch& s = scratch == nullptr ? local : *scratch;
  if (options.collect_removal_set) {
    return CollectRemovalSet(table, context_partition, a, b, epsilon,
                             table_rows, options, /*descending_ties=*/true, s);
  }
  // Line 3 with B DESC within A-ties (Sec. 3.3).
  const ClassOrder order(table, a, b,
                         {.opposite = options.opposite_polarity,
                          .descending_ties = true});
  ValidationOutcome out;
  CountRemovals(table, context_partition, std::span(&order, 1),
                /*key_order=*/nullptr, /*key=*/-1,
                MaxRemovals(epsilon, table_rows), options.early_exit,
                table_rows, s, std::span(&out, 1));
  return out;
}

}  // namespace aod
