// The paper's Algorithm 2, `Approx-OC-optimal`: LIS-based AOC validation.
//
// Per equivalence class of the context, tuples are ordered by
// [A ASC, B ASC]; the tuples not on a longest non-decreasing subsequence
// (LNDS) of the B-projection form a removal set. Theorem 3.3 proves the
// set is a *minimal* removal set; Theorem 3.4 proves the O(n log n)
// runtime is optimal for AOC validation (via reduction from Fredman's
// LIS-DEC lower bound).
//
// Sec. 3.3 extension: breaking A-ties by B *DESC*ending instead forces the
// LNDS to also eliminate splits, which validates the canonical OD
// X: A -> B (== OC X: A ~ B plus OFD XA: [] -> B) in one pass.
//
// The per-class kernel (ClassRemovals) cuts the constant factor, each
// step exact: every ValidationOutcome field equals what sorting each class
// and running the LNDS on it gives.
//   - A plain OC count sorts by the higher-cardinality attribute first
//     (ClassOrder::ForOc): the LNDS is a longest chain of the product
//     order of (A, B), which is symmetric.
//   - Tiny classes (2 or 3 rows) are not sorted. Their removals are m
//     minus the largest set of pairwise non-conflicting rows
//     (ClassOrder::TinyClassRemovals), and they are clamped to the
//     remaining budget + 1 exactly as LndsRemovals clamps.
//   - Large classes under early exit (m >= 4096 and m >= 4 (budget + 1))
//     first sort and LNDS a row-stride sample of about 2 (budget + 1)
//     rows. A minimal removal set of the class, restricted to the sample,
//     is a removal set of the sample, so the sample's minimal removals
//     never exceed the class's: when they exceed the budget the class's
//     do too, and the class contributes budget + 1, the value the full
//     scan would stop at. Otherwise the full class is sorted as usual.
//   - The sort radix-sorts classes of ClassOrder::RadixMinRows(bits) or
//     more (32 rows up to 40-bit fields, 8 per 8-bit digit beyond the
//     fourth), over A's field alone when A is a table key.
//   - The LNDS of a class below kSuccessorLndsMinRows uses the
//     branch-free patience search (LndsRemovals); from there on the tails
//     are a successor set over B's domain (LndsRemovalsBySuccessor).
// OC counts are validated in groups (ValidateAocOptimalGroup): OCs of one
// context whose sort attribute is the same table key. A key has no ties,
// so the order of a class by [A ASC, B ASC] is its order by A alone,
// whatever B and its polarity are. While two or more members are still
// below their threshold, the group
//   - sorts each class of 4 to 4095 rows once by the key, and each member
//     projects its own B over the sorted rows and runs its LNDS;
//   - reads the whole relation (a class of all n rows) in the key's rank
//     order, order[rank[r]] = r, built once per group: no sort at all,
//     and the stride sample takes every stride-th row of that order;
//   - keeps tiny classes and other classes of >= 4096 rows per member.
// A single OC count is a group of one, so every count runs the same
// per-class loop; each member leaves it at the class and with the clamp
// its own scan would.
// The removal set, when collected, always comes from the full sort in the
// given orientation.
#ifndef AOD_OD_AOC_LIS_VALIDATOR_H_
#define AOD_OD_AOC_LIS_VALIDATOR_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "data/encoder.h"
#include "od/canonical_od.h"
#include "od/validator_scratch.h"
#include "partition/stripped_partition.h"

namespace aod {

/// Sorted classes at least this large find their LNDS with the successor
/// set rather than the patience search: below it the binary search over
/// the short tails array is cheaper than the bitset walk and its reset.
inline constexpr size_t kSuccessorLndsMinRows = 64;

/// Validates the AOC `context_partition`: a ~ b against `epsilon`.
/// The removal set is minimal (Thm. 3.3); `removal_size` is exact unless
/// `early_exit` fired. O(n log n) total. `scratch` (optional) removes the
/// per-call sort/projection allocations.
ValidationOutcome ValidateAocOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options = {},
                                     ValidatorScratch* scratch = nullptr);

/// One OC of a group: the pair and its polarity (ValidatorOptions::
/// opposite_polarity).
struct OcGroupMember {
  int a = -1;
  int b = -1;
  bool opposite = false;
};

/// The shared branches a group validation took.
struct OcGroupBranches {
  /// Classes of 4 to 4095 rows sorted once for two or more members.
  int64_t shared_sorts = 0;
  /// Rank orders of the whole relation built instead of a sort.
  int64_t rank_orders = 0;
};

/// Validates several OCs over one context partition as one unit. out[i]
/// equals, field by field, ValidateAocOptimal(table, context_partition,
/// members[i].a, members[i].b, epsilon, table_rows, {.early_exit =
/// early_exit, .opposite_polarity = members[i].opposite}); no removal
/// sets. The classes are shared (see the header) only when every member
/// sorts by the same table key (ClassOrder::OcPrimary); any other member
/// list is still valid and costs what separate calls would. `out` holds
/// one slot per member.
OcGroupBranches ValidateAocOptimalGroup(
    const EncodedTable& table, const StrippedPartition& context_partition,
    std::span<const OcGroupMember> members, double epsilon,
    int64_t table_rows, bool early_exit, ValidatorScratch* scratch,
    std::span<ValidationOutcome> out);

/// Validates the canonical AOD `context_partition`: a -> b (order *and*
/// constancy of b per a-group) via the descending-tie variant. The removal
/// set is minimal for the OD.
ValidationOutcome ValidateAodOptimal(const EncodedTable& table,
                                     const StrippedPartition& context_partition,
                                     int a, int b, double epsilon,
                                     int64_t table_rows,
                                     const ValidatorOptions& options = {},
                                     ValidatorScratch* scratch = nullptr);

}  // namespace aod

#endif  // AOD_OD_AOC_LIS_VALIDATOR_H_
