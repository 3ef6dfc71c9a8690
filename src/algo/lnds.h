// Longest non-decreasing subsequence.
//
// The heart of the paper's Algorithm 2: after sorting an equivalence class
// by [A ASC, B ASC], the tuples *not* on a longest non-decreasing
// subsequence (LNDS) of the B-projection form a minimal removal set for
// the AOC candidate (paper Thm. 3.3). The patience-style DP in lnds.cc is the
// classic O(m log m) method descending from Fredman [2].
#ifndef AOD_ALGO_LNDS_H_
#define AOD_ALGO_LNDS_H_

#include <cstdint>
#include <span>
#include <vector>

namespace aod {

/// Length of a longest non-decreasing subsequence of `xs`.
int64_t LndsLength(const std::vector<int32_t>& xs);

/// |xs| - LNDS(xs), the removal count of one class (Alg. 2 line 5), with
/// an in-class early exit. After the first i+1 elements, (i+1) - |tails|
/// is a lower bound on the removals of the whole sequence, since
/// LNDS(xs) <= LNDS(prefix) + (elements not yet read). The scan stops as
/// soon as that bound exceeds `budget`: the result is exact when it is
/// <= `budget` and is otherwise `budget + 1`, a lower bound. The
/// patience-DP `tails` is owned by the caller: its contents are ignored
/// and it is grown to |xs| if shorter, so once it has reached the largest
/// input seen the call performs no heap allocation.
///
/// The search that places a non-extending element in `tails` narrows its
/// range with a mask (`lo += half & -(t[lo + half - 1] <= x)`) instead of
/// a branch. This is exact: it is the textbook upper-bound search with
/// each halving step's choice taken arithmetically, and since the append
/// fast path has already found t[len-1] > x, the answer lies in
/// [0, len) and needs no final correction.
int64_t LndsRemovals(std::span<const int32_t> xs, int64_t budget,
                     std::vector<int32_t>& tails);

/// LndsRemovals for values in [0, domain), with the patience tails kept as
/// a multiset over the domain instead of a sorted array: `counts[v]` copies
/// of v, plus 64-ary occupancy bitsets in `bits` (level 0 marks the values
/// with a nonzero count, each higher level the nonzero words below it).
/// The tails array is non-decreasing, so the upper-bound slot of a
/// non-extending x holds the smallest tail greater than x: removing one
/// copy of that successor and inserting x is exactly the patience update,
/// and the running maximum gives the append fast path. Same result and
/// early exit as LndsRemovals.
///
/// `counts` must hold at least `domain` slots, all zero, and `bits` must
/// be all zero (it is grown, zero-filled, to the levels `domain` needs).
/// Both are left all zero: the reset walks the bitsets down to the tails
/// still held, so it touches only those slots and the words marking them.
/// Allocation-free once `bits` has grown.
int64_t LndsRemovalsBySuccessor(std::span<const int32_t> xs, int32_t domain,
                                int64_t budget, std::span<int32_t> counts,
                                std::vector<uint64_t>& bits);

/// Positions (ascending) of one longest non-decreasing subsequence.
std::vector<int32_t> LndsIndices(const std::vector<int32_t>& xs);

/// Positions NOT on the returned LNDS — i.e. the removal set over local
/// positions. Equivalent to complementing LndsIndices but fused to avoid
/// a second pass.
std::vector<int32_t> LndsComplement(const std::vector<int32_t>& xs);

}  // namespace aod

#endif  // AOD_ALGO_LNDS_H_
