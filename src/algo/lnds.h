// Longest non-decreasing / increasing subsequence.
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

/// The same over a span, with the patience-DP `tails` owned by the caller:
/// `tails` is cleared on entry and only grows, so once it has reached the
/// largest LNDS seen the call performs no heap allocation.
int64_t LndsLength(std::span<const int32_t> xs, std::vector<int32_t>& tails);

/// |xs| - LNDS(xs), the removal count of one class (Alg. 2 line 5), with
/// an in-class early exit. After the first i+1 elements, (i+1) - |tails|
/// is a lower bound on the removals of the whole sequence, since
/// LNDS(xs) <= LNDS(prefix) + (elements not yet read). The scan stops as
/// soon as that bound exceeds `budget`: the result is exact when it is
/// <= `budget` and is otherwise `budget + 1`, a lower bound.
/// Allocation-free like the span LndsLength.
int64_t LndsRemovals(std::span<const int32_t> xs, int64_t budget,
                     std::vector<int32_t>& tails);

/// Length of a longest strictly increasing subsequence of `xs`.
int64_t LisLength(const std::vector<int32_t>& xs);

/// Positions (ascending) of one longest non-decreasing subsequence.
std::vector<int32_t> LndsIndices(const std::vector<int32_t>& xs);

/// Positions (ascending) of one longest strictly increasing subsequence.
std::vector<int32_t> LisIndices(const std::vector<int32_t>& xs);

/// Positions NOT on the returned LNDS — i.e. the removal set over local
/// positions. Equivalent to complementing LndsIndices but fused to avoid
/// a second pass.
std::vector<int32_t> LndsComplement(const std::vector<int32_t>& xs);

}  // namespace aod

#endif  // AOD_ALGO_LNDS_H_
