#include "algo/lnds.h"

#include <algorithm>
#include <limits>

namespace aod {
namespace {

/// Shared patience-DP core: removals |xs| - L, L the length of a longest
/// strictly increasing (`kStrict`) or non-decreasing subsequence, stopping
/// once the removals provably exceed `budget` (see LndsRemovals).
template <bool kStrict>
int64_t RemovalsImpl(std::span<const int32_t> xs, int64_t budget,
                     std::vector<int32_t>& tails) {
  tails.clear();  // tails[k] = min tail value of length k+1.
  int64_t seen = 0;
  for (int32_t x : xs) {
    ++seen;
    // Extending the longest run is the common case on nearly sorted
    // projections; it needs no search.
    if (tails.empty() || (kStrict ? tails.back() < x : tails.back() <= x)) {
      tails.push_back(x);
      continue;
    }
    auto it = kStrict ? std::lower_bound(tails.begin(), tails.end(), x)
                      : std::upper_bound(tails.begin(), tails.end(), x);
    *it = x;
    const int64_t removals = seen - static_cast<int64_t>(tails.size());
    if (removals > budget) return removals;
  }
  return static_cast<int64_t>(xs.size() - tails.size());
}

constexpr int64_t kNoBudget = std::numeric_limits<int64_t>::max();

template <bool kStrict>
std::vector<int32_t> IndicesImpl(const std::vector<int32_t>& xs) {
  const int32_t n = static_cast<int32_t>(xs.size());
  std::vector<int32_t> tail_values;
  std::vector<int32_t> tail_positions;
  std::vector<int32_t> prev(xs.size(), -1);
  tail_values.reserve(xs.size());
  tail_positions.reserve(xs.size());
  for (int32_t i = 0; i < n; ++i) {
    typename std::vector<int32_t>::iterator it;
    if constexpr (kStrict) {
      it = std::lower_bound(tail_values.begin(), tail_values.end(), xs[i]);
    } else {
      it = std::upper_bound(tail_values.begin(), tail_values.end(), xs[i]);
    }
    size_t k = static_cast<size_t>(it - tail_values.begin());
    prev[static_cast<size_t>(i)] =
        k == 0 ? -1 : tail_positions[k - 1];
    if (it == tail_values.end()) {
      tail_values.push_back(xs[i]);
      tail_positions.push_back(i);
    } else {
      *it = xs[i];
      tail_positions[k] = i;
    }
  }
  std::vector<int32_t> out(tail_positions.size());
  int32_t cur = tail_positions.empty() ? -1 : tail_positions.back();
  for (size_t k = tail_positions.size(); k-- > 0;) {
    out[k] = cur;
    cur = prev[static_cast<size_t>(cur)];
  }
  return out;
}

}  // namespace

int64_t LndsLength(const std::vector<int32_t>& xs) {
  std::vector<int32_t> tails;
  return LndsLength(xs, tails);
}

int64_t LndsLength(std::span<const int32_t> xs, std::vector<int32_t>& tails) {
  return static_cast<int64_t>(xs.size()) -
         RemovalsImpl<false>(xs, kNoBudget, tails);
}

int64_t LndsRemovals(std::span<const int32_t> xs, int64_t budget,
                     std::vector<int32_t>& tails) {
  return RemovalsImpl<false>(xs, budget, tails);
}

int64_t LisLength(const std::vector<int32_t>& xs) {
  std::vector<int32_t> tails;
  return static_cast<int64_t>(xs.size()) -
         RemovalsImpl<true>(xs, kNoBudget, tails);
}

std::vector<int32_t> LndsIndices(const std::vector<int32_t>& xs) {
  return IndicesImpl<false>(xs);
}

std::vector<int32_t> LisIndices(const std::vector<int32_t>& xs) {
  return IndicesImpl<true>(xs);
}

std::vector<int32_t> LndsComplement(const std::vector<int32_t>& xs) {
  std::vector<int32_t> kept = LndsIndices(xs);
  std::vector<int32_t> out;
  out.reserve(xs.size() - kept.size());
  size_t k = 0;
  for (int32_t i = 0; i < static_cast<int32_t>(xs.size()); ++i) {
    if (k < kept.size() && kept[k] == i) {
      ++k;
    } else {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace aod
