#include "algo/lnds.h"

#include <algorithm>
#include <limits>

namespace aod {
namespace {

constexpr int64_t kNoBudget = std::numeric_limits<int64_t>::max();

}  // namespace

int64_t LndsLength(const std::vector<int32_t>& xs) {
  std::vector<int32_t> tails;
  return LndsLength(xs, tails);
}

int64_t LndsLength(std::span<const int32_t> xs, std::vector<int32_t>& tails) {
  return static_cast<int64_t>(xs.size()) - LndsRemovals(xs, kNoBudget, tails);
}

int64_t LndsRemovals(std::span<const int32_t> xs, int64_t budget,
                     std::vector<int32_t>& tails) {
  // t[k] = min tail value of a non-decreasing run of length k+1. Sized once
  // to the input so the scan writes through a raw pointer.
  if (tails.size() < xs.size()) tails.resize(xs.size());
  int32_t* const t = tails.data();
  size_t len = 0;
  int64_t seen = 0;
  for (int32_t x : xs) {
    ++seen;
    // Extending the longest run is the common case on nearly sorted
    // projections; it needs no search.
    if (len == 0 || t[len - 1] <= x) {
      t[len++] = x;
      continue;
    }
    // Upper bound of x in t[0, len), known to lie below len because
    // t[len-1] > x. The answer stays in [lo, lo + n); the mask form
    // compiles to setle/and rather than a mispredicting branch.
    size_t lo = 0;
    for (size_t n = len; n > 1;) {
      const size_t half = n >> 1;
      lo += half & (size_t{0} - static_cast<size_t>(t[lo + half - 1] <= x));
      n -= half;
    }
    t[lo] = x;
    const int64_t removals = seen - static_cast<int64_t>(len);
    if (removals > budget) return removals;
  }
  return static_cast<int64_t>(xs.size() - len);
}

std::vector<int32_t> LndsIndices(const std::vector<int32_t>& xs) {
  const int32_t n = static_cast<int32_t>(xs.size());
  std::vector<int32_t> tail_values;
  std::vector<int32_t> tail_positions;
  std::vector<int32_t> prev(xs.size(), -1);
  tail_values.reserve(xs.size());
  tail_positions.reserve(xs.size());
  for (int32_t i = 0; i < n; ++i) {
    auto it = std::upper_bound(tail_values.begin(), tail_values.end(), xs[i]);
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
