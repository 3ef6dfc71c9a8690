#include "algo/lnds.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/macros.h"

namespace aod {
namespace {

constexpr int64_t kNoBudget = std::numeric_limits<int64_t>::max();

}  // namespace

int64_t LndsLength(const std::vector<int32_t>& xs) {
  std::vector<int32_t> tails;
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

namespace {

// A domain of up to 2^31 values needs 6 levels of 64-ary bitsets.
constexpr int kMaxSuccessorLevels = 6;

/// Word offsets of the levels of 64-ary occupancy bitsets over a domain:
/// level l + 1 has one bit per word of level l, and the top level is a
/// single word.
struct SuccessorLayout {
  explicit SuccessorLayout(int32_t domain) {
    size_t words = std::max<size_t>(1, (static_cast<size_t>(domain) + 63) >> 6);
    for (;;) {
      offset[levels + 1] = offset[levels] + words;
      ++levels;
      if (words <= 1) break;
      words = (words + 63) >> 6;
    }
  }
  size_t offset[kMaxSuccessorLevels + 1] = {};
  int levels = 0;
};

/// Zeroes word `w` of level `l`, and below it every word and count its
/// bits mark.
void ClearMarked(int l, size_t w, const size_t* offset, int32_t* count,
                 uint64_t* bits) {
  uint64_t word = bits[offset[l] + w];
  bits[offset[l] + w] = 0;
  for (; word != 0; word &= word - 1) {
    const size_t below = (w << 6) | static_cast<size_t>(std::countr_zero(word));
    if (l == 0) {
      count[below] = 0;
    } else {
      ClearMarked(l - 1, below, offset, count, bits);
    }
  }
}

}  // namespace

int64_t LndsRemovalsBySuccessor(std::span<const int32_t> xs, int32_t domain,
                                int64_t budget, std::span<int32_t> counts,
                                std::vector<uint64_t>& bits) {
  AOD_DCHECK(counts.size() >= static_cast<size_t>(domain));
  const SuccessorLayout layout(domain);
  const int levels = layout.levels;
  const size_t* const offset = layout.offset;
  if (bits.size() < offset[levels]) bits.resize(offset[levels], 0);
  uint64_t* const b = bits.data();
  int32_t* const count = counts.data();
  const auto insert = [&](size_t v) {
    for (int l = 0; l < levels; ++l, v >>= 6) {
      uint64_t& word = b[offset[l] + (v >> 6)];
      const bool had_bits = word != 0;
      word |= uint64_t{1} << (v & 63);
      if (had_bits) return;  // the levels above already mark this word
    }
  };
  const auto erase = [&](size_t v) {
    for (int l = 0; l < levels; ++l, v >>= 6) {
      uint64_t& word = b[offset[l] + (v >> 6)];
      word &= ~(uint64_t{1} << (v & 63));
      if (word != 0) return;
    }
  };
  // The smallest marked value greater than v; one exists (the top tail).
  const auto successor = [&](size_t v) {
    int l = 0;
    for (;; ++l, v >>= 6) {
      const uint64_t above =
          b[offset[l] + (v >> 6)] & (~uint64_t{1} << (v & 63));
      if (above != 0) {
        v = (v & ~size_t{63}) | static_cast<size_t>(std::countr_zero(above));
        break;
      }
    }
    while (l-- > 0) {
      v = (v << 6) | static_cast<size_t>(std::countr_zero(b[offset[l] + v]));
    }
    return v;
  };

  int32_t top = -1;  // the largest tail; every value is >= 0
  int64_t len = 0;
  int64_t seen = 0;
  for (int32_t x : xs) {
    ++seen;
    const size_t v = static_cast<size_t>(x);
    if (top <= x) {
      if (count[v]++ == 0) insert(v);
      top = x;
      ++len;
      continue;
    }
    // Replace one copy of the smallest tail above x. When that was the
    // last copy of the largest tail, every tail left is <= x.
    const size_t succ = successor(v);
    if (--count[succ] == 0) {
      erase(succ);
      if (succ == static_cast<size_t>(top)) top = x;
    }
    if (count[v]++ == 0) insert(v);
    if (seen - len > budget) break;
  }
  // Only the tails left hold counts and bits: walk them from the top.
  ClearMarked(levels - 1, 0, offset, count, b);
  return seen - len;
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
