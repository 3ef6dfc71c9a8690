// Fenwick (binary indexed) tree over int64 counts.
#ifndef AOD_ALGO_FENWICK_H_
#define AOD_ALGO_FENWICK_H_

#include <cstdint>
#include <vector>

#include "common/macros.h"

namespace aod {

/// Point-update / prefix-sum structure used by the per-element swap
/// counter (algo/inversions.h). Indices are 0-based externally.
class FenwickTree {
 public:
  /// A size-0 tree holds no storage, so an idle InversionScratch (and
  /// with it a default ValidatorScratch) costs no allocation.
  explicit FenwickTree(int64_t size)
      : tree_(size > 0 ? static_cast<size_t>(size) + 1 : 0, 0) {}

  int64_t size() const {
    return tree_.empty() ? 0 : static_cast<int64_t>(tree_.size()) - 1;
  }

  /// Adds `delta` at position `index`.
  void Add(int64_t index, int64_t delta) {
    AOD_DCHECK(index >= 0 && index < size());
    for (int64_t i = index + 1; i <= size(); i += i & (-i)) {
      tree_[static_cast<size_t>(i)] += delta;
    }
  }

  /// Sum of positions [0, index] (returns 0 for index < 0).
  int64_t PrefixSum(int64_t index) const {
    if (index < 0) return 0;
    AOD_DCHECK(index < size());
    int64_t sum = 0;
    for (int64_t i = index + 1; i > 0; i -= i & (-i)) {
      sum += tree_[static_cast<size_t>(i)];
    }
    return sum;
  }

  /// Sum of positions [lo, hi] (empty if lo > hi).
  int64_t RangeSum(int64_t lo, int64_t hi) const {
    if (lo > hi) return 0;
    return PrefixSum(hi) - PrefixSum(lo - 1);
  }

  /// Total of all positions.
  int64_t Total() const { return PrefixSum(size() - 1); }

  void Reset() { std::fill(tree_.begin(), tree_.end(), 0); }

 private:
  std::vector<int64_t> tree_;
};

}  // namespace aod

#endif  // AOD_ALGO_FENWICK_H_
