// Pooled per-task scratch for the validator hot paths.
//
// Every validator call sorts a class projection and walks derived
// buffers; with one ValidatorScratch borrowed per validation task (the
// driver keeps a free list, mirroring PartitionCache's PartitionScratch
// pool) the steady state performs no heap allocation regardless of class
// count. All buffers grow monotonically to the largest class seen and
// hold no state between calls — any validator may use any subset.
#ifndef AOD_OD_VALIDATOR_SCRATCH_H_
#define AOD_OD_VALIDATOR_SCRATCH_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "algo/inversions.h"

namespace aod {

class ValidatorScratch {
 public:
  /// Row-id buffer: the sorted rows of one class (ClassOrder with row
  /// ids), or a filtered class before it is sorted.
  std::vector<int32_t>& rows() { return rows_; }
  /// B-projection of the sorted class.
  std::vector<int32_t>& projection() { return projection_; }
  /// Class-index ordering buffer (largest-first iteration).
  std::vector<int32_t>& order() { return order_; }
  /// A-ranks of the sorted class (iterative validator).
  std::vector<int32_t>& ranks_a() { return ranks_a_; }
  /// Packed (A, B[, row id]) sort keys of one class and the radix sort's
  /// second buffer (ClassOrder): 32 or 64 bits wide, or (A-B word, row id)
  /// pairs when 64 bits cannot hold the row id.
  std::vector<uint32_t>& keys32() { return keys32_; }
  std::vector<uint32_t>& keys32_tmp() { return keys32_tmp_; }
  std::vector<uint64_t>& keys64() { return keys64_; }
  std::vector<uint64_t>& keys64_tmp() { return keys64_tmp_; }
  std::vector<std::pair<uint64_t, uint32_t>>& key_pairs() {
    return key_pairs_;
  }
  /// Patience-DP tails for the allocation-free LndsRemovals.
  std::vector<int32_t>& tails() { return tails_; }
  /// Occupancy bitsets of LndsRemovalsBySuccessor's tail set (its counts
  /// are value_counts): grown to the largest domain seen and all zero
  /// between calls, since that function clears the words it set.
  std::vector<uint64_t>& tail_bits() { return tail_bits_; }
  /// Per-tuple swap counts and liveness (iterative validator).
  std::vector<int64_t>& swap_counts() { return swap_counts_; }
  std::vector<uint8_t>& alive() { return alive_; }
  /// Fenwick trees for dense per-element inversion counting.
  InversionScratch& inversions() { return inversions_; }

  /// Dense per-value counters over [0, cardinality), zeroed on first
  /// growth: OFD's per-class value counts, and the tail counts of
  /// LndsRemovalsBySuccessor. Callers must re-zero every slot they
  /// touched before returning (decrement back or walk their rows again);
  /// that keeps the reset O(class) rather than O(cardinality).
  std::vector<int32_t>& value_counts(int64_t cardinality) {
    if (static_cast<int64_t>(value_counts_.size()) < cardinality) {
      value_counts_.resize(static_cast<size_t>(cardinality), 0);
    }
    return value_counts_;
  }

 private:
  std::vector<int32_t> rows_;
  std::vector<int32_t> projection_;
  std::vector<int32_t> order_;
  std::vector<int32_t> ranks_a_;
  std::vector<uint32_t> keys32_;
  std::vector<uint32_t> keys32_tmp_;
  std::vector<uint64_t> keys64_;
  std::vector<uint64_t> keys64_tmp_;
  std::vector<std::pair<uint64_t, uint32_t>> key_pairs_;
  std::vector<int32_t> tails_;
  std::vector<uint64_t> tail_bits_;
  std::vector<int64_t> swap_counts_;
  std::vector<uint8_t> alive_;
  std::vector<int32_t> value_counts_;
  InversionScratch inversions_;
};

}  // namespace aod

#endif  // AOD_OD_VALIDATOR_SCRATCH_H_
