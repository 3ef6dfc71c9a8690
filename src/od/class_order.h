// The class-ordering kernel shared by every OC validator.
//
// Line 3 of the paper's Algorithm 2 orders each context class by
// [A ASC, B ASC] before the LNDS pass. ClassOrder does that with one packed
// integer key per row — (rank_A, tie-adjusted B[, row id]), highest bits
// first — so the sort compares plain integers instead of chasing two rank
// arrays per comparison. Classes of RadixMinRows(bits) or more use an LSD
// radix sort over the occupied bit width — over the A field alone when A
// is a table key, since a key has no ties for B or the row id to break;
// smaller ones use std::sort on the keys. Keys are 32 bits wide when the
// field widths fit, 64 otherwise; when even 64 bits cannot hold A, B and
// the row id, the same kernel sorts (A-B word, row id) pairs.
#ifndef AOD_OD_CLASS_ORDER_H_
#define AOD_OD_CLASS_ORDER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/encoder.h"
#include "od/validator_scratch.h"

namespace aod {

class ClassOrder {
 public:
  struct Options {
    /// Reverse B's rank order (the bidirectional polarity A asc ~ B desc):
    /// the projection is card_B-1-rank_B instead of rank_B.
    bool opposite = false;
    /// Break A-ties by the projected B *descending* (the canonical-OD
    /// variant of Sec. 3.3).
    bool descending_ties = false;
    /// Append the row id to the key, which makes the order total:
    /// (A, B, row id). Sort() then also emits the sorted rows.
    bool row_ids = false;
    /// Also emit the A-ranks in sorted order.
    bool ranks_a = false;
  };

  enum class KeyWidth { k32, k64, kPair };

  /// No class below this many rows is radix-sorted: std::sort on the
  /// keys wins over the per-pass bucket setup.
  static constexpr size_t kRadixMinRows = 32;

  /// The smallest class radix-sorted over a field of `bits` bits. Each
  /// 8-bit digit costs a pass over 256 buckets, so std::sort wins longer
  /// the more passes there are: random keys cross over near 32 rows up
  /// to 40 bits, near 40 at 48 bits and near 56–64 at 64 bits, 8 rows per
  /// pass beyond the fourth. A table key's field alone never needs more
  /// than 4 passes.
  static constexpr size_t RadixMinRows(int bits) {
    const auto passes = static_cast<size_t>((bits + 7) / 8);
    return passes > 5 ? 8 * (passes - 1) : kRadixMinRows;
  }

  ClassOrder(const EncodedTable& table, int a, int b, Options options);

  /// The order an OC's removal count is computed in: (a, b) as given, or
  /// (b, a) when b has the higher cardinality, so that the wider
  /// attribute is the sort's primary key (and, when it is a table key,
  /// the radix sort covers its field alone). Exact for |rows| - LNDS: the
  /// LNDS is the longest chain under the product order of (A, B), which
  /// is symmetric in A and B. Under the opposite polarity, a chain with A
  /// ascending and B descending, read backwards, is a chain with B
  /// ascending and A descending, so the flag carries over unchanged. Not
  /// for the OD variant's descending ties, nor for removal sets (their
  /// row order depends on the orientation).
  static ClassOrder ForOc(const EncodedTable& table, int a, int b,
                          bool opposite);

  /// Orders `rows` by (A ASC, tie-adjusted B ASC[, row id ASC]) and writes
  /// the projection of B in that order to `s->projection()`; with
  /// `row_ids` the sorted rows go to `s->rows()` and with `ranks_a` the
  /// A-ranks to `s->ranks_a()`. `rows` may alias `s->rows()`. Allocates
  /// only while the scratch buffers grow.
  void Sort(std::span<const int32_t> rows, ValidatorScratch* s) const;

  /// |rows| - LNDS of a class of at most 3 rows, without sorting it. Two
  /// rows conflict iff, once ordered by the packed (A, tie-adjusted B)
  /// key, the earlier row's projection is the larger; rows with equal keys
  /// have equal projections and never conflict. A non-decreasing
  /// subsequence is exactly a set of pairwise non-conflicting rows, so the
  /// removals are m minus the largest independent set of the conflict
  /// graph: for 3 rows, 0 / 1 / 1 / 2 for 0 / 1 / 2 / 3 conflicts. This
  /// equals sorting and running the LNDS, whatever order the sort gives
  /// equal keys.
  int64_t TinyClassRemovals(std::span<const int32_t> rows) const;

  /// The projection's values lie in [0, projection_domain()): B's
  /// cardinality.
  int32_t projection_domain() const { return card_b_; }

  /// The key representation this instance sorts (exposed for tests).
  KeyWidth key_width() const { return width_; }
  /// Whether A is a table key (cardinality == rows), so the radix sort
  /// orders the A field alone (exposed for tests).
  bool key_only_radix() const { return a_is_key_; }

 private:
  /// The packed (A, tie-adjusted B) word of row `r` (no row id).
  uint64_t KeyAB(int32_t r) const;
  /// The B value row `r` contributes to the projection.
  int32_t ProjectedB(int32_t r) const;

  template <typename Key>
  void SortAs(std::span<const int32_t> rows, std::vector<Key>& keys,
              std::vector<Key>& tmp, ValidatorScratch* s) const;

  const int32_t* ranks_a_;
  const int32_t* ranks_b_;
  int32_t card_b_;
  Options options_;
  bool flip_key_b_;  // key stores card_B-1-rank_B instead of rank_B
  int b_bits_;
  int row_bits_;
  int key_bits_;     // width of the packed (A, B[, row id]) key
  bool a_is_key_;    // A's ranks are distinct: sort by the A field alone
  KeyWidth width_;
};

}  // namespace aod

#endif  // AOD_OD_CLASS_ORDER_H_
