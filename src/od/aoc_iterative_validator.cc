#include "od/aoc_iterative_validator.h"

#include "algo/inversions.h"
#include "od/class_order.h"

namespace aod {
namespace {

/// View over one equivalence class during the greedy removal loop; all
/// arrays are scratch-owned and re-sliced per class.
struct ClassState {
  std::vector<int32_t>* rows;       // sorted by [A ASC, B ASC] (row ids on)
  std::vector<int32_t>* ra;         // A-ranks in sorted order
  std::vector<int32_t>* rb;         // B-projection in sorted order (dense)
  std::vector<int64_t>* swap_cnt;   // swaps each live tuple participates in
  std::vector<uint8_t>* alive;
};

bool Swapped(const ClassState& s, size_t i, size_t j) {
  // Def. 2.5: (s < t on A and t < s on B) in either orientation.
  return ((*s.ra)[i] < (*s.ra)[j] && (*s.rb)[j] < (*s.rb)[i]) ||
         ((*s.ra)[j] < (*s.ra)[i] && (*s.rb)[i] < (*s.rb)[j]);
}

}  // namespace

ValidationOutcome ValidateAocIterative(
    const EncodedTable& table, const StrippedPartition& context_partition,
    int a, int b, double epsilon, int64_t table_rows,
    const ValidatorOptions& options, ValidatorScratch* scratch) {
  const int64_t card_b = table.column(b).cardinality;
  const int64_t max_removals = MaxRemovals(epsilon, table_rows);
  // Bidirectional polarity: reverse B's rank order (see ValidatorOptions).
  // The dense flip (card-1 - r) keeps the B-projection valid Fenwick
  // indices for the allocation-free swap counter.
  const ClassOrder order(table, a, b,
                         {.opposite = options.opposite_polarity,
                          .row_ids = options.collect_removal_set,
                          .ranks_a = true});

  ValidationOutcome out;
  ValidatorScratch local;
  ValidatorScratch& sc = scratch == nullptr ? local : *scratch;
  ClassState st{&sc.rows(), &sc.ranks_a(), &sc.projection(),
                &sc.swap_counts(), &sc.alive()};
  for (StrippedPartition::ClassSpan cls : context_partition.classes()) {
    // Line 3: order the class by [A ASC, B ASC].
    order.Sort(cls, &sc);
    const size_t m = cls.size();
    st.swap_cnt->resize(m);
    // Line 4: per-tuple swap counts. With ties broken by B, equal-A pairs
    // never invert, so the inversion participation of the B-projection is
    // exactly the swap count (the paper computes the same quantity with a
    // merge-sort variant). The B-ranks are already dense in [0, card_b),
    // so no sort-compression pass is needed.
    PerElementInversionsDense(*st.rb, card_b, &sc.inversions(),
                              st.swap_cnt->data());
    st.alive->assign(m, 1);

    // Lines 6-15: repeatedly drop a tuple with the most swaps.
    while (true) {
      // Line 5/12 equivalent: select the live tuple with maximum count.
      size_t best = m;
      int64_t best_cnt = -1;
      for (size_t i = 0; i < m; ++i) {
        if ((*st.alive)[i] && (*st.swap_cnt)[i] > best_cnt) {
          best = i;
          best_cnt = (*st.swap_cnt)[i];
        }
      }
      if (best == m || best_cnt == 0) break;  // Line 8: class is swap-free.
      (*st.alive)[best] = 0;
      ++out.removal_size;
      if (options.collect_removal_set) {
        out.removal_rows.push_back((*st.rows)[best]);
      }
      // Line 14: cross the threshold -> INVALID. The removal size reported
      // so far is only a lower bound on what this strategy would remove.
      if (options.early_exit && out.removal_size > max_removals) {
        out.valid = false;
        out.early_exit = true;
        out.approx_factor = static_cast<double>(out.removal_size) /
                            static_cast<double>(table_rows);
        return out;
      }
      // Lines 9-11: retract the removed tuple's swaps from the survivors.
      for (size_t i = 0; i < m; ++i) {
        if ((*st.alive)[i] && Swapped(st, best, i)) {
          --(*st.swap_cnt)[i];
        }
      }
    }
  }
  out.valid = out.removal_size <= max_removals;
  out.approx_factor = table_rows == 0
                          ? 0.0
                          : static_cast<double>(out.removal_size) /
                                static_cast<double>(table_rows);
  return out;
}

}  // namespace aod
