#include "od/class_order.h"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "algo/radix_sort.h"

namespace aod {
namespace {

constexpr int kDigitBits = 8;

/// Bits needed for values in [0, bound).
int BitsFor(int64_t bound) {
  return bound <= 1 ? 0 : std::bit_width(static_cast<uint64_t>(bound - 1));
}

}  // namespace

ClassOrder::ClassOrder(const EncodedTable& table, int a, int b,
                       Options options)
    : ranks_a_(table.ranks(a).data()),
      ranks_b_(table.ranks(b).data()),
      card_b_(table.column(b).cardinality),
      options_(options),
      flip_key_b_(options.opposite != options.descending_ties),
      b_bits_(BitsFor(table.column(b).cardinality)),
      row_bits_(options.row_ids ? BitsFor(table.num_rows()) : 0),
      key_bits_(BitsFor(table.column(a).cardinality) + b_bits_ + row_bits_),
      // Ranks are dense in [0, cardinality), so a cardinality equal to the
      // row count makes them distinct.
      a_is_key_(table.column(a).cardinality == table.num_rows()),
      // Pairs hold the A-B word (at most 62 bits) and the row id apart.
      width_(key_bits_ <= 32   ? KeyWidth::k32
             : key_bits_ <= 64 ? KeyWidth::k64
                               : KeyWidth::kPair) {}

ClassOrder ClassOrder::ForOc(const EncodedTable& table, int a, int b,
                             bool opposite) {
  const bool swap = table.column(b).cardinality > table.column(a).cardinality;
  return ClassOrder(table, swap ? b : a, swap ? a : b, {.opposite = opposite});
}

uint64_t ClassOrder::KeyAB(int32_t r) const {
  const int32_t rb = ranks_b_[r];
  return (static_cast<uint64_t>(ranks_a_[r]) << b_bits_) |
         static_cast<uint64_t>(flip_key_b_ ? card_b_ - 1 - rb : rb);
}

int32_t ClassOrder::ProjectedB(int32_t r) const {
  return options_.opposite ? card_b_ - 1 - ranks_b_[r] : ranks_b_[r];
}

int64_t ClassOrder::TinyClassRemovals(std::span<const int32_t> rows) const {
  if (rows.size() < 2) return 0;
  uint64_t key[3] = {};
  int32_t proj[3] = {};
  for (size_t i = 0; i < rows.size(); ++i) {
    key[i] = KeyAB(rows[i]);
    proj[i] = ProjectedB(rows[i]);
  }
  const auto conflict = [&](size_t i, size_t j) {
    return static_cast<int>((key[i] < key[j]) & (proj[i] > proj[j])) |
           static_cast<int>((key[j] < key[i]) & (proj[j] > proj[i]));
  };
  if (rows.size() == 2) return conflict(0, 1);
  const int conflicts = conflict(0, 1) + conflict(0, 2) + conflict(1, 2);
  // 0 -> 0, 1 -> 1, 2 (a path: keep its two ends) -> 1, 3 -> 2.
  return (conflicts + 1) >> 1;
}

void ClassOrder::Sort(std::span<const int32_t> rows,
                      ValidatorScratch* s) const {
  switch (width_) {
    case KeyWidth::k32:
      SortAs(rows, s->keys32(), s->keys32_tmp(), s);
      break;
    case KeyWidth::k64:
      SortAs(rows, s->keys64(), s->keys64_tmp(), s);
      break;
    case KeyWidth::kPair:
      SortAs(rows, s->key_pairs(), s->key_pairs(), s);
      break;
  }
}

template <typename Key>
void ClassOrder::SortAs(std::span<const int32_t> rows, std::vector<Key>& keys,
                        std::vector<Key>& tmp, ValidatorScratch* s) const {
  constexpr bool kPacked = std::is_integral_v<Key>;
  const size_t m = rows.size();
  keys.resize(m);
  const int32_t b_top = card_b_ - 1;
  for (size_t i = 0; i < m; ++i) {
    const int32_t r = rows[i];
    const uint64_t ab = KeyAB(r);
    if constexpr (kPacked) {
      // row_bits_ == 0 without row ids, leaving the row field empty.
      keys[i] = static_cast<Key>((ab << row_bits_) |
                                 (options_.row_ids ? static_cast<uint64_t>(r)
                                                   : 0));
    } else {
      keys[i] = Key{ab, static_cast<uint32_t>(r)};
    }
  }
  if constexpr (kPacked) {
    // A key's field alone decides the order; the lower bits ride along.
    const int lo_bit = a_is_key_ ? b_bits_ + row_bits_ : 0;
    if (m >= RadixMinRows(key_bits_ - lo_bit)) {
      RadixSort<kDigitBits>(keys, tmp, lo_bit, key_bits_);
    } else {
      std::sort(keys.begin(), keys.end());
    }
  } else {
    std::sort(keys.begin(), keys.end());
  }

  // Decode. Everything is read from the keys, so `rows` may alias
  // s->rows().
  const uint64_t b_mask = (uint64_t{1} << b_bits_) - 1;
  const uint64_t row_mask = (uint64_t{1} << row_bits_) - 1;
  std::vector<int32_t>& projection = s->projection();
  projection.resize(m);
  if (options_.row_ids) s->rows().resize(m);
  if (options_.ranks_a) s->ranks_a().resize(m);
  for (size_t i = 0; i < m; ++i) {
    uint64_t ab;
    uint32_t row;
    if constexpr (kPacked) {
      ab = static_cast<uint64_t>(keys[i]) >> row_bits_;
      row = static_cast<uint32_t>(keys[i] & row_mask);
    } else {
      ab = keys[i].first;
      row = keys[i].second;
    }
    const int32_t key_b = static_cast<int32_t>(ab & b_mask);
    projection[i] = options_.descending_ties ? b_top - key_b : key_b;
    if (options_.row_ids) s->rows()[i] = static_cast<int32_t>(row);
    if (options_.ranks_a) {
      s->ranks_a()[i] = static_cast<int32_t>(ab >> b_bits_);
    }
  }
}

}  // namespace aod
