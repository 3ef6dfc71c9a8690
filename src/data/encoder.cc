#include "data/encoder.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <numeric>
#include <string_view>

#include "common/macros.h"

namespace aod {

EncodedTable::EncodedTable(std::vector<EncodedColumn> columns,
                           int64_t num_rows)
    : columns_(std::move(columns)), num_rows_(num_rows) {
  for (const auto& col : columns_) {
    AOD_CHECK_MSG(static_cast<int64_t>(col.ranks.size()) == num_rows_,
                  "column '%s' has %zu ranks, expected %lld",
                  col.name.c_str(), col.ranks.size(),
                  static_cast<long long>(num_rows_));
  }
}

const EncodedColumn& EncodedTable::column(int i) const {
  AOD_CHECK_MSG(i >= 0 && i < num_columns(), "column index %d out of range",
                i);
  return columns_[static_cast<size_t>(i)];
}

int EncodedTable::ColumnIndex(const std::string& name) const {
  for (int i = 0; i < num_columns(); ++i) {
    if (columns_[static_cast<size_t>(i)].name == name) return i;
  }
  return -1;
}

namespace {

/// Order-preserving unsigned keys: a < b iff Key(a) < Key(b).
uint64_t IntKey(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

uint64_t DoubleKey(double v) {
  if (v == 0.0) v = 0.0;  // -0.0 == 0.0: one key, one rank
  const auto bits = std::bit_cast<uint64_t>(v);
  return (bits >> 63) != 0 ? ~bits : bits | (uint64_t{1} << 63);
}

/// Stable LSD radix sort of (key, row) pairs by key, one byte per pass.
/// Keys are first shifted down by their minimum, and a byte on which every
/// key agrees is skipped, so a column of small values takes one or two
/// passes.
void RadixSortPairs(std::vector<uint64_t>* keys, std::vector<uint32_t>* rows) {
  const size_t n = keys->size();
  if (n < 2) return;
  const uint64_t lo = *std::min_element(keys->begin(), keys->end());
  uint64_t all_or = 0;
  uint64_t all_and = ~uint64_t{0};
  for (uint64_t& k : *keys) {
    k -= lo;
    all_or |= k;
    all_and &= k;
  }
  const uint64_t varying = all_or ^ all_and;
  std::vector<uint64_t> key_buf(n);
  std::vector<uint32_t> row_buf(n);
  for (int shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) == 0) continue;
    size_t offsets[256] = {};
    for (uint64_t k : *keys) ++offsets[(k >> shift) & 0xFF];
    size_t sum = 0;
    for (size_t& o : offsets) {
      const size_t count = o;
      o = sum;
      sum += count;
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t slot = offsets[((*keys)[i] >> shift) & 0xFF]++;
      key_buf[slot] = (*keys)[i];
      row_buf[slot] = (*rows)[i];
    }
    keys->swap(key_buf);
    rows->swap(row_buf);
  }
}

/// Ranks a numeric column: the non-null rows' keys are radix-sorted and
/// equal keys share a rank. Nulls keep rank 0.
template <typename T, typename KeyFn>
void RankNumeric(const Column& column, const std::vector<T>& values,
                 KeyFn key_of, EncodedColumn* out) {
  const size_t n = values.size();
  std::vector<uint64_t> keys;
  std::vector<uint32_t> rows;
  keys.reserve(n - static_cast<size_t>(column.null_count()));
  rows.reserve(keys.capacity());
  for (size_t r = 0; r < n; ++r) {
    if (column.IsNull(static_cast<int64_t>(r))) continue;
    keys.push_back(key_of(values[r]));
    rows.push_back(static_cast<uint32_t>(r));
  }
  RadixSortPairs(&keys, &rows);
  // The sort is stable, so each group starts at its smallest row id: that
  // row's value is the dictionary entry (it keeps -0.0 apart from 0.0).
  int32_t rank = out->cardinality - 1;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) {
      ++rank;
      out->dictionary.emplace_back(values[rows[i]]);
    }
    out->ranks[rows[i]] = rank;
  }
  out->cardinality = rank + 1;
}

/// Ranks an int64 column whose non-null values span fewer than
/// 8 * rows + 64 integers with a presence bitmap over [min, max]: a
/// value's rank is the number of set bits below its own, the popcount of
/// the words before its word plus that of the bits below it in the word.
/// O(rows + span / 64), and the dictionary comes out of the bitmap in
/// rank order. False, with `out` untouched, for a wider span. Nulls keep
/// rank 0.
bool RankDenseInts(const Column& column, EncodedColumn* out) {
  const std::vector<int64_t>& values = column.ints();
  const size_t n = values.size();
  const bool nulls = column.null_count() > 0;
  if (column.null_count() == static_cast<int64_t>(n)) return false;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  for (size_t r = 0; r < n; ++r) {
    if (nulls && column.IsNull(static_cast<int64_t>(r))) continue;
    lo = std::min(lo, values[r]);
    hi = std::max(hi, values[r]);
  }
  const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
  if (span >= 8 * uint64_t{n} + 64) return false;

  const auto offset = [lo](int64_t v) {
    return static_cast<uint64_t>(v) - static_cast<uint64_t>(lo);
  };
  std::vector<uint64_t> bits(static_cast<size_t>(span / 64) + 1, 0);
  for (size_t r = 0; r < n; ++r) {
    if (nulls && column.IsNull(static_cast<int64_t>(r))) continue;
    const uint64_t o = offset(values[r]);
    bits[o / 64] |= uint64_t{1} << (o % 64);
  }
  // below[w]: the rank of the smallest value in word w.
  std::vector<int32_t> below(bits.size());
  int32_t rank = out->cardinality;
  for (size_t w = 0; w < bits.size(); ++w) {
    below[w] = rank;
    rank += std::popcount(bits[w]);
  }
  out->dictionary.reserve(static_cast<size_t>(rank));
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      const uint64_t o = 64 * w + std::countr_zero(word);
      out->dictionary.emplace_back(
          static_cast<int64_t>(static_cast<uint64_t>(lo) + o));
    }
  }
  for (size_t r = 0; r < n; ++r) {
    if (nulls && column.IsNull(static_cast<int64_t>(r))) continue;
    const uint64_t o = offset(values[r]);
    const uint64_t below_bit = (uint64_t{1} << (o % 64)) - 1;
    out->ranks[r] = below[o / 64] + std::popcount(bits[o / 64] & below_bit);
  }
  out->cardinality = rank;
  return true;
}

/// Ranks a string column: rows are hash-deduplicated to first-seen ids,
/// only the distinct strings are sorted, and the ids are remapped to
/// ranks. Nulls keep rank 0.
void RankStrings(const Column& column, EncodedColumn* out) {
  const std::vector<std::string>& values = column.strings();
  const size_t n = values.size();
  std::vector<uint32_t> first_row;  // per id, the row that first held it
  std::vector<uint32_t> ids(n);     // per row; unused for nulls
  // Open addressing with room for n distinct strings at load <= 1/2:
  // slot = id + 1, 0 = free.
  std::vector<uint32_t> slots(std::bit_ceil(2 * n + 1), 0);
  const size_t mask = slots.size() - 1;
  const std::hash<std::string_view> hasher;
  for (size_t r = 0; r < n; ++r) {
    if (column.IsNull(static_cast<int64_t>(r))) continue;
    const std::string& v = values[r];
    size_t i = hasher(v) & mask;
    while (slots[i] != 0 && values[first_row[slots[i] - 1]] != v) {
      i = (i + 1) & mask;
    }
    if (slots[i] == 0) {
      first_row.push_back(static_cast<uint32_t>(r));
      slots[i] = static_cast<uint32_t>(first_row.size());
    }
    ids[r] = slots[i] - 1;
  }
  std::vector<uint32_t> order(first_row.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return values[first_row[a]].compare(values[first_row[b]]) < 0;
  });
  // Distinct strings have distinct ranks; the first row of each is the
  // group's smallest row id.
  std::vector<int32_t> rank_of(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    rank_of[order[i]] = out->cardinality + static_cast<int32_t>(i);
    out->dictionary.emplace_back(values[first_row[order[i]]]);
  }
  for (size_t r = 0; r < n; ++r) {
    if (!column.IsNull(static_cast<int64_t>(r))) {
      out->ranks[r] = rank_of[ids[r]];
    }
  }
  out->cardinality += static_cast<int32_t>(order.size());
}

}  // namespace

EncodedColumn EncodeColumn(const Column& column) {
  const int64_t n = column.size();
  AOD_CHECK_MSG(n <= int64_t{UINT32_MAX}, "column '%s' has too many rows",
                column.name().c_str());
  EncodedColumn out;
  out.name = column.name();
  // Nulls sort first and share rank 0, matching Value's total order.
  out.ranks.assign(static_cast<size_t>(n), 0);
  if (column.null_count() > 0) {
    out.dictionary.push_back(Value::Null());
    out.cardinality = 1;
  }
  switch (column.type()) {
    case DataType::kInt64:
      if (!RankDenseInts(column, &out)) {
        RankNumeric(column, column.ints(), IntKey, &out);
      }
      break;
    case DataType::kDouble:
      RankNumeric(column, column.doubles(), DoubleKey, &out);
      break;
    case DataType::kString:
      RankStrings(column, &out);
      break;
  }
  return out;
}

EncodedTable EncodeTable(const Table& table) {
  std::vector<EncodedColumn> cols;
  cols.reserve(static_cast<size_t>(table.num_columns()));
  for (int c = 0; c < table.num_columns(); ++c) {
    cols.push_back(EncodeColumn(table.column(c)));
  }
  return EncodedTable(std::move(cols), table.num_rows());
}

EncodedTable EncodedTableFromInts(
    const std::vector<std::string>& names,
    const std::vector<std::vector<int64_t>>& columns) {
  AOD_CHECK(names.size() == columns.size());
  int64_t n = columns.empty() ? 0 : static_cast<int64_t>(columns[0].size());
  std::vector<EncodedColumn> cols;
  for (size_t c = 0; c < columns.size(); ++c) {
    AOD_CHECK_MSG(static_cast<int64_t>(columns[c].size()) == n,
                  "ragged input column %zu", c);
    Column col(names[c], DataType::kInt64);
    col.Reserve(n);
    for (int64_t v : columns[c]) col.AppendInt(v);
    cols.push_back(EncodeColumn(col));
  }
  return EncodedTable(std::move(cols), n);
}

}  // namespace aod
