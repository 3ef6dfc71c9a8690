// Order-preserving dense rank encoding.
//
// Every OD algorithm in this library needs only (a) the relative order of
// values within each attribute and (b) value equality. Encoding each column
// once into dense int32 ranks (0..cardinality-1, nulls first) makes every
// downstream step — partition products, swap detection, LNDS — pure integer
// work. This mirrors the preprocessing in FASTOD [9] and TANE [3].
#ifndef AOD_DATA_ENCODER_H_
#define AOD_DATA_ENCODER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"

namespace aod {

/// One rank-encoded attribute.
struct EncodedColumn {
  std::string name;
  /// ranks[row] in [0, cardinality); v1 < v2 implies rank(v1) < rank(v2)
  /// under Value's total order (nulls smallest, so nulls share rank 0 when
  /// present).
  std::vector<int32_t> ranks;
  /// Number of distinct values (including the null group if any).
  int32_t cardinality = 0;
  /// dictionary[rank] = the attribute value carrying that rank. Lets the
  /// repair module and debug output translate ranks back to values.
  /// Always of size `cardinality` when produced by EncodeColumn.
  std::vector<Value> dictionary;

  /// Value for `rank`; Null when no dictionary was materialized.
  Value Decode(int32_t rank) const {
    if (rank < 0 || static_cast<size_t>(rank) >= dictionary.size()) {
      return Value::Null();
    }
    return dictionary[static_cast<size_t>(rank)];
  }
};

/// A fully rank-encoded relation instance; the input type of the discovery
/// framework and all validators.
class EncodedTable {
 public:
  EncodedTable() = default;
  EncodedTable(std::vector<EncodedColumn> columns, int64_t num_rows);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }
  const EncodedColumn& column(int i) const;
  const std::vector<int32_t>& ranks(int i) const { return column(i).ranks; }
  const std::string& name(int i) const { return column(i).name; }

  /// Index of attribute `name` or -1.
  int ColumnIndex(const std::string& name) const;

 private:
  std::vector<EncodedColumn> columns_;
  int64_t num_rows_ = 0;
};

/// Encodes every column of `table`.
EncodedTable EncodeTable(const Table& table);

/// Encodes a single column (exposed for tests and custom pipelines) with
/// no comparator sort. An int64 column whose non-null values span fewer
/// than 8 * rows + 64 integers is ranked with a presence bitmap over the
/// span: a value's rank is the popcount of the bits below its own, in
/// O(rows + span / 64). Other int64 and double columns radix-sort
/// order-preserving 64-bit keys (one pass per byte on which the keys
/// differ); string columns hash-deduplicate and sort only the distinct
/// strings. Each dictionary entry is the value at the smallest row id of
/// its group.
EncodedColumn EncodeColumn(const Column& column);

/// Builds an EncodedTable directly from pre-ranked integer columns — used
/// by tests and property checks where the raw-value detour adds nothing.
/// Ranks are densified (values need not be contiguous).
EncodedTable EncodedTableFromInts(
    const std::vector<std::string>& names,
    const std::vector<std::vector<int64_t>>& columns);

}  // namespace aod

#endif  // AOD_DATA_ENCODER_H_
