// Typed, nullable columnar storage.
#ifndef AOD_DATA_COLUMN_H_
#define AOD_DATA_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/value.h"

namespace aod {

/// A single nullable column with one physical type.
///
/// Values are stored in a dense typed vector plus a validity vector so the
/// encoder and generators never pay variant overhead per cell. Appending a
/// Value of the wrong type is a checked programmer error (the CSV reader
/// performs coercion before appending).
class Column {
 public:
  Column(std::string name, DataType type);

  /// An int64 column with no nulls, taking `values` as its cells.
  Column(std::string name, std::vector<int64_t> values);

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }
  int64_t size() const { return static_cast<int64_t>(valid_.size()); }

  /// Reserves room for `n` rows, so a reader that knows its row count
  /// fills the column without regrowing it.
  void Reserve(int64_t n);

  /// Appends a value; must be null or match type().
  void Append(const Value& v);
  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);

  bool IsNull(int64_t row) const { return !valid_[static_cast<size_t>(row)]; }

  /// Materializes row `row` as a Value (null-aware).
  Value GetValue(int64_t row) const;

  /// Overwrites row `row`; must be null or match type(). Used by the error
  /// injector to plant dirty cells.
  void SetValue(int64_t row, const Value& v);

  // Typed raw access for hot paths; rows that are null hold a default
  // (0 / 0.0 / "") slot that must not be interpreted without IsNull().
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }

  /// Number of null cells.
  int64_t null_count() const { return null_count_; }

 private:
  std::string name_;
  DataType type_;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  int64_t null_count_ = 0;
};

}  // namespace aod

#endif  // AOD_DATA_COLUMN_H_
