// In-memory relational table instance (the paper's `r`).
#ifndef AOD_DATA_TABLE_H_
#define AOD_DATA_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "data/column.h"
#include "data/schema.h"

namespace aod {

/// Columnar table with a fixed schema.
///
/// The discovery framework never reads a Table directly; it consumes the
/// rank-encoded form produced by EncodeTable() (data/encoder.h). Table is
/// the user-facing ingestion type (CSV reader, generators, examples).
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_fields(); }
  int64_t num_rows() const { return num_rows_; }

  const Column& column(int i) const;
  Column& mutable_column(int i);

  /// Column lookup by name.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends one row; `row.size()` must equal num_columns() and each value
  /// must be null or match the column type.
  void AppendRow(const std::vector<Value>& row);

  Value GetValue(int64_t row, int col) const;
  void SetValue(int64_t row, int col, const Value& v);

  /// Builds a table from literal rows — the test/example workhorse, e.g.
  /// the paper's Table 1 fits in a dozen lines.
  static Table FromRows(Schema schema,
                        const std::vector<std::vector<Value>>& rows);

  /// Builds a table from finished columns of equal length; the schema is
  /// the columns' names and types, in order. The CSV reader's output path.
  static Table FromColumns(std::vector<Column> columns);

  /// Renders rows [0, limit) as an aligned ASCII table (for examples).
  std::string ToString(int64_t limit = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace aod

#endif  // AOD_DATA_TABLE_H_
