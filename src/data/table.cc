#include "data/table.h"

#include <algorithm>

#include "common/macros.h"

namespace aod {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).name, schema_.field(i).type);
  }
}

const Column& Table::column(int i) const {
  AOD_CHECK_MSG(i >= 0 && i < num_columns(), "column index %d out of range",
                i);
  return columns_[static_cast<size_t>(i)];
}

Column& Table::mutable_column(int i) {
  AOD_CHECK_MSG(i >= 0 && i < num_columns(), "column index %d out of range",
                i);
  return columns_[static_cast<size_t>(i)];
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  AOD_ASSIGN_OR_RETURN(int idx, schema_.FieldIndex(name));
  return &columns_[static_cast<size_t>(idx)];
}

void Table::AppendRow(const std::vector<Value>& row) {
  AOD_CHECK_MSG(static_cast<int>(row.size()) == num_columns(),
                "row has %zu values, table has %d columns", row.size(),
                num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    columns_[static_cast<size_t>(i)].Append(row[static_cast<size_t>(i)]);
  }
  ++num_rows_;
}

Value Table::GetValue(int64_t row, int col) const {
  return column(col).GetValue(row);
}

void Table::SetValue(int64_t row, int col, const Value& v) {
  mutable_column(col).SetValue(row, v);
}

Table Table::FromRows(Schema schema,
                      const std::vector<std::vector<Value>>& rows) {
  Table t(std::move(schema));
  for (const auto& row : rows) t.AppendRow(row);
  return t;
}

Table Table::FromColumns(std::vector<Column> columns) {
  Schema schema;
  for (const Column& col : columns) schema.AddField({col.name(), col.type()});
  Table t(std::move(schema));
  t.num_rows_ = columns.empty() ? 0 : columns[0].size();
  for (const Column& col : columns) {
    AOD_CHECK_MSG(col.size() == t.num_rows_,
                  "column '%s' has %lld rows, expected %lld",
                  col.name().c_str(), static_cast<long long>(col.size()),
                  static_cast<long long>(t.num_rows_));
  }
  t.columns_ = std::move(columns);
  return t;
}

std::string Table::ToString(int64_t limit) const {
  int64_t n = std::min(limit, num_rows_);
  std::vector<std::vector<std::string>> cells;
  std::vector<size_t> widths;
  std::vector<std::string> header;
  for (int c = 0; c < num_columns(); ++c) {
    header.push_back(schema_.field(c).name);
    widths.push_back(header.back().size());
  }
  for (int64_t r = 0; r < n; ++r) {
    std::vector<std::string> row;
    for (int c = 0; c < num_columns(); ++c) {
      row.push_back(GetValue(r, c).ToString());
      widths[static_cast<size_t>(c)] =
          std::max(widths[static_cast<size_t>(c)], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  auto emit_row = [&](const std::vector<std::string>& row, std::string* out) {
    for (size_t c = 0; c < row.size(); ++c) {
      *out += row[c];
      out->append(widths[c] - row[c].size() + 2, ' ');
    }
    *out += "\n";
  };
  std::string out;
  emit_row(header, &out);
  for (const auto& row : cells) emit_row(row, &out);
  if (n < num_rows_) {
    out += "... (" + std::to_string(num_rows_ - n) + " more rows)\n";
  }
  return out;
}

}  // namespace aod
