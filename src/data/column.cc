#include "data/column.h"

#include "common/macros.h"

namespace aod {

Column::Column(std::string name, DataType type)
    : name_(std::move(name)), type_(type) {}

Column::Column(std::string name, std::vector<int64_t> values)
    : name_(std::move(name)),
      type_(DataType::kInt64),
      valid_(values.size(), 1),
      ints_(std::move(values)) {}

void Column::Reserve(int64_t n) {
  const size_t rows = static_cast<size_t>(n);
  valid_.reserve(rows);
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(rows);
      break;
    case DataType::kDouble:
      doubles_.reserve(rows);
      break;
    case DataType::kString:
      strings_.reserve(rows);
      break;
  }
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AOD_CHECK_MSG(v.is_int(), "column '%s': appending non-int to int64",
                    name_.c_str());
      AppendInt(v.as_int());
      return;
    case DataType::kDouble:
      AOD_CHECK_MSG(v.is_int() || v.is_double(),
                    "column '%s': appending non-numeric to double",
                    name_.c_str());
      AppendDouble(v.AsNumeric());
      return;
    case DataType::kString:
      AOD_CHECK_MSG(v.is_string(), "column '%s': appending non-string",
                    name_.c_str());
      AppendString(v.as_string());
      return;
  }
}

void Column::AppendNull() {
  valid_.push_back(0);
  ++null_count_;
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
  }
}

void Column::AppendInt(int64_t v) {
  AOD_DCHECK(type_ == DataType::kInt64);
  valid_.push_back(1);
  ints_.push_back(v);
}

void Column::AppendDouble(double v) {
  AOD_DCHECK(type_ == DataType::kDouble);
  valid_.push_back(1);
  doubles_.push_back(v);
}

void Column::AppendString(std::string v) {
  AOD_DCHECK(type_ == DataType::kString);
  valid_.push_back(1);
  strings_.push_back(std::move(v));
}

Value Column::GetValue(int64_t row) const {
  AOD_CHECK_MSG(row >= 0 && row < size(), "row %lld out of range",
                static_cast<long long>(row));
  size_t i = static_cast<size_t>(row);
  if (!valid_[i]) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[i]);
    case DataType::kDouble:
      return Value(doubles_[i]);
    case DataType::kString:
      return Value(strings_[i]);
  }
  return Value::Null();
}

void Column::SetValue(int64_t row, const Value& v) {
  AOD_CHECK_MSG(row >= 0 && row < size(), "row %lld out of range",
                static_cast<long long>(row));
  size_t i = static_cast<size_t>(row);
  bool was_null = !valid_[i];
  if (v.is_null()) {
    if (!was_null) ++null_count_;
    valid_[i] = 0;
    return;
  }
  if (was_null) --null_count_;
  valid_[i] = 1;
  switch (type_) {
    case DataType::kInt64:
      AOD_CHECK(v.is_int());
      ints_[i] = v.as_int();
      return;
    case DataType::kDouble:
      AOD_CHECK(v.is_int() || v.is_double());
      doubles_[i] = v.AsNumeric();
      return;
    case DataType::kString:
      AOD_CHECK(v.is_string());
      strings_[i] = v.as_string();
      return;
  }
}

}  // namespace aod
