#include "data/type_inference.h"

#include <cctype>
#include <optional>

#include "common/string_util.h"

namespace aod {

bool IsNullToken(std::string_view cell) {
  // Every null token starts, untrimmed, with whitespace, 'n', 'N' or '?';
  // most cells are ruled out here, before any trim or compare.
  if (!cell.empty()) {
    const char c = cell[0];
    if (c != 'n' && c != 'N' && c != '?' &&
        !std::isspace(static_cast<unsigned char>(c))) {
      return false;
    }
  }
  cell = TrimWhitespace(cell);
  if (cell.empty()) return true;
  // "nan" is how R and numpy spell a missing numeric; non-finite values
  // have no place in a totally ordered domain, so treat them as missing.
  return EqualsIgnoreCase(cell, "null") || EqualsIgnoreCase(cell, "na") ||
         EqualsIgnoreCase(cell, "n/a") || EqualsIgnoreCase(cell, "nan") ||
         cell == "?";
}

namespace {

/// Fills `col` from `cells` as int64; false at the first non-null cell
/// that is not an integer.
bool FillInts(std::span<const std::string_view> cells, Column* col) {
  for (std::string_view raw : cells) {
    const std::string_view cell = TrimWhitespace(raw);
    uint64_t magnitude;
    bool negative;
    if (MatchSmallInt(cell, &magnitude, &negative)) {
      const auto v = static_cast<int64_t>(magnitude);
      col->AppendInt(negative ? -v : v);
      continue;
    }
    if (IsNullToken(cell)) {
      col->AppendNull();
      continue;
    }
    const std::optional<int64_t> v = ParseInt64(cell);
    if (!v.has_value()) return false;
    col->AppendInt(*v);
  }
  return true;
}

/// Fills `col` from `cells` as double; false at the first non-null cell
/// that is not a number.
bool FillDoubles(std::span<const std::string_view> cells, Column* col) {
  for (std::string_view raw : cells) {
    const std::string_view cell = TrimWhitespace(raw);
    uint64_t magnitude;
    bool negative;
    if (MatchSmallInt(cell, &magnitude, &negative)) {
      // Negating after the conversion keeps "-0" as -0.0, like strtod.
      const auto v = static_cast<double>(magnitude);
      col->AppendDouble(negative ? -v : v);
      continue;
    }
    if (IsNullToken(cell)) {
      col->AppendNull();
      continue;
    }
    const std::optional<double> v = ParseDouble(cell);
    if (!v.has_value()) return false;
    col->AppendDouble(*v);
  }
  return true;
}

Column FillStrings(std::string name, std::span<const std::string_view> cells) {
  Column col(std::move(name), DataType::kString);
  col.Reserve(static_cast<int64_t>(cells.size()));
  for (std::string_view cell : cells) {
    if (IsNullToken(cell)) {
      col.AppendNull();
    } else {
      col.AppendString(std::string(TrimWhitespace(cell)));
    }
  }
  return col;
}

}  // namespace

Column ParseColumn(std::string name, std::span<const std::string_view> cells,
                   bool infer_types) {
  const auto n = static_cast<int64_t>(cells.size());
  if (infer_types) {
    // Try the narrowest type first; a wider attempt restarts from row 0
    // and reparses the text, because an int64 "-0" must become -0.0 in a
    // double column, as strtod reads it.
    Column col(name, DataType::kInt64);
    col.Reserve(n);
    if (FillInts(cells, &col)) {
      if (col.null_count() < n) return col;
      return FillStrings(std::move(name), cells);  // all null (or empty)
    }
    col = Column(name, DataType::kDouble);  // frees the int64 attempt
    col.Reserve(n);
    if (FillDoubles(cells, &col)) return col;
  }
  return FillStrings(std::move(name), cells);
}

}  // namespace aod
