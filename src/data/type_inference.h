// Column type inference for textual input (CSV).
#ifndef AOD_DATA_TYPE_INFERENCE_H_
#define AOD_DATA_TYPE_INFERENCE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "data/column.h"

namespace aod {

/// True if `cell` denotes a missing value: empty, "NULL", "null", "NA",
/// "N/A", or "?" (the conventions in the BTS / NCSBE exports the paper
/// profiles).
bool IsNullToken(std::string_view cell);

/// Fast path for the common numeric cell: `cell` matching -?[0-9]{1,18}
/// exactly (no whitespace). Eighteen digits cannot overflow, and the
/// magnitude converts to double exactly as strtod rounds the same digits,
/// so this agrees with ParseInt64 and ParseDouble on every cell it takes.
inline bool MatchSmallInt(std::string_view cell, uint64_t* magnitude,
                          bool* negative) {
  *negative = !cell.empty() && cell[0] == '-';
  if (*negative) cell.remove_prefix(1);
  if (cell.empty() || cell.size() > 18) return false;
  uint64_t v = 0;
  for (char c : cell) {
    const unsigned digit = static_cast<unsigned>(c - '0');
    if (digit > 9) return false;
    v = v * 10 + digit;
  }
  *magnitude = v;
  return true;
}

/// Builds one typed column from its textual cells, parsing each cell once.
///
/// With `infer_types` the column gets the narrowest type that represents
/// every non-null cell: int64 if all parse as integers (ParseInt64), else
/// double if all parse as numbers (ParseDouble), else string. An all-null
/// (or empty) column is typed string; without `infer_types` every column
/// is. Null tokens become nulls; string cells are stored trimmed.
Column ParseColumn(std::string name, std::span<const std::string_view> cells,
                   bool infer_types);

}  // namespace aod

#endif  // AOD_DATA_TYPE_INFERENCE_H_
