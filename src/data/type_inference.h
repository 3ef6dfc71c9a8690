// Column type inference for textual input (CSV).
#ifndef AOD_DATA_TYPE_INFERENCE_H_
#define AOD_DATA_TYPE_INFERENCE_H_

#include <span>
#include <string>
#include <string_view>

#include "data/column.h"

namespace aod {

/// True if `cell` denotes a missing value: empty, "NULL", "null", "NA",
/// "N/A", or "?" (the conventions in the BTS / NCSBE exports the paper
/// profiles).
bool IsNullToken(std::string_view cell);

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
