// RFC-4180-style CSV reader with type inference.
#ifndef AOD_DATA_CSV_PARSER_H_
#define AOD_DATA_CSV_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/table.h"

namespace aod {

/// CSV parsing options.
struct CsvOptions {
  char delimiter = ',';
  /// First record carries column names; otherwise columns are named c0..cN.
  bool has_header = true;
  /// Infer int64/double column types from the data; otherwise everything
  /// is read as string.
  bool infer_types = true;
  /// Stop after this many data rows (-1 = read all). Supports the paper's
  /// prefix-sampling experiments. Input past the limit is not examined:
  /// a malformed record after it is not an error.
  int64_t max_rows = -1;
};

/// Parses CSV text into a Table in one columnar pass: fields are recorded
/// per column as views into `text`, then each column is typed and filled
/// with every cell parsed once. Handles quoted fields with embedded
/// delimiters/newlines/CRLF (preserved verbatim) and doubled-quote
/// escapes; tolerates CRLF and classic-Mac lone-'\r' record endings and
/// a final record without a trailing newline. Malformed input fails with
/// a ParseError rather than misparsing: rows whose field count differs
/// from the header (too few or too many), unterminated quotes, and bytes
/// between a closing quote and the next delimiter/record end are all
/// rejected.
Result<Table> ParseCsv(std::string_view text, const CsvOptions& options = {});

/// Reads and parses a CSV file.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table back to CSV (used by examples and test round-trips).
std::string WriteCsv(const Table& table, char delimiter = ',');

}  // namespace aod

#endif  // AOD_DATA_CSV_PARSER_H_
