// RFC-4180-style CSV reader with type inference: integer columns are
// typed and parsed while the text is split.
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

/// Parses CSV text into a Table in one columnar pass. Fields are split
/// per column, finding the end of an unquoted field eight bytes at a
/// time. With type inference, a column whose data fields so far all match
/// -?[0-9]{1,18} exactly is parsed to int64 in the same pass and becomes
/// an int64 column as it is; at its first other field it falls back to
/// views into `text` (its earlier fields' text recovered by one more walk
/// over the rows they span), typed by ParseColumn with every cell parsed
/// once, so types and values are those inference gives. Handles quoted
/// fields with embedded delimiters/newlines/CRLF (preserved verbatim) and
/// doubled-quote escapes; tolerates CRLF and classic-Mac lone-'\r' record
/// endings and a final record without a trailing newline. Malformed input
/// fails with a ParseError rather than misparsing: rows whose field count
/// differs from the header (too few or too many), unterminated quotes,
/// and bytes between a closing quote and the next delimiter/record end
/// are all rejected.
Result<Table> ParseCsv(std::string_view text, const CsvOptions& options = {});

/// Reads and parses a CSV file.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvOptions& options = {});

/// Serializes a table back to CSV (used by examples and test round-trips).
std::string WriteCsv(const Table& table, char delimiter = ',');

}  // namespace aod

#endif  // AOD_DATA_CSV_PARSER_H_
