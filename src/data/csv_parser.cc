#include "data/csv_parser.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "common/string_util.h"
#include "data/type_inference.h"

namespace aod {
namespace {

/// The cells of a CSV input, column-major: columns[c][r] is field c of
/// record r (the header, if any, is record 0).
struct CsvFields {
  std::vector<std::vector<std::string_view>> columns;
  /// Unescaped quoted fields that contain doubled quotes.
  std::string arena;
  int64_t records = 0;
};

/// Splits CSV text into per-column field views, honoring quoting, and
/// stops once `max_records` records are closed (-1 = no limit). An
/// unquoted field, and a quoted one without doubled quotes, is a view
/// into `text`; a quoted field with doubled quotes is unescaped into
/// `out->arena`. Every record must have as many fields as the first.
Status SplitFields(std::string_view text, char delimiter,
                   int64_t max_records, CsvFields* out) {
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  const char* p = begin;
  auto& columns = out->columns;
  // Every record but possibly the last ends in a newline; reserving that
  // many rows up front keeps the column vectors from regrowing.
  int64_t expected = 1;
  for (const char* nl = p; expected != max_records; ++nl, ++expected) {
    nl = static_cast<const char*>(
        std::memchr(nl, '\n', static_cast<size_t>(end - nl)));
    if (nl == nullptr) break;
  }

  bool ends_field[256] = {};
  ends_field[static_cast<unsigned char>(delimiter)] = true;
  ends_field[static_cast<unsigned char>('\n')] = true;
  ends_field[static_cast<unsigned char>('\r')] = true;

  size_t field = 0;  // fields closed so far in the current record
  auto add_field = [&](std::string_view value) {
    if (out->records == 0) {
      columns.emplace_back().reserve(static_cast<size_t>(expected));
    }
    if (field < columns.size()) columns[field].push_back(value);
    ++field;
  };
  // Closes the current record; false once the record limit is reached.
  Status status;
  auto close_record = [&]() {
    if (out->records > 0 && field != columns.size()) {
      status = Status::ParseError(
          "row " + std::to_string(out->records) + " has " +
          std::to_string(field) + " fields, expected " +
          std::to_string(columns.size()));
      return false;
    }
    field = 0;
    ++out->records;
    return out->records != max_records;
  };

  // Each iteration reads one field; p is at its first byte.
  while (true) {
    if (p == end) {
      // A trailing delimiter leaves one empty field open.
      if (field > 0) {
        add_field({});
        close_record();
      }
      break;
    }
    if (field == 0 && (*p == '\n' || *p == '\r')) {
      ++p;  // a blank line (or the LF of a blank CRLF line)
      continue;
    }
    std::string_view value;
    if (*p == '"') {
      const char* start = ++p;
      const char* quote = static_cast<const char*>(
          std::memchr(p, '"', static_cast<size_t>(end - p)));
      if (quote != nullptr && (quote + 1 == end || quote[1] != '"')) {
        value = std::string_view(start, static_cast<size_t>(quote - start));
        p = quote + 1;
      } else {
        // Doubled quotes: unescape into the arena. Unescaped text is never
        // longer than the input, so with capacity for all of it reserved
        // the arena never reallocates and earlier views stay valid.
        if (out->arena.capacity() < text.size()) {
          out->arena.reserve(text.size());
        }
        const size_t offset = out->arena.size();
        while (true) {
          if (quote == nullptr) {
            return Status::ParseError(
                "unterminated quoted field at end of input");
          }
          if (quote + 1 < end && quote[1] == '"') {
            out->arena.append(p, quote + 1);
            p = quote + 2;
          } else {
            out->arena.append(p, quote);
            p = quote + 1;
            break;
          }
          quote = static_cast<const char*>(
              std::memchr(p, '"', static_cast<size_t>(end - p)));
        }
        value = std::string_view(out->arena).substr(offset);
      }
      // After a closing quote only a delimiter or a record end may follow
      // ('"a"b' is not "ab" in any CSV dialect); accepting the byte would
      // silently corrupt the field.
      if (p != end && !ends_field[static_cast<unsigned char>(*p)]) {
        return Status::ParseError(
            "unexpected character after closing quote at byte " +
            std::to_string(p - begin));
      }
    } else {
      // A quote inside an unquoted field is an ordinary byte.
      const char* start = p;
      while (p != end && !ends_field[static_cast<unsigned char>(*p)]) ++p;
      value = std::string_view(start, static_cast<size_t>(p - start));
    }
    add_field(value);
    if (p == end) {
      close_record();
      break;
    }
    if (*p++ == delimiter) continue;
    // A record end: LF, CRLF, or a lone CR (classic-Mac line endings).
    if (p[-1] == '\r' && p != end && *p == '\n') ++p;
    if (!close_record()) break;
  }
  return status;
}

}  // namespace

Result<Table> ParseCsv(std::string_view text, const CsvOptions& options) {
  const int first_data = options.has_header ? 1 : 0;
  // The first record is read even when max_rows is 0: it fixes the width.
  const int64_t max_records =
      options.max_rows < 0
          ? -1
          : std::max<int64_t>(options.max_rows + first_data, 1);
  CsvFields fields;
  AOD_RETURN_NOT_OK(
      SplitFields(text, options.delimiter, max_records, &fields));
  if (fields.records == 0) {
    return Status::ParseError("CSV input contains no records");
  }

  const size_t width = fields.columns.size();
  std::vector<std::string> names;
  for (size_t c = 0; c < width; ++c) {
    names.push_back(options.has_header
                        ? std::string(TrimWhitespace(fields.columns[c][0]))
                        : "c" + std::to_string(c));
  }
  // De-duplicate header names defensively: real exports repeat names.
  for (size_t c = 0; c < names.size(); ++c) {
    if (names[c].empty()) names[c] = "c" + std::to_string(c);
    for (size_t p = 0; p < c; ++p) {
      if (names[p] == names[c]) {
        names[c] += "_" + std::to_string(c);
        break;
      }
    }
  }

  // Without a header, max_rows = 0 still reads one record for the width.
  size_t rows = static_cast<size_t>(fields.records - first_data);
  if (options.max_rows >= 0) {
    rows = std::min(rows, static_cast<size_t>(options.max_rows));
  }
  std::vector<Column> columns;
  columns.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    std::vector<std::string_view>& cells = fields.columns[c];
    columns.push_back(ParseColumn(
        std::move(names[c]),
        std::span<const std::string_view>(cells).subspan(first_data, rows),
        options.infer_types));
    std::vector<std::string_view>().swap(cells);  // release as we go
  }
  return Table::FromColumns(std::move(columns));
}

Result<Table> ReadCsvFile(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError("cannot open file: " + path);
  }
  // Read straight into the string the parser views. A regular file takes
  // one read of its size (+1 byte, so that read already meets end of
  // file); a pipe has no size and grows the buffer until end of file.
  std::error_code size_error;
  const uintmax_t size = std::filesystem::file_size(path, size_error);
  std::string text(size_error ? size_t{1} << 16 : size + 1, '\0');
  size_t used = 0;
  while (true) {
    in.read(text.data() + used,
            static_cast<std::streamsize>(text.size() - used));
    used += static_cast<size_t>(in.gcount());
    if (in.eof()) break;
    if (!in) {
      return Status::IoError("cannot read file: " + path);
    }
    text.resize(2 * text.size());
  }
  text.resize(used);
  return ParseCsv(text, options);
}

std::string WriteCsv(const Table& table, char delimiter) {
  auto escape = [&](const std::string& s) {
    bool needs_quotes = s.find(delimiter) != std::string::npos ||
                        s.find('"') != std::string::npos ||
                        s.find('\n') != std::string::npos ||
                        s.find('\r') != std::string::npos;
    if (!needs_quotes) return s;
    std::string out = "\"";
    for (char c : s) {
      if (c == '"') out += "\"\"";
      else out += c;
    }
    out += "\"";
    return out;
  };
  std::string out;
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += delimiter;
    out += escape(table.schema().field(c).name);
  }
  out += "\n";
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += delimiter;
      Value v = table.GetValue(r, c);
      if (!v.is_null()) out += escape(v.ToString());
    }
    out += "\n";
  }
  return out;
}

}  // namespace aod
