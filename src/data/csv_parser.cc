#include "data/csv_parser.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "common/string_util.h"
#include "data/type_inference.h"

namespace aod {
namespace {

constexpr uint64_t kLowBits = 0x0101010101010101;
constexpr uint64_t kHighBits = 0x8080808080808080;

/// The bytes of `word` equal to the byte `pattern` repeats, as each
/// byte's high bit. The lowest flagged byte is always a true match: a
/// borrow can flag a false one only above a true one.
inline uint64_t MatchBytes(uint64_t word, uint64_t pattern) {
  const uint64_t x = word ^ pattern;
  return (x - kLowBits) & ~x & kHighBits;
}

/// The first delimiter, CR or LF in [p, end), or end. Tests eight bytes
/// at a time while eight remain, so no load reaches past `end`.
inline const char* FindFieldEnd(const char* p, const char* end,
                                uint64_t delimiters, const bool* ends_field) {
  if constexpr (std::endian::native == std::endian::little) {
    while (end - p >= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      const uint64_t hits = MatchBytes(word, delimiters) |
                            MatchBytes(word, kLowBits * '\r') |
                            MatchBytes(word, kLowBits * '\n');
      if (hits != 0) return p + std::countr_zero(hits) / 8;
      p += 8;
    }
  }
  while (p != end && !ends_field[static_cast<unsigned char>(*p)]) ++p;
  return p;
}

/// Walks CSV text field by field, honoring quoting. Calls
/// `on_field(index, value, unquoted)` for each field of a record and
/// `on_record(fields)` at each record end; a false return from on_record
/// stops the walk. An unquoted field, and a quoted one without doubled
/// quotes, is a view into `text`; a quoted field with doubled quotes is
/// unescaped into `arena`, or passed empty when `arena` is null. `unquoted`
/// is set when the field's text is exactly the bytes of `value`.
template <typename OnField, typename OnRecord>
Status Tokenize(std::string_view text, char delimiter, std::string* arena,
                OnField&& on_field, OnRecord&& on_record) {
  const char* const begin = text.data();
  const char* const end = begin + text.size();
  const char* p = begin;
  bool ends_field[256] = {};
  ends_field[static_cast<unsigned char>(delimiter)] = true;
  ends_field[static_cast<unsigned char>('\n')] = true;
  ends_field[static_cast<unsigned char>('\r')] = true;
  const uint64_t delimiters = kLowBits * static_cast<unsigned char>(delimiter);

  size_t field = 0;  // fields closed so far in the current record
  // Each iteration reads one field; p is at its first byte.
  while (true) {
    if (p == end) {
      // A trailing delimiter leaves one empty field open.
      if (field > 0) {
        on_field(field++, std::string_view(), true);
        on_record(field);
      }
      break;
    }
    if (field == 0 && (*p == '\n' || *p == '\r')) {
      ++p;  // a blank line (or the LF of a blank CRLF line)
      continue;
    }
    if (*p == '"') {
      std::string_view value;
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
        if (arena != nullptr && arena->capacity() < text.size()) {
          arena->reserve(text.size());
        }
        const size_t offset = arena != nullptr ? arena->size() : 0;
        while (true) {
          if (quote == nullptr) {
            return Status::ParseError(
                "unterminated quoted field at end of input");
          }
          const bool doubled = quote + 1 < end && quote[1] == '"';
          if (arena != nullptr) arena->append(p, quote + (doubled ? 1 : 0));
          p = quote + (doubled ? 2 : 1);
          if (!doubled) break;
          quote = static_cast<const char*>(
              std::memchr(p, '"', static_cast<size_t>(end - p)));
        }
        if (arena != nullptr) value = std::string_view(*arena).substr(offset);
      }
      // After a closing quote only a delimiter or a record end may follow
      // ('"a"b' is not "ab" in any CSV dialect); accepting the byte would
      // silently corrupt the field.
      if (p != end && !ends_field[static_cast<unsigned char>(*p)]) {
        return Status::ParseError(
            "unexpected character after closing quote at byte " +
            std::to_string(p - begin));
      }
      on_field(field++, value, false);
    } else {
      // A quote inside an unquoted field is an ordinary byte.
      const char* start = p;
      p = FindFieldEnd(p, end, delimiters, ends_field);
      on_field(field++,
               std::string_view(start, static_cast<size_t>(p - start)), true);
    }
    if (p == end) {
      on_record(field);
      break;
    }
    if (*p++ == delimiter) continue;
    // A record end: LF, CRLF, or a lone CR (classic-Mac line endings).
    if (p[-1] == '\r' && p != end && *p == '\n') ++p;
    if (!on_record(field)) break;
    field = 0;
  }
  return Status::OK();
}

/// The data fields of one CSV column. While every one of them matches
/// -?[0-9]{1,18} exactly (MatchSmallInt), each is parsed as it is split
/// into `ints`, which becomes the column as it is. The first other field
/// moves the column to `views`, which ParseColumn types from the text, as
/// it does every column when types are not inferred.
struct SplitColumn {
  bool integer = false;
  std::vector<int64_t> ints;
  std::vector<std::string_view> views;
  /// Rows whose text a second walk puts into views: those the column
  /// read on the integer path before it left.
  size_t text_prefix = 0;
};

/// The fields of a CSV input, column-major.
struct CsvFields {
  std::vector<std::string_view> header;  // empty without a header
  std::vector<SplitColumn> columns;
  /// Unescaped quoted fields that contain doubled quotes.
  std::string arena;
  int64_t records = 0;  // the header included
};

/// Splits CSV text into per-column fields and stops once `max_records`
/// records are closed (-1 = no limit). Columns start on the integer path
/// when `integers` is set. Every record must have as many fields as the
/// first.
Status SplitFields(std::string_view text, char delimiter, bool has_header,
                   bool integers, int64_t max_records, CsvFields* out) {
  const char* const end = text.data() + text.size();
  auto& columns = out->columns;
  // Every record but possibly the last ends in a newline; reserving that
  // many rows up front keeps the column vectors from regrowing.
  int64_t expected = 1;
  for (const char* nl = text.data(); expected != max_records;
       ++nl, ++expected) {
    nl = static_cast<const char*>(
        std::memchr(nl, '\n', static_cast<size_t>(end - nl)));
    if (nl == nullptr) break;
  }
  const auto reserve = static_cast<size_t>(expected);
  const int64_t first_data = has_header ? 1 : 0;

  size_t text_rows = 0;  // the longest text prefix any column needs
  auto on_field = [&](size_t field, std::string_view value, bool unquoted) {
    if (out->records == 0) {
      SplitColumn& col = columns.emplace_back();
      col.integer = integers;
      if (integers) {
        col.ints.reserve(reserve);
      } else {
        col.views.reserve(reserve);
      }
      if (has_header) {
        out->header.push_back(value);
        return;
      }
    }
    if (field >= columns.size()) return;  // the record end rejects it
    SplitColumn& col = columns[field];
    if (col.integer) {
      uint64_t magnitude;
      bool negative;
      if (unquoted && MatchSmallInt(value, &magnitude, &negative)) {
        const auto v = static_cast<int64_t>(magnitude);
        col.ints.push_back(negative ? -v : v);
        return;
      }
      // Leave the integer path; the rows read so far get their text in a
      // second walk.
      col.text_prefix = col.ints.size();
      text_rows = std::max(text_rows, col.text_prefix);
      std::vector<int64_t>().swap(col.ints);
      col.integer = false;
      col.views.reserve(reserve);
      col.views.resize(col.text_prefix);
    }
    col.views.push_back(value);
  };
  // Closes the current record; false once the record limit is reached.
  Status status;
  auto on_record = [&](size_t fields) {
    if (out->records > 0 && fields != columns.size()) {
      status = Status::ParseError(
          "row " + std::to_string(out->records) + " has " +
          std::to_string(fields) + " fields, expected " +
          std::to_string(columns.size()));
      return false;
    }
    ++out->records;
    return out->records != max_records;
  };
  AOD_RETURN_NOT_OK(
      Tokenize(text, delimiter, &out->arena, on_field, on_record));
  AOD_RETURN_NOT_OK(status);
  if (text_rows == 0) return Status::OK();

  // The second walk: the text of each field a column read as an integer
  // before it left the integer path. Those fields are unquoted, so no
  // unescaping is needed, and the walk stops after the last such row.
  int64_t record = 0;
  auto on_prefix_field = [&](size_t field, std::string_view value, bool) {
    if (record < first_data) return;
    const auto row = static_cast<size_t>(record - first_data);
    SplitColumn& col = columns[field];
    if (row < col.text_prefix) col.views[row] = value;
  };
  auto on_prefix_record = [&](size_t) {
    ++record;
    return record - first_data < static_cast<int64_t>(text_rows);
  };
  return Tokenize(text, delimiter, nullptr, on_prefix_field,
                  on_prefix_record);
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
  AOD_RETURN_NOT_OK(SplitFields(text, options.delimiter, options.has_header,
                                options.infer_types, max_records, &fields));
  if (fields.records == 0) {
    return Status::ParseError("CSV input contains no records");
  }

  const size_t width = fields.columns.size();
  std::vector<std::string> names;
  for (size_t c = 0; c < width; ++c) {
    names.push_back(options.has_header
                        ? std::string(TrimWhitespace(fields.header[c]))
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
    SplitColumn& col = fields.columns[c];
    if (col.integer && rows > 0) {
      // Every cell was an integer: exactly the column ParseColumn types.
      col.ints.resize(rows);
      columns.emplace_back(std::move(names[c]), std::move(col.ints));
    } else {
      // An integer column here has no rows, and reads as a string column.
      columns.push_back(ParseColumn(
          std::move(names[c]),
          std::span<const std::string_view>(col.views).first(rows),
          options.infer_types));
    }
    col = SplitColumn();  // release as we go
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
