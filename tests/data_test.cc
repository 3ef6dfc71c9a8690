// Tests for src/data: values, schema, columns, tables, CSV, type
// inference, and the order-preserving rank encoder, including
// differential tests of the CSV reader and the encoder against the
// row-at-a-time reader and comparator-sort encoder they replaced.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "data/csv_parser.h"
#include "data/encoder.h"
#include "data/schema.h"
#include "data/table.h"
#include "data/type_inference.h"
#include "data/value.h"
#include "gen/random.h"
#include "test_util.h"

namespace aod {
namespace {

// ---------------------------------------------------------------- Value --

TEST(ValueTest, NullOrdersFirst) {
  EXPECT_LT(Value::Null(), Value(int64_t{-100}));
  EXPECT_LT(Value::Null(), Value(-1e30));
  EXPECT_LT(Value::Null(), Value(""));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{2}), Value(2.0));
  EXPECT_LT(Value(int64_t{2}), Value(2.5));
  EXPECT_GT(Value(3.5), Value(int64_t{3}));
}

TEST(ValueTest, NumericsBeforeStrings) {
  EXPECT_LT(Value(int64_t{999}), Value("0"));
  EXPECT_LT(Value(1e30), Value(""));
}

TEST(ValueTest, StringLexicographic) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_LT(Value("ab"), Value("abc"));
  EXPECT_EQ(Value("x"), Value("x"));
}

TEST(ValueTest, LargeIntsCompareExactly) {
  // Doubles cannot distinguish these; int64 comparison must.
  int64_t base = (int64_t{1} << 53) + 0;
  EXPECT_LT(Value(base), Value(base + 1));
  EXPECT_NE(Value(base), Value(base + 1));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{42}).ToString(), "42");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value(int64_t{1}).is_int());
  EXPECT_TRUE(Value(1.0).is_double());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).AsNumeric(), 3.0);
}

// --------------------------------------------------------------- Schema --

TEST(SchemaTest, FieldLookup) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kString}});
  EXPECT_EQ(s.num_fields(), 2);
  EXPECT_EQ(s.FieldIndex("b").value(), 1);
  EXPECT_FALSE(s.FieldIndex("missing").ok());
  EXPECT_TRUE(s.HasField("a"));
  EXPECT_EQ(s.field(0).name, "a");
}

TEST(SchemaTest, ToString) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(s.ToString(), "a:int64, b:double");
}

TEST(SchemaDeathTest, DuplicateFieldNameChecks) {
  Schema s({{"a", DataType::kInt64}});
  EXPECT_DEATH(s.AddField({"a", DataType::kString}), "duplicate field");
}

// --------------------------------------------------------------- Column --

TEST(ColumnTest, AppendAndGet) {
  Column col("c", DataType::kInt64);
  col.AppendInt(5);
  col.Append(Value(int64_t{7}));
  col.AppendNull();
  EXPECT_EQ(col.size(), 3);
  EXPECT_EQ(col.GetValue(0), Value(int64_t{5}));
  EXPECT_EQ(col.GetValue(1), Value(int64_t{7}));
  EXPECT_TRUE(col.GetValue(2).is_null());
  EXPECT_EQ(col.null_count(), 1);
}

TEST(ColumnTest, SetValueTracksNullCount) {
  Column col("c", DataType::kDouble);
  col.AppendDouble(1.0);
  col.AppendNull();
  EXPECT_EQ(col.null_count(), 1);
  col.SetValue(0, Value::Null());
  EXPECT_EQ(col.null_count(), 2);
  col.SetValue(1, Value(2.5));
  EXPECT_EQ(col.null_count(), 1);
  EXPECT_EQ(col.GetValue(1), Value(2.5));
}

TEST(ColumnTest, DoubleColumnAcceptsIntValues) {
  Column col("c", DataType::kDouble);
  col.Append(Value(int64_t{3}));
  EXPECT_EQ(col.GetValue(0), Value(3.0));
}

TEST(ColumnDeathTest, TypeMismatchChecks) {
  Column col("c", DataType::kInt64);
  EXPECT_DEATH(col.Append(Value("str")), "appending non-int");
}

// ---------------------------------------------------------------- Table --

TEST(TableTest, FromRowsRoundTrip) {
  Table t = testing_util::PaperTable1();
  EXPECT_EQ(t.num_rows(), 9);
  EXPECT_EQ(t.num_columns(), 7);
  EXPECT_EQ(t.GetValue(0, 0), Value("sec"));
  EXPECT_EQ(t.GetValue(8, 2), Value(int64_t{200}));
  EXPECT_EQ(t.ColumnByName("sal").value()->GetValue(3), Value(int64_t{40}));
  EXPECT_FALSE(t.ColumnByName("nope").ok());
}

TEST(TableTest, ToStringListsRowsAndTruncates) {
  Table t = testing_util::PaperTable1();
  std::string s = t.ToString(2);
  EXPECT_NE(s.find("pos"), std::string::npos);
  EXPECT_NE(s.find("more rows"), std::string::npos);
}

// ------------------------------------------------------- Type inference --

TEST(TypeInferenceTest, NullTokens) {
  EXPECT_TRUE(IsNullToken(""));
  EXPECT_TRUE(IsNullToken("  "));
  EXPECT_TRUE(IsNullToken("NULL"));
  EXPECT_TRUE(IsNullToken("na"));
  EXPECT_TRUE(IsNullToken("N/A"));
  EXPECT_TRUE(IsNullToken("?"));
  EXPECT_FALSE(IsNullToken("0"));
  EXPECT_FALSE(IsNullToken("none"));
}

DataType ColumnType(std::vector<std::string_view> cells) {
  return ParseColumn("c", cells, /*infer_types=*/true).type();
}

TEST(TypeInferenceTest, NarrowestType) {
  EXPECT_EQ(ColumnType({"1", "2", ""}), DataType::kInt64);
  EXPECT_EQ(ColumnType({"1", "2.5"}), DataType::kDouble);
  EXPECT_EQ(ColumnType({"1", "x"}), DataType::kString);
  EXPECT_EQ(ColumnType({"", "NULL"}), DataType::kString);
  EXPECT_EQ(ColumnType({"-3", "+e"}), DataType::kString);
}

TEST(TypeInferenceTest, ParseColumnCoercesAndNulls) {
  Column ints = ParseColumn("c", std::vector<std::string_view>{"7", "", "+8"},
                            true);
  EXPECT_EQ(ints.GetValue(0), Value(int64_t{7}));
  EXPECT_TRUE(ints.GetValue(1).is_null());
  EXPECT_EQ(ints.GetValue(2), Value(int64_t{8}));
  Column doubles =
      ParseColumn("c", std::vector<std::string_view>{"2.5", "NA"}, true);
  EXPECT_EQ(doubles.GetValue(0), Value(2.5));
  EXPECT_TRUE(doubles.GetValue(1).is_null());
  Column strings =
      ParseColumn("c", std::vector<std::string_view>{" x ", "junk"}, true);
  EXPECT_EQ(strings.GetValue(0), Value("x"));
  EXPECT_EQ(strings.GetValue(1), Value("junk"));
  // Without inference every column is string, nulls still null.
  Column raw = ParseColumn("c", std::vector<std::string_view>{"7", "?"}, false);
  EXPECT_EQ(raw.type(), DataType::kString);
  EXPECT_EQ(raw.GetValue(0), Value("7"));
  EXPECT_TRUE(raw.GetValue(1).is_null());
}

// ------------------------------------------------------------------ CSV --

TEST(CsvTest, BasicWithHeaderAndInference) {
  auto t = ParseCsv("a,b,c\n1,2.5,x\n2,3.5,y\n").value();
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(t.schema().field(1).type, DataType::kDouble);
  EXPECT_EQ(t.schema().field(2).type, DataType::kString);
  EXPECT_EQ(t.GetValue(1, 0), Value(int64_t{2}));
  EXPECT_EQ(t.GetValue(0, 2), Value("x"));
}

TEST(CsvTest, QuotedFieldsWithDelimitersAndEscapes) {
  auto t = ParseCsv("name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n")
               .value();
  EXPECT_EQ(t.GetValue(0, 0), Value("Smith, John"));
  EXPECT_EQ(t.GetValue(0, 1), Value("said \"hi\""));
}

TEST(CsvTest, QuotedNewlines) {
  auto t = ParseCsv("a,b\n\"line1\nline2\",2\n").value();
  EXPECT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value("line1\nline2"));
}

TEST(CsvTest, CrlfAndBlankLines) {
  auto t = ParseCsv("a,b\r\n1,2\r\n\r\n3,4\r\n").value();
  EXPECT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(1, 1), Value(int64_t{4}));
}

TEST(CsvTest, NoHeaderNamesColumns) {
  CsvOptions options;
  options.has_header = false;
  auto t = ParseCsv("5,6\n7,8\n", options).value();
  EXPECT_EQ(t.schema().field(0).name, "c0");
  EXPECT_EQ(t.num_rows(), 2);
}

TEST(CsvTest, MaxRowsLimits) {
  CsvOptions options;
  options.max_rows = 1;
  auto t = ParseCsv("a\n1\n2\n3\n", options).value();
  EXPECT_EQ(t.num_rows(), 1);
}

TEST(CsvTest, CustomDelimiter) {
  CsvOptions options;
  options.delimiter = '|';
  auto t = ParseCsv("a|b\n1|2\n", options).value();
  EXPECT_EQ(t.GetValue(0, 1), Value(int64_t{2}));
}

TEST(CsvTest, NullTokensBecomeNulls) {
  auto t = ParseCsv("a,b\n1,x\nNULL,\n").value();
  EXPECT_TRUE(t.GetValue(1, 0).is_null());
  EXPECT_TRUE(t.GetValue(1, 1).is_null());
}

TEST(CsvTest, RaggedRowRejected) {
  auto r = ParseCsv("a,b\n1,2\n3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, TooManyColumnsRejected) {
  auto r = ParseCsv("a,b\n1,2,3\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  // The complaint names the offending width, not a truncated parse.
  EXPECT_NE(r.status().message().find("3 fields"), std::string::npos);
}

TEST(CsvTest, QuotedCrlfPreservedVerbatim) {
  // A quoted field may span a CRLF line break; the field keeps both
  // bytes (RFC 4180) and the record structure is unaffected.
  auto t = ParseCsv("a,b\r\n\"x\r\ny\",2\r\n").value();
  ASSERT_EQ(t.num_rows(), 1);
  EXPECT_EQ(t.GetValue(0, 0), Value("x\r\ny"));
  EXPECT_EQ(t.GetValue(0, 1), Value(int64_t{2}));
}

TEST(CsvTest, FinalRowWithoutTrailingNewline) {
  auto t = ParseCsv("a,b\n1,2\n3,4").value();
  ASSERT_EQ(t.num_rows(), 2);
  EXPECT_EQ(t.GetValue(1, 1), Value(int64_t{4}));
  // Also with the final field quoted.
  auto q = ParseCsv("a\n\"z\"").value();
  ASSERT_EQ(q.num_rows(), 1);
  EXPECT_EQ(q.GetValue(0, 0), Value("z"));
}

TEST(CsvTest, LoneCarriageReturnTerminatesRecord) {
  // Classic-Mac line endings: 'a,b\r1,2' is two records, never the
  // silently glued "a,b1,2" the old tokenizer produced.
  auto t = ParseCsv("a,b\r1,2\r3,4");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->GetValue(0, 0), Value(int64_t{1}));
  EXPECT_EQ(t->GetValue(1, 1), Value(int64_t{4}));
}

TEST(CsvTest, JunkAfterClosingQuoteRejected) {
  auto r = ParseCsv("a,b\n\"x\"y,2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_NE(r.status().message().find("closing quote"), std::string::npos);
  // A closing quote followed by delimiter or record end stays fine.
  EXPECT_TRUE(ParseCsv("a,b\n\"x\",2\n").ok());
  EXPECT_TRUE(ParseCsv("a,b\n2,\"x\"\r\n").ok());
}

TEST(CsvTest, UnterminatedQuoteRejected) {
  auto r = ParseCsv("a\n\"oops\n");
  ASSERT_FALSE(r.ok());
}

TEST(CsvTest, EmptyInputRejected) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(CsvTest, DuplicateHeadersDeduplicated) {
  auto t = ParseCsv("a,a\n1,2\n").value();
  EXPECT_EQ(t.schema().field(0).name, "a");
  EXPECT_NE(t.schema().field(1).name, "a");
}

TEST(CsvTest, WriteReadRoundTrip) {
  Table t = testing_util::PaperTable1();
  std::string csv = WriteCsv(t);
  auto back = ParseCsv(csv).value();
  ASSERT_EQ(back.num_rows(), t.num_rows());
  ASSERT_EQ(back.num_columns(), t.num_columns());
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      EXPECT_EQ(back.GetValue(r, c), t.GetValue(r, c))
          << "cell (" << r << ", " << c << ")";
    }
  }
}

TEST(CsvTest, ReadMissingFileFails) {
  auto r = ReadCsvFile("/nonexistent/path.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

/// Same type and, for doubles, the same bits (-0.0 is not 0.0 here).
bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() || b.is_double()) {
    return a.is_double() && b.is_double() &&
           std::bit_cast<uint64_t>(a.as_double()) ==
               std::bit_cast<uint64_t>(b.as_double());
  }
  return a.is_null() == b.is_null() && a.is_int() == b.is_int() &&
         a.is_string() == b.is_string() && a == b;
}

TEST(CsvTest, MaxRowsStopsReading) {
  // Input past the limit is not examined, so a malformed record there is
  // no error; without the limit it still is.
  CsvOptions options;
  options.max_rows = 2;
  auto t = ParseCsv("a\n1\n2\n\"oops\n", options);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->GetValue(1, 0), Value(int64_t{2}));
  options.max_rows = -1;
  auto full = ParseCsv("a\n1\n2\n\"oops\n", options);
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.status().code(), StatusCode::kParseError);
}

TEST(CsvTest, ReadFileMatchesParse) {
  const std::string text = "a,b,c\n1,\"x,y\",2.5\r\n-3,\"q\"\"\",NA\n";
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("aod_read_csv_" + std::to_string(::getpid()) + ".csv");
  {
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  auto from_file = ReadCsvFile(path.string());
  std::filesystem::remove(path);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  auto parsed = ParseCsv(text).value();
  ASSERT_EQ(from_file->schema().ToString(), parsed.schema().ToString());
  ASSERT_EQ(from_file->num_rows(), 2);
  for (int64_t r = 0; r < parsed.num_rows(); ++r) {
    for (int c = 0; c < parsed.num_columns(); ++c) {
      EXPECT_TRUE(SameValue(from_file->GetValue(r, c), parsed.GetValue(r, c)));
    }
  }
}

TEST(CsvTest, ReadPipeMatchesParse) {
  // A pipe has no size: the reader grows its buffer until end of file.
  std::string text = "a,b\n";
  for (int i = 0; i < 20000; ++i) text += std::to_string(i) + ",x\n";
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::thread writer([&] {
    for (size_t done = 0; done < text.size();) {
      const ssize_t n = ::write(fds[1], text.data() + done, text.size() - done);
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    ::close(fds[1]);
  });
  auto from_pipe = ReadCsvFile("/dev/fd/" + std::to_string(fds[0]));
  writer.join();
  ::close(fds[0]);
  ASSERT_TRUE(from_pipe.ok()) << from_pipe.status().ToString();
  ASSERT_EQ(from_pipe->num_rows(), 20000);
  EXPECT_EQ(from_pipe->GetValue(19999, 0), Value(int64_t{19999}));
}

// ------------------------------------------------ CSV differential oracle --
//
// The row-at-a-time reader that preceded the columnar one: tokenize every
// record into strings, infer each column's type from its cells, then parse
// each cell again into a Value. Kept here verbatim as the oracle the
// columnar reader must match cell for cell.

namespace csv_oracle {

Result<std::vector<std::vector<std::string>>> Tokenize(std::string_view text,
                                                       char delimiter) {
  std::vector<std::vector<std::string>> records;
  std::vector<std::string> record;
  std::string field;
  bool in_quotes = false;
  bool field_was_quoted = false;
  bool any_field = false;

  auto end_field = [&]() {
    record.push_back(std::move(field));
    field.clear();
    field_was_quoted = false;
    any_field = true;
  };
  auto end_record = [&]() {
    end_field();
    records.push_back(std::move(record));
    record.clear();
    any_field = false;
  };

  size_t i = 0;
  const size_t n = text.size();
  while (i < n) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    if (c == '"' && field.empty() && !field_was_quoted) {
      in_quotes = true;
      field_was_quoted = true;
      ++i;
      continue;
    }
    if (c == delimiter) {
      end_field();
      ++i;
      continue;
    }
    if (c == '\r') {
      if (i + 1 < n && text[i + 1] == '\n') {
        ++i;
        continue;
      }
      if (any_field || !field.empty() || field_was_quoted) end_record();
      ++i;
      continue;
    }
    if (c == '\n') {
      if (any_field || !field.empty() || field_was_quoted) end_record();
      ++i;
      continue;
    }
    if (field_was_quoted) {
      return Status::ParseError("unexpected character after closing quote");
    }
    field += c;
    ++i;
  }
  if (in_quotes) return Status::ParseError("unterminated quoted field");
  if (any_field || !field.empty() || field_was_quoted) end_record();
  return records;
}

DataType InferColumnType(const std::vector<std::string>& cells) {
  bool all_int = true;
  bool all_numeric = true;
  bool any_non_null = false;
  for (const auto& cell : cells) {
    if (IsNullToken(cell)) continue;
    any_non_null = true;
    if (all_int && !ParseInt64(cell).has_value()) all_int = false;
    if (!all_int && all_numeric && !ParseDouble(cell).has_value()) {
      all_numeric = false;
      break;
    }
  }
  if (!any_non_null) return DataType::kString;
  if (all_int) return DataType::kInt64;
  if (all_numeric) return DataType::kDouble;
  return DataType::kString;
}

Value ParseCell(std::string_view cell, DataType type) {
  if (IsNullToken(cell)) return Value::Null();
  switch (type) {
    case DataType::kInt64: {
      auto v = ParseInt64(cell);
      return v.has_value() ? Value(*v) : Value::Null();
    }
    case DataType::kDouble: {
      auto v = ParseDouble(cell);
      return v.has_value() ? Value(*v) : Value::Null();
    }
    case DataType::kString:
      return Value(std::string(TrimWhitespace(cell)));
  }
  return Value::Null();
}

struct Parsed {
  Status status;
  std::vector<std::string> names;
  std::vector<DataType> types;
  std::vector<std::vector<Value>> rows;
};

Parsed ParseCsv(std::string_view text, const CsvOptions& options) {
  Parsed out;
  auto tokenized = Tokenize(text, options.delimiter);
  if (!tokenized.ok()) {
    out.status = tokenized.status();
    return out;
  }
  const auto& records = *tokenized;
  if (records.empty()) {
    out.status = Status::ParseError("no records");
    return out;
  }
  size_t first_data = 0;
  const size_t width = records[0].size();
  if (options.has_header) {
    for (const auto& h : records[0]) {
      out.names.emplace_back(TrimWhitespace(h));
    }
    first_data = 1;
  } else {
    for (size_t c = 0; c < width; ++c) {
      out.names.push_back("c" + std::to_string(c));
    }
  }
  for (size_t c = 0; c < out.names.size(); ++c) {
    if (out.names[c].empty()) out.names[c] = "c" + std::to_string(c);
    for (size_t p = 0; p < c; ++p) {
      if (out.names[p] == out.names[c]) {
        out.names[c] += "_" + std::to_string(c);
        break;
      }
    }
  }
  size_t last_data = records.size();
  if (options.max_rows >= 0) {
    last_data = std::min(last_data,
                         first_data + static_cast<size_t>(options.max_rows));
  }
  for (size_t r = first_data; r < last_data; ++r) {
    if (records[r].size() != width) {
      out.status = Status::ParseError("ragged row");
      return out;
    }
  }
  out.types.assign(width, DataType::kString);
  if (options.infer_types) {
    for (size_t c = 0; c < width; ++c) {
      std::vector<std::string> cells;
      for (size_t r = first_data; r < last_data; ++r) {
        cells.push_back(records[r][c]);
      }
      out.types[c] = InferColumnType(cells);
    }
  }
  for (size_t r = first_data; r < last_data; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < width; ++c) {
      row.push_back(ParseCell(records[r][c], out.types[c]));
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

}  // namespace csv_oracle

/// Builds one adversarial CSV input: a few records of pool tokens, with
/// the quoting, record-end and value edge cases the reader must agree on.
std::string RandomCsv(Rng* rng, char delimiter) {
  static const std::vector<std::string> kValues = {
      "1", "-2", "42", " 42 ", "+7", "-0", "-0.0", "0.0", "007", "0x1A",
      "1e-400", "1e308", "2.5", "-3.75", ".5", "1.", "inf",
      "999999999999999999", "-999999999999999999",
      "1234567890123456789", "9999999999999999999", "-9223372036854775808",
      "9223372036854775807", "12345678901234567890",
      "-12345678901234567890", "abc", "x y", "\xc3\xa9t\xc3\xa9", "a\"b",
      "", " ", "NULL", "null", "NA", "n/a", "N/A", "nan", "NaN", "?", "none",
      "\"7\"", "\"a,b\"", "\"a|b\"", "\"he said \"\"hi\"\"\"", "\"\"",
      "\"\"\"\"", "\"line1\nline2\"", "\"x\r\ny\"", "\"cr\ronly\"",
      "\" 5 \"", "\"NULL\""};
  static const std::vector<std::string> kInts = {"1", "-2", "42", " 42 ",
                                                 "+7", "-0", "007", ""};
  static const std::vector<std::string> kBroken = {"\"x\"y", "\"open",
                                                   "\"a\"\"b\"c"};
  static const std::vector<std::string> kEnds = {"\n", "\r\n", "\r"};
  const int width = static_cast<int>(rng->UniformInt(1, 4));
  const int records = static_cast<int>(rng->UniformInt(0, 7));
  std::vector<bool> int_column(static_cast<size_t>(width));
  for (int c = 0; c < width; ++c) int_column[c] = rng->Bernoulli(0.5);
  auto pick = [&](const std::vector<std::string>& pool) {
    return pool[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
  };
  std::string text;
  for (int r = 0; r < records; ++r) {
    if (rng->Bernoulli(0.1)) text += pick(kEnds);  // a blank line
    int fields = width;
    if (rng->Bernoulli(0.05)) fields += rng->Bernoulli(0.5) ? 1 : -1;
    for (int c = 0; c < fields; ++c) {
      if (c > 0) text += delimiter;
      if (rng->Bernoulli(0.01)) {
        text += pick(kBroken);
      } else if (r > 0 && c < width && int_column[c] && rng->Bernoulli(0.9)) {
        text += pick(kInts);
      } else {
        text += pick(kValues);
      }
    }
    if (rng->Bernoulli(0.05)) text += delimiter;  // a trailing delimiter
    if (r + 1 < records || rng->Bernoulli(0.7)) text += pick(kEnds);
  }
  return text;
}

/// Asserts the columnar reader's output equals the oracle's.
void ExpectMatchesOracle(const Result<Table>& got,
                         const csv_oracle::Parsed& want,
                         const std::string& text) {
  SCOPED_TRACE("input: \"" + text + "\"");
  ASSERT_EQ(got.status().code(), want.status.code())
      << got.status().ToString() << " vs " << want.status.ToString();
  if (!got.ok()) return;
  const Table& t = *got;
  ASSERT_EQ(t.num_columns(), static_cast<int>(want.names.size()));
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(t.schema().field(c).name, want.names[c]);
    EXPECT_EQ(t.schema().field(c).type, want.types[c]) << "column " << c;
  }
  ASSERT_EQ(t.num_rows(), static_cast<int64_t>(want.rows.size()));
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    for (int c = 0; c < t.num_columns(); ++c) {
      const Value& w = want.rows[static_cast<size_t>(r)][c];
      EXPECT_TRUE(SameValue(t.GetValue(r, c), w))
          << "cell (" << r << ", " << c << "): " << t.GetValue(r, c).ToString()
          << " vs " << w.ToString();
    }
  }
}

TEST(CsvDifferentialTest, MatchesRowAtATimeReader) {
  Rng rng(20260417);
  int ok_inputs = 0;
  for (int i = 0; i < 4000; ++i) {
    CsvOptions options;
    options.delimiter = rng.Bernoulli(0.25) ? '|' : ',';
    options.has_header = !rng.Bernoulli(0.25);
    options.infer_types = !rng.Bernoulli(0.1);
    const std::string text = RandomCsv(&rng, options.delimiter);
    const csv_oracle::Parsed want = csv_oracle::ParseCsv(text, options);
    ok_inputs += want.status.ok() ? 1 : 0;
    ExpectMatchesOracle(ParseCsv(text, options), want, text);
    if (::testing::Test::HasFailure()) return;
  }
  // The pool must exercise both outcomes, mostly the successful one.
  EXPECT_GT(ok_inputs, 2000);
  EXPECT_LT(ok_inputs, 4000);
}

TEST(CsvDifferentialTest, MaxRowsIsAPrefix) {
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    CsvOptions options;
    options.delimiter = rng.Bernoulli(0.25) ? '|' : ',';
    options.has_header = !rng.Bernoulli(0.25);
    const std::string text = RandomCsv(&rng, options.delimiter);
    const Result<Table> full = ParseCsv(text, options);
    if (!full.ok()) continue;
    const int64_t n = full->num_rows();
    for (int64_t k : {int64_t{0}, int64_t{1}, n / 2, n, n + 1}) {
      options.max_rows = k;
      SCOPED_TRACE("max_rows=" + std::to_string(k));
      const Result<Table> prefix = ParseCsv(text, options);
      ExpectMatchesOracle(prefix, csv_oracle::ParseCsv(text, options), text);
      ASSERT_TRUE(prefix.ok());
      ASSERT_EQ(prefix->num_rows(), std::min(k, n));
      // Types are inferred from the rows read, so a prefix may type a
      // column narrower; where it does not, the cells are the full parse's.
      for (int c = 0; c < prefix->num_columns(); ++c) {
        ASSERT_EQ(prefix->schema().field(c).name,
                  full->schema().field(c).name);
        if (prefix->schema().field(c).type != full->schema().field(c).type) {
          continue;
        }
        for (int64_t r = 0; r < prefix->num_rows(); ++r) {
          EXPECT_TRUE(SameValue(prefix->GetValue(r, c), full->GetValue(r, c)));
        }
      }
    }
    options.max_rows = -1;
    if (::testing::Test::HasFailure()) return;
  }
}

/// `text` copied into a heap buffer of exactly its size, so that ASan
/// reports any load past its last byte.
class ExactBuffer {
 public:
  explicit ExactBuffer(const std::string& text)
      : size_(text.size()), data_(new char[text.size()]) {
    std::memcpy(data_.get(), text.data(), size_);
  }
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  size_t size_;
  std::unique_ptr<char[]> data_;
};

/// A wide, long CSV input: 1-16 columns of 20-300 data records, with
/// fields of 1-24 bytes, so that fields start and end at every offset of
/// an 8-byte word. Integer columns hold 18- and 19-digit integers, "-0"
/// and " 42 " among short ones; a column may hold one quoted integer, and
/// one non-integer cell in its last data row. Header names may be digits.
/// Sets `*data_rows` to the number of data records.
std::string WideCsv(Rng* rng, char delimiter, bool header,
                    int64_t* data_rows) {
  const auto width = static_cast<int>(rng->UniformInt(1, 16));
  const int64_t records = rng->UniformInt(20, 300);
  *data_rows = records;
  auto digits = [rng](int64_t len) {
    std::string s;
    for (int64_t i = 0; i < len; ++i) {
      s += static_cast<char>('0' + rng->UniformInt(0, 9));
    }
    return s;
  };
  auto integer = [&](int64_t max_digits) -> std::string {
    const std::string sign = rng->Bernoulli(0.3) ? "-" : "";
    switch (rng->UniformInt(0, 9)) {
      case 0:
        return "-0";
      case 1:
        return " 42 ";
      case 2:
        return sign + digits(18);
      case 3:
        return sign + digits(19);
      default:
        return sign + digits(rng->UniformInt(1, max_digits));
    }
  };
  auto text = [&]() {
    static const std::string kAlphabet = "abcxyz0123456789 -.";
    std::string s(1, static_cast<char>('a' + rng->UniformInt(0, 25)));
    const int64_t len = rng->UniformInt(1, 24);
    while (static_cast<int64_t>(s.size()) < len) {
      s += kAlphabet[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(kAlphabet.size()) - 1))];
    }
    return s;
  };
  static const std::vector<std::string> kOdd = {"x",   "",   "NULL", "2.5",
                                                "1e3", "-",  "12a",  "+7",
                                                "-0.0", "007x"};
  // 0: integers of up to 17 digits (the fast path), 1: of up to 24
  // digits (past it), 2: text.
  std::vector<int> kind(static_cast<size_t>(width));
  std::vector<int64_t> quoted_row(static_cast<size_t>(width), -1);
  std::vector<bool> odd_last(static_cast<size_t>(width));
  for (size_t c = 0; c < kind.size(); ++c) {
    kind[c] =
        rng->Bernoulli(0.7) ? 0 : static_cast<int>(rng->UniformInt(1, 2));
    if (rng->Bernoulli(0.15)) quoted_row[c] = rng->UniformInt(0, records - 1);
    odd_last[c] = rng->Bernoulli(0.3);
  }
  std::string out;
  if (header) {
    for (int c = 0; c < width; ++c) {
      if (c > 0) out += delimiter;
      out += rng->Bernoulli(0.3) ? digits(rng->UniformInt(1, 12)) : text();
    }
    out += "\n";
  }
  for (int64_t r = 0; r < records; ++r) {
    for (size_t c = 0; c < kind.size(); ++c) {
      if (c > 0) out += delimiter;
      std::string cell =
          kind[c] == 2 ? text() : integer(kind[c] == 0 ? 17 : 24);
      if (r == quoted_row[c]) cell = "\"" + cell + "\"";
      if (r + 1 == records && odd_last[c]) {
        cell = kOdd[static_cast<size_t>(
            rng->UniformInt(0, static_cast<int64_t>(kOdd.size()) - 1))];
      }
      out += cell;
    }
    if (r + 1 < records || rng->Bernoulli(0.5)) {
      out += rng->Bernoulli(0.2) ? "\r\n" : "\n";
    }
  }
  return out;
}

TEST(CsvDifferentialTest, WideLongInputsFromExactBuffers) {
  Rng rng(20261019);
  int typed_int = 0;
  for (int i = 0; i < 300; ++i) {
    CsvOptions options;
    options.delimiter = ",|;\t"[rng.UniformInt(0, 3)];
    options.has_header = rng.Bernoulli(0.75);
    options.infer_types = !rng.Bernoulli(0.1);
    int64_t n = 0;
    const std::string text =
        WideCsv(&rng, options.delimiter, options.has_header, &n);
    const ExactBuffer buffer(text);
    for (int64_t max_rows : {int64_t{-1}, int64_t{0}, int64_t{1}, n / 2,
                             n - 1, n + 1}) {
      options.max_rows = max_rows;
      SCOPED_TRACE("max_rows=" + std::to_string(max_rows));
      const Result<Table> got = ParseCsv(buffer.view(), options);
      ExpectMatchesOracle(got, csv_oracle::ParseCsv(text, options), text);
      ASSERT_TRUE(got.ok());
      for (int c = 0; c < got->num_columns(); ++c) {
        typed_int += got->schema().field(c).type == DataType::kInt64;
      }
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GT(typed_int, 1000);
}

TEST(CsvDifferentialTest, LateNonIntegerKeepsEarlierText) {
  // The column reads its first rows as integers and leaves that path at
  // the last one; the earlier cells must come back as their text ("-0"
  // as -0.0, "007" as "007"), also when a column before it is quoted or
  // escaped and the record ends are CRLF.
  const std::string text =
      "q,a,b\r\n"
      "\"x,\"\"y\",-0,007\r\n"
      "\"z\",12,1\r\n"
      "w,-34,2\r\n"
      "v,2.5,word";
  for (bool exact : {false, true}) {
    const ExactBuffer buffer(text);
    const Result<Table> got =
        ParseCsv(exact ? buffer.view() : std::string_view(text));
    ExpectMatchesOracle(got, csv_oracle::ParseCsv(text, {}), text);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->schema().field(1).type, DataType::kDouble);
    EXPECT_TRUE(std::signbit(got->GetValue(0, 1).as_double()));
    EXPECT_EQ(got->GetValue(0, 2), Value(std::string("007")));
    EXPECT_EQ(got->GetValue(0, 0), Value(std::string("x,\"y")));
  }
}

TEST(CsvDifferentialTest, DigitDelimiter) {
  // An integer field ends at the digit delimiter, and so does the text
  // the second walk recovers for a column that leaves the integer path.
  for (const std::string text : {"a9b\n1297\n3394\n", "a9b\n1297\nx97\n",
                                 "a9b\n-0912\n2.593\n"}) {
    CsvOptions options;
    options.delimiter = '9';
    ExpectMatchesOracle(ParseCsv(text, options),
                        csv_oracle::ParseCsv(text, options), text);
  }
}

// -------------------------------------------------------------- Encoder --

TEST(EncoderTest, RanksAreDenseAndOrderPreserving) {
  Column col("c", DataType::kInt64);
  for (int64_t v : {30, 10, 20, 10, 30}) col.AppendInt(v);
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.cardinality, 3);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{2, 0, 1, 0, 2}));
}

TEST(EncoderTest, NullsShareSmallestRank) {
  Column col("c", DataType::kInt64);
  col.AppendInt(5);
  col.AppendNull();
  col.AppendInt(-100);
  col.AppendNull();
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.cardinality, 3);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{2, 0, 1, 0}));
}

TEST(EncoderTest, StringColumnLexicographic) {
  Column col("c", DataType::kString);
  for (const char* v : {"bb", "aa", "cc", "aa"}) col.AppendString(v);
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{1, 0, 2, 0}));
}

TEST(EncoderTest, DoubleColumn) {
  Column col("c", DataType::kDouble);
  for (double v : {2.5, -1.0, 2.5, 0.0}) col.AppendDouble(v);
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_EQ(enc.ranks, (std::vector<int32_t>{2, 0, 2, 1}));
}

TEST(EncoderTest, WholeTable) {
  EncodedTable enc = testing_util::PaperEncoded();
  EXPECT_EQ(enc.num_rows(), 9);
  EXPECT_EQ(enc.num_columns(), 7);
  EXPECT_EQ(enc.ColumnIndex("sal"), 2);
  EXPECT_EQ(enc.ColumnIndex("nope"), -1);
  // sal is strictly increasing in Table 1, so ranks are 0..8.
  EXPECT_EQ(enc.ranks(2),
            (std::vector<int32_t>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EncoderTest, FromIntsDensifies) {
  EncodedTable enc = EncodedTableFromInts({"x"}, {{100, -5, 100, 7}});
  EXPECT_EQ(enc.ranks(0), (std::vector<int32_t>{2, 0, 2, 1}));
  EXPECT_EQ(enc.column(0).cardinality, 3);
}

// Property: encoding preserves the pairwise value order of every column.
class EncoderPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EncoderPropertyTest, RankOrderMatchesValueOrder) {
  Rng rng(GetParam());
  Column col("c", DataType::kInt64);
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.1)) {
      col.AppendNull();
    } else {
      col.AppendInt(rng.UniformInt(-50, 50));
    }
  }
  EncodedColumn enc = EncodeColumn(col);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      Value a = col.GetValue(i);
      Value b = col.GetValue(j);
      int value_cmp = a.Compare(b);
      int32_t ra = enc.ranks[static_cast<size_t>(i)];
      int32_t rb = enc.ranks[static_cast<size_t>(j)];
      int rank_cmp = ra < rb ? -1 : (ra > rb ? 1 : 0);
      ASSERT_EQ(value_cmp, rank_cmp)
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------- Encoder differential oracle --

/// The comparator-sort encoder that preceded the radix/hash kernel: a
/// stable sort of row ids under the null-aware value order, then dense
/// ranks with the first (smallest) row of each group as its dictionary
/// entry.
EncodedColumn ReferenceEncode(const Column& column) {
  std::vector<int64_t> order(static_cast<size_t>(column.size()));
  std::iota(order.begin(), order.end(), 0);
  auto cmp = [&column](int64_t a, int64_t b) {
    const bool an = column.IsNull(a);
    const bool bn = column.IsNull(b);
    if (an || bn) return an && !bn ? -1 : (an == bn ? 0 : 1);
    const auto i = static_cast<size_t>(a);
    const auto j = static_cast<size_t>(b);
    switch (column.type()) {
      case DataType::kInt64:
        return column.ints()[i] < column.ints()[j]
                   ? -1
                   : (column.ints()[i] == column.ints()[j] ? 0 : 1);
      case DataType::kDouble:
        return column.doubles()[i] < column.doubles()[j]
                   ? -1
                   : (column.doubles()[i] == column.doubles()[j] ? 0 : 1);
      case DataType::kString: {
        const int c = column.strings()[i].compare(column.strings()[j]);
        return c < 0 ? -1 : (c == 0 ? 0 : 1);
      }
    }
    return 0;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](int64_t a, int64_t b) { return cmp(a, b) < 0; });
  EncodedColumn out;
  out.name = column.name();
  out.ranks.assign(order.size(), 0);
  int32_t rank = -1;
  for (size_t i = 0; i < order.size(); ++i) {
    if (i == 0 || cmp(order[i - 1], order[i]) != 0) {
      ++rank;
      out.dictionary.push_back(column.GetValue(order[i]));
    }
    out.ranks[static_cast<size_t>(order[i])] = rank;
  }
  out.cardinality = rank + 1;
  return out;
}

void ExpectSameEncoding(const EncodedColumn& got, const EncodedColumn& want) {
  ASSERT_EQ(got.cardinality, want.cardinality);
  ASSERT_EQ(got.ranks, want.ranks);
  ASSERT_EQ(got.dictionary.size(), want.dictionary.size());
  for (size_t i = 0; i < got.dictionary.size(); ++i) {
    EXPECT_TRUE(SameValue(got.dictionary[i], want.dictionary[i]))
        << "rank " << i << ": " << got.dictionary[i].ToString() << " vs "
        << want.dictionary[i].ToString();
  }
}

/// Row counts from empty through several radix passes' worth.
int64_t RandomRowCount(Rng* rng) {
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return rng->UniformInt(0, 2);
    case 1:
      return rng->UniformInt(3, 40);
    case 2:
      return rng->UniformInt(41, 600);
    default:
      return rng->UniformInt(601, 5000);
  }
}

TEST(EncoderDifferentialTest, Int64MatchesStableSort) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> specials = {kMin, kMin + 1, kMax, kMax - 1,
                                         -1,   0,        1,    -256};
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t n = RandomRowCount(&rng);
    const double null_p = trial % 10 == 0 ? 1.0 : 0.1 * rng.UniformDouble();
    // span <= 2^61 keeps UniformInt's hi - lo in range; full-width keys
    // come from the specials and from raw 64-bit draws.
    const int64_t span = int64_t{1} << rng.UniformInt(1, 61);
    const bool full_width = rng.Bernoulli(0.2);
    Column col("c", DataType::kInt64);
    for (int64_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(null_p)) {
        col.AppendNull();
      } else if (rng.Bernoulli(0.1)) {
        col.AppendInt(specials[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(specials.size()) - 1))]);
      } else if (full_width) {
        col.AppendInt(static_cast<int64_t>(rng.NextUint64()));
      } else {
        col.AppendInt(rng.UniformInt(-span, span));
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameEncoding(EncodeColumn(col), ReferenceEncode(col));
    if (::testing::Test::HasFailure()) return;
  }
}

/// An int64 column of `n` rows spanning exactly [lo, lo + span]: both
/// ends appear, the rest is drawn from the span, and about `null_p` of
/// the rows after the first two are null.
Column SpanColumn(Rng* rng, int64_t n, int64_t lo, uint64_t span,
                  double null_p) {
  Column col("c", DataType::kInt64);
  const auto hi = static_cast<int64_t>(static_cast<uint64_t>(lo) + span);
  for (int64_t r = 0; r < n; ++r) {
    if (r == 0) {
      col.AppendInt(hi);
    } else if (r == 1) {
      col.AppendInt(lo);
    } else if (rng->Bernoulli(null_p)) {
      col.AppendNull();
    } else {
      const uint64_t offset = span == UINT64_MAX
                                  ? rng->NextUint64()
                                  : rng->NextUint64() % (span + 1);
      col.AppendInt(static_cast<int64_t>(static_cast<uint64_t>(lo) + offset));
    }
  }
  return col;
}

TEST(EncoderDifferentialTest, DenseSpansMatchStableSort) {
  // EncodeColumn ranks an int64 column with a presence bitmap when its
  // non-null span is below 8 * rows + 64, and radix-sorts it otherwise:
  // spans at the threshold and one past it, at both ends of the int64
  // range, all negative, with nulls, and of one value.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Rng rng(15);
  for (int64_t n : {2, 3, 17, 64, 65, 1000, 4097}) {
    const uint64_t last = 8 * static_cast<uint64_t>(n) + 63;  // widest bitmap
    for (uint64_t span : {uint64_t{0}, uint64_t{1}, uint64_t{63},
                          uint64_t{64}, static_cast<uint64_t>(n), last,
                          last + 1, last + 2, uint64_t{1} << 40,
                          UINT64_MAX}) {
      // From the bottom of the int64 range, around zero, all negative, and
      // up to the top of the range.
      const auto top = static_cast<int64_t>(
          static_cast<uint64_t>(kMax) - std::min<uint64_t>(span, kMax));
      for (int64_t lo : {kMin, kMin + 1, int64_t{-5}, int64_t{0},
                         -static_cast<int64_t>(last) - 9, top}) {
        // Skip a lo whose lo + span would pass kMax.
        if (static_cast<uint64_t>(kMax) - static_cast<uint64_t>(lo) < span) {
          continue;
        }
        for (double null_p : {0.0, 0.3}) {
          SCOPED_TRACE(testing::Message() << "n=" << n << " span=" << span
                                          << " lo=" << lo
                                          << " null_p=" << null_p);
          const Column col = SpanColumn(&rng, n, lo, span, null_p);
          ExpectSameEncoding(EncodeColumn(col), ReferenceEncode(col));
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(EncoderDifferentialTest, DenseSpanEdgeColumns) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<std::vector<int64_t>> cases = {
      {kMin, kMax},                 // the full range: radix
      {kMax, kMin, kMax, 0, kMin},  // the same, with a value between
      {kMin, kMin + 1, kMin + 1},   // dense at the bottom
      {kMax, kMax - 70, kMax - 3},  // dense at the top
      {-1, -7, -64, -65, -1},       // all negative
      {42},                         // one row
      {9, 9, 9, 9},                 // one distinct value
  };
  for (const auto& values : cases) {
    for (bool with_null : {false, true}) {
      Column col("c", DataType::kInt64);
      if (with_null) col.AppendNull();
      for (int64_t v : values) col.AppendInt(v);
      if (with_null) col.AppendNull();
      SCOPED_TRACE(testing::Message() << "first=" << values[0]
                                      << " with_null=" << with_null);
      ExpectSameEncoding(EncodeColumn(col), ReferenceEncode(col));
    }
  }
  // A column of nulls alone has one rank, the null's.
  Column nulls("c", DataType::kInt64);
  nulls.AppendNull();
  nulls.AppendNull();
  ExpectSameEncoding(EncodeColumn(nulls), ReferenceEncode(nulls));
}

TEST(EncoderDifferentialTest, DoubleMatchesStableSort) {
  const double subnormal = std::numeric_limits<double>::denorm_min();
  const std::vector<double> specials = {
      -0.0,       0.0,        1e308,         -1e308,
      subnormal,  -subnormal, 3 * subnormal, std::numeric_limits<double>::min(),
      0.5,        -2.5,       1.0,           -1.0};
  Rng rng(12);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t n = RandomRowCount(&rng);
    const double null_p = trial % 10 == 0 ? 1.0 : 0.1 * rng.UniformDouble();
    Column col("c", DataType::kDouble);
    for (int64_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(null_p)) {
        col.AppendNull();
      } else if (rng.Bernoulli(0.3)) {
        col.AppendDouble(specials[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(specials.size()) - 1))]);
      } else {
        col.AppendDouble(rng.Normal(0.0, 1e3));
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameEncoding(EncodeColumn(col), ReferenceEncode(col));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EncoderDifferentialTest, SignedZeroKeepsFirstRowsSign) {
  // -0.0 == 0.0 share a rank; the dictionary holds whichever came first.
  for (bool negative_first : {true, false}) {
    Column col("c", DataType::kDouble);
    col.AppendDouble(1.0);
    col.AppendDouble(negative_first ? -0.0 : 0.0);
    col.AppendDouble(negative_first ? 0.0 : -0.0);
    const EncodedColumn enc = EncodeColumn(col);
    EXPECT_EQ(enc.ranks, (std::vector<int32_t>{1, 0, 0}));
    ASSERT_EQ(enc.cardinality, 2);
    EXPECT_EQ(std::signbit(enc.dictionary[0].as_double()), negative_first);
  }
}

TEST(EncoderDifferentialTest, StringMatchesStableSort) {
  const std::vector<std::string> specials = {
      "",   "a",    "ab",   "abc",        std::string("ab\0c", 4),
      std::string("\0", 1), "\x80", "\xff", "a\xff", "\xc3\xa9", "ab "};
  Rng rng(13);
  for (int trial = 0; trial < 300; ++trial) {
    const int64_t n = RandomRowCount(&rng);
    const double null_p = trial % 10 == 0 ? 1.0 : 0.1 * rng.UniformDouble();
    const int64_t alphabet = rng.UniformInt(1, 255);
    Column col("c", DataType::kString);
    for (int64_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(null_p)) {
        col.AppendNull();
      } else if (rng.Bernoulli(0.2)) {
        col.AppendString(specials[static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(specials.size()) - 1))]);
      } else {
        std::string s = "pre";
        const int64_t len = rng.UniformInt(0, 4);
        for (int64_t i = 0; i < len; ++i) {
          s += static_cast<char>(rng.UniformInt(0, alphabet));
        }
        col.AppendString(std::move(s));
      }
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameEncoding(EncodeColumn(col), ReferenceEncode(col));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(EncoderDifferentialTest, FromIntsMatchesStableSort) {
  Rng rng(14);
  for (int trial = 0; trial < 50; ++trial) {
    const int64_t n = RandomRowCount(&rng);
    std::vector<std::vector<int64_t>> columns(2);
    for (auto& values : columns) {
      const int64_t span = int64_t{1} << rng.UniformInt(1, 61);
      for (int64_t r = 0; r < n; ++r) {
        values.push_back(rng.UniformInt(-span, span));
      }
    }
    const EncodedTable enc = EncodedTableFromInts({"x", "y"}, columns);
    ASSERT_EQ(enc.num_rows(), n);
    for (int c = 0; c < 2; ++c) {
      Column col("c", DataType::kInt64);
      for (int64_t v : columns[static_cast<size_t>(c)]) col.AppendInt(v);
      ExpectSameEncoding(enc.column(c), ReferenceEncode(col));
    }
  }
}

}  // namespace
}  // namespace aod
