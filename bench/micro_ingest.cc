// Micro-benchmark of CSV ingest (src/data/): ParseCsv and EncodeTable
// timed separately, on the shapes the end-to-end benchmark reads.
//
//   flight        flight 200K x 10 as WriteCsv prints it: integer columns
//   ncvoter       ncvoter 200K x 12: integer columns and two string ones
//   ncvoter_quoted the ncvoter table with every field quoted, an escaped
//                 quote in every string cell, and CRLF record ends
//   flight_60k    flight 60K x 10, the table of perfbench's flight-aoc
//   ncvoter_60k   ncvoter 60K x 12, the table of ncvoter-fd-budget
//
// Each row reports the median and minimum of several timed repetitions
// after one warm-up, plus parse throughput in MiB/s of CSV text. Rows
// scale with AOD_BENCH_SCALE. With --json <path> the series is written
// as machine-readable JSON (CI uploads it as BENCH_micro_ingest.json).
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "data/csv_parser.h"
#include "data/encoder.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"

namespace aod {
namespace bench {
namespace {

constexpr int kRepetitions = 7;

struct IngestRow {
  std::string shape;
  int64_t rows = 0;
  int columns = 0;
  int64_t csv_bytes = 0;
  double parse_median_s = 0.0;
  double parse_min_s = 0.0;
  double encode_median_s = 0.0;
  double encode_min_s = 0.0;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double Min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Every field quoted, string cells carrying a doubled quote, CRLF ends:
/// the slow path of the tokenizer on the same table.
std::string QuotedCsv(const Table& table) {
  std::string out;
  auto quoted = [&out](const std::string& s, bool add_quote) {
    out += '"';
    for (char c : s) {
      if (c == '"') out += '"';
      out += c;
    }
    if (add_quote) out += "\"\"";
    out += '"';
  };
  for (int c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += ',';
    quoted(table.schema().field(c).name, false);
  }
  out += "\r\n";
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ',';
      const Value v = table.GetValue(r, c);
      if (!v.is_null()) quoted(v.ToString(), v.is_string());
    }
    out += "\r\n";
  }
  return out;
}

IngestRow Measure(const std::string& shape, const std::string& csv) {
  IngestRow row;
  row.shape = shape;
  row.csv_bytes = static_cast<int64_t>(csv.size());
  std::vector<double> parse_s;
  std::vector<double> encode_s;
  for (int rep = 0; rep <= kRepetitions; ++rep) {
    Stopwatch parse;
    Result<Table> table = ParseCsv(csv);
    const double parse_seconds = parse.ElapsedSeconds();
    AOD_CHECK_MSG(table.ok(), "%s: %s", shape.c_str(),
                  table.status().ToString().c_str());
    Stopwatch encode;
    EncodedTable encoded = EncodeTable(*table);
    const double encode_seconds = encode.ElapsedSeconds();
    row.rows = encoded.num_rows();
    row.columns = encoded.num_columns();
    if (rep == 0) continue;  // warm-up
    parse_s.push_back(parse_seconds);
    encode_s.push_back(encode_seconds);
  }
  row.parse_median_s = Median(parse_s);
  row.parse_min_s = Min(parse_s);
  row.encode_median_s = Median(encode_s);
  row.encode_min_s = Min(encode_s);
  return row;
}

double ParseMibPerSecond(const IngestRow& r) {
  return r.parse_median_s > 0.0 ? static_cast<double>(r.csv_bytes) /
                                      (1 << 20) / r.parse_median_s
                                : 0.0;
}

int WriteJson(const char* path, const std::vector<IngestRow>& rows) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_ingest\",\n");
  std::fprintf(f, "  \"scale\": %.4f,\n  \"repetitions\": %d,\n", Scale(),
               kRepetitions);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const IngestRow& r = rows[i];
    std::fprintf(f,
                 "    {\"shape\": \"%s\", \"rows\": %lld, \"columns\": %d, "
                 "\"csv_bytes\": %lld, \"parse_median_s\": %.6f, "
                 "\"parse_min_s\": %.6f, \"parse_mib_s\": %.2f, "
                 "\"encode_median_s\": %.6f, \"encode_min_s\": %.6f}%s\n",
                 r.shape.c_str(), static_cast<long long>(r.rows), r.columns,
                 static_cast<long long>(r.csv_bytes), r.parse_median_s,
                 r.parse_min_s, ParseMibPerSecond(r), r.encode_median_s,
                 r.encode_min_s, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nJSON written to %s\n", path);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace aod

int main(int argc, char** argv) {
  using namespace aod::bench;

  const char* json_path = JsonPathArg(argc, argv);
  PrintHeaderLine("micro_ingest: ParseCsv and EncodeTable");
  const int64_t rows = ScaledRows(200000);
  const int64_t small = ScaledRows(60000);  // perfbench's row count
  std::printf("scale=%.2f (%lld rows; the _60k shapes %lld), median of %d "
              "after one warm-up\n",
              Scale(), static_cast<long long>(rows),
              static_cast<long long>(small), kRepetitions);

  const aod::Table flight = aod::GenerateFlightTable(rows, 10, 1);
  const aod::Table ncvoter = aod::GenerateNcVoterTable(rows, 12, 1);
  std::vector<IngestRow> all;
  all.push_back(Measure("flight", aod::WriteCsv(flight)));
  all.push_back(Measure("ncvoter", aod::WriteCsv(ncvoter)));
  all.push_back(Measure("ncvoter_quoted", QuotedCsv(ncvoter)));
  all.push_back(Measure("flight_60k", aod::WriteCsv(aod::GenerateFlightTable(
                                          small, 10, 1))));
  all.push_back(Measure("ncvoter_60k", aod::WriteCsv(aod::GenerateNcVoterTable(
                                           small, 12, 1))));

  std::printf("%16s %8s %4s %10s %10s %10s %10s %10s\n", "shape", "rows",
              "cols", "csv(MiB)", "parse(s)", "MiB/s", "encode(s)", "min enc");
  for (const IngestRow& r : all) {
    std::printf("%16s %8lld %4d %10.2f %10.4f %10.1f %10.4f %10.4f\n",
                r.shape.c_str(), static_cast<long long>(r.rows), r.columns,
                static_cast<double>(r.csv_bytes) / (1 << 20),
                r.parse_median_s, ParseMibPerSecond(r), r.encode_median_s,
                r.encode_min_s);
  }

  if (json_path != nullptr) return WriteJson(json_path, all);
  return 0;
}
