// Micro-benchmark of the shard wire codecs (src/shard/wire.{h,cc}).
//
// For each frame type that ships bulk data this harness measures encode
// and decode throughput (MiB/s of *raw* payload processed, so raw and
// compressed rows are directly comparable) and the compression ratio
// (raw frame bytes / wire frame bytes). Partition blocks and partition
// fragments run both codecs, raw and delta-varint; the table block runs
// its packed rank tiers against raw i32 columns; candidate and result
// batches have one spelling, raw. Shapes mirror what crosses the seam:
// a low-cardinality base partition with long ascending runs (the
// canonical normal form delta-varint exploits), one row shard's
// fragment of the same column, a level's candidate batch with
// sequential slots, and result chunks with and without removal rows.
//
// With --json <path> the series is written as machine-readable JSON (CI
// uploads it as BENCH_micro_wire.json).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "data/encoder.h"
#include "gen/random.h"
#include "partition/attribute_set.h"
#include "partition/partition_stitch.h"
#include "partition/stripped_partition.h"
#include "shard/wire.h"

namespace aod {
namespace bench {
namespace {

using shard::CodecByteCounts;
using shard::DecodedFrame;
using shard::WireCandidate;
using shard::WireOutcome;

struct CodecRow {
  std::string frame_type;   // "partition", "candidate", ...
  std::string shape;        // which workload variant
  bool compression = true;
  int64_t raw_bytes = 0;    // one frame, all-raw baseline (header incl.)
  int64_t wire_bytes = 0;   // one frame as shipped
  double encode_mib_s = 0.0;
  double decode_mib_s = 0.0;
};

double Ratio(const CodecRow& r) {
  return r.wire_bytes > 0
             ? static_cast<double>(r.raw_bytes) /
                   static_cast<double>(r.wire_bytes)
             : 0.0;
}

/// Repeats `fn` until ~80ms of wall clock accumulates and returns the
/// per-iteration seconds — enough samples to flatten scheduler noise
/// without making the full suite slow.
template <typename Fn>
double TimePerIteration(const Fn& fn) {
  int iters = 0;
  Stopwatch sw;
  do {
    fn();
    ++iters;
  } while (sw.ElapsedSeconds() < 0.08);
  return sw.ElapsedSeconds() / iters;
}

/// Throughput in MiB/s of raw payload moved per second.
double MibPerSecond(int64_t raw_bytes, double seconds_per_iter) {
  if (seconds_per_iter <= 0.0) return 0.0;
  return static_cast<double>(raw_bytes) / (1 << 20) / seconds_per_iter;
}

/// Measures one frame shape. `encode(counts)` seals the frame, adding its
/// raw/wire split to `counts` when that is non-null; `decode(frame)`
/// returns whether the decoder accepted it.
template <typename Encode, typename Decode>
CodecRow Measure(const char* frame_type, const std::string& shape,
                 bool compression, const Encode& encode,
                 const Decode& decode) {
  CodecRow row;
  row.frame_type = frame_type;
  row.shape = shape;
  row.compression = compression;
  CodecByteCounts counts;
  const std::vector<uint8_t> frame = encode(&counts);
  row.raw_bytes = counts.raw;
  row.wire_bytes = counts.wire;
  row.encode_mib_s = MibPerSecond(counts.raw, TimePerIteration([&] {
    volatile size_t sink = encode(nullptr).size();
    (void)sink;
  }));
  Result<DecodedFrame> decoded = shard::DecodeFrame(frame);
  AOD_CHECK(decoded.ok());
  row.decode_mib_s = MibPerSecond(
      counts.raw, TimePerIteration([&] { AOD_CHECK(decode(*decoded)); }));
  return row;
}

EncodedTable RandomEncodedTable(int64_t rows, int cols, int64_t cardinality,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int64_t>> columns(static_cast<size_t>(cols));
  std::vector<std::string> names;
  for (int c = 0; c < cols; ++c) {
    names.push_back("c" + std::to_string(c));
    for (int64_t r = 0; r < rows; ++r) {
      columns[static_cast<size_t>(c)].push_back(
          rng.UniformInt(0, cardinality - 1));
    }
  }
  return EncodedTableFromInts(names, columns);
}

std::vector<WireCandidate> MakeCandidates(int64_t n) {
  Rng rng(7);
  std::vector<WireCandidate> out;
  for (int64_t i = 0; i < n; ++i) {
    WireCandidate c;
    c.slot = static_cast<uint64_t>(i);
    c.context_bits = static_cast<uint64_t>(rng.UniformInt(0, 1 << 10));
    // Every kind appears in the measured mix, target and pair shapes
    // alike.
    c.kind = static_cast<DependencyKind>(i % 4);
    if (c.kind == DependencyKind::kOc) {
      c.pair_a = static_cast<int32_t>(i % 9);
      c.pair_b = static_cast<int32_t>(i % 9 + 1);
      c.opposite = (i % 2) == 0;
    } else {
      c.target = static_cast<int32_t>(i % 10);
    }
    out.push_back(c);
  }
  return out;
}

std::vector<WireOutcome> MakeOutcomes(int64_t n, bool removal_rows) {
  Rng rng(11);
  std::vector<WireOutcome> out;
  for (int64_t i = 0; i < n; ++i) {
    WireOutcome o;
    o.slot = static_cast<uint64_t>(i);
    o.kind = static_cast<DependencyKind>(i % 4);
    o.valid = (i % 2) == 0;
    o.early_exit = (i % 5) == 0;
    o.removal_size = rng.UniformInt(0, 200);
    o.approx_factor = 0.01 * static_cast<double>(rng.UniformInt(0, 10));
    o.interestingness = 1.0 / (1.0 + static_cast<double>(i));
    o.seconds = 1e-6;
    if (removal_rows) {
      int32_t row = 0;
      for (int r = 0; r < 12; ++r) {
        row += static_cast<int32_t>(rng.UniformInt(1, 30));
        o.removal_rows.push_back(row);
      }
    }
    out.push_back(o);
  }
  return out;
}

std::vector<CodecRow> MeasureShapes(int64_t rows) {
  // Workload shapes. Base: one low-cardinality column partition (what
  // the coordinator ships to every shard). Fragment: the second half of
  // the same column, as one of two row shards returns it. Level batch:
  // 2000 sequential candidates; result chunks at the runner's
  // 512-outcome grain.
  EncodedTable base_table = RandomEncodedTable(rows, 1, 16, 42);
  const EncodedColumn& base_column = base_table.column(0);
  const StrippedPartition base = StrippedPartition::FromColumn(base_column);
  const AttributeSet base_set = AttributeSet::Of({0});
  const PartitionFragment fragment =
      FragmentFromColumn(base_column, rows / 2, rows, /*attribute=*/0);
  EncodedTable wide_table = RandomEncodedTable(rows / 10 + 1, 10, 300, 99);
  const std::vector<WireCandidate> batch = MakeCandidates(2000);
  const std::pair<std::string, std::vector<WireOutcome>> result_chunks[] = {
      {"chunk_512", MakeOutcomes(512, false)},
      {"chunk_512_removal", MakeOutcomes(512, true)},
  };

  std::vector<CodecRow> all;
  for (bool compression : {true, false}) {
    all.push_back(Measure(
        "partition", "base_card16", compression,
        [&](CodecByteCounts* counts) {
          return shard::EncodePartitionBlock(base_set, base, compression,
                                             counts);
        },
        [&](const DecodedFrame& f) {
          return shard::DecodePartitionBlock(f, rows).ok();
        }));
    all.push_back(Measure(
        "fragment", "half_card16", compression,
        [&](CodecByteCounts* counts) {
          return shard::EncodePartitionFragment(fragment, compression,
                                                counts);
        },
        [&](const DecodedFrame& f) {
          return shard::DecodePartitionFragment(f, rows).ok();
        }));
    all.push_back(Measure(
        "table", "table_10col_card300", compression,
        [&](CodecByteCounts* counts) {
          return shard::EncodeTableBlock(wide_table, compression, counts);
        },
        [&](const DecodedFrame& f) {
          return shard::DecodeTableBlock(f).ok();
        }));
  }
  all.push_back(Measure(
      "candidate", "level_batch_2k", /*compression=*/false,
      [&](CodecByteCounts* counts) {
        return shard::EncodeCandidateBatch(batch, counts);
      },
      [&](const DecodedFrame& f) {
        return shard::DecodeCandidateBatch(f).ok();
      }));
  for (const auto& [shape, outcomes] : result_chunks) {
    all.push_back(Measure(
        "result", shape, /*compression=*/false,
        [&](CodecByteCounts* counts) {
          return shard::EncodeResultBatch(outcomes, true, counts);
        },
        [&](const DecodedFrame& f) {
          return shard::DecodeResultBatch(f).ok();
        }));
  }
  return all;
}

int WriteJson(const char* path, const std::vector<CodecRow>& rows) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_wire\",\n");
  std::fprintf(f, "  \"scale\": %.4f,\n  \"rows\": [\n", Scale());
  for (size_t i = 0; i < rows.size(); ++i) {
    const CodecRow& r = rows[i];
    std::fprintf(f,
                 "    {\"frame_type\": \"%s\", \"shape\": \"%s\", "
                 "\"compression\": %s, \"raw_bytes\": %lld, "
                 "\"wire_bytes\": %lld, \"ratio\": %.4f, "
                 "\"encode_mib_s\": %.2f, \"decode_mib_s\": %.2f}%s\n",
                 r.frame_type.c_str(), r.shape.c_str(),
                 r.compression ? "true" : "false",
                 static_cast<long long>(r.raw_bytes),
                 static_cast<long long>(r.wire_bytes), Ratio(r),
                 r.encode_mib_s, r.decode_mib_s,
                 i + 1 < rows.size() ? "," : "");
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
  PrintHeaderLine("micro_wire: shard codec throughput + compression ratio");
  const int64_t rows = ScaledRows(100000);
  std::printf("scale=%.2f (%lld-row shapes)\n", Scale(),
              static_cast<long long>(rows));

  const std::vector<CodecRow> all = MeasureShapes(rows);

  std::printf("%10s %20s %6s %12s %12s %7s %12s %12s\n", "frame", "shape",
              "codec", "raw(KiB)", "wire(KiB)", "ratio", "enc MiB/s",
              "dec MiB/s");
  for (const CodecRow& r : all) {
    std::printf("%10s %20s %6s %12.1f %12.1f %6.2fx %12.1f %12.1f\n",
                r.frame_type.c_str(), r.shape.c_str(),
                !r.compression             ? "raw"
                : r.frame_type == "table" ? "packed"
                                          : "delta",
                static_cast<double>(r.raw_bytes) / 1024,
                static_cast<double>(r.wire_bytes) / 1024, Ratio(r),
                r.encode_mib_s, r.decode_mib_s);
  }

  if (json_path != nullptr) return WriteJson(json_path, all);
  return 0;
}
