// Exp-8 (this repo, beyond the paper): sharded discovery over the CSR
// wire format.
//
// The sharding subsystem (src/shard/) splits each level's candidate
// space across N spawned shard_runner_main processes connected over
// localhost TCP; the config, the rank-encoded table and the base
// partitions ship out and validation results ship back in the
// versioned, checksummed wire format, and the deterministic key-ordered
// merge reduces the shard outputs. This harness measures AOD (optimal)
// discovery wall clock for num_shards ∈ {1, 2, 4, 8} against the
// unsharded baseline on generated flight/ncvoter data, reports the wire
// volume (bytes shipped per run), and cross-checks the determinism
// contract (identical dependency counts at every shard count).
//
// The runner binary resolves as for every sharded run: $AOD_SHARD_RUNNER,
// else shard_runner_main beside this harness (the build puts it there).
// The gap between the unsharded and 1-shard lines is the whole price of
// the seam: process startup, table and base shipping, serialization,
// checksumming and per-batch framing over loopback. Every point is the
// median of kTimedRepeats timed runs after one untimed warm-up, so the
// unsharded baseline does not run cold. With --json <path>
// the series is written as machine-readable JSON (CI uploads it as
// BENCH_exp8.json).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/encoder.h"
#include "exec/thread_pool.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"
#include "shard/supervisor.h"

namespace aod {
namespace bench {
namespace {

constexpr int kShardCounts[] = {0, 1, 2, 4, 8};  // 0 = unsharded baseline

struct ShardPoint {
  int shards = 0;
  RunResult run;
  int64_t bytes_shipped = 0;
  int64_t bytes_raw = 0;
  int64_t bytes_wire = 0;
};

/// One row-space sharding run: the base-partition build is distributed
/// over row ranges (num_shards stays 0 — the traversal itself runs
/// unsharded), so the interesting series is the wire volume per shard,
/// which must shrink as O(table/row_shards).
struct RowShardPoint {
  int row_shards = 0;
  RunResult run;
  int64_t bytes_shipped = 0;
  int64_t bytes_raw = 0;
  int64_t bytes_wire = 0;
  std::vector<int64_t> bytes_per_shard;
};

struct DatasetSeries {
  std::string name;
  int64_t rows = 0;
  std::vector<ShardPoint> points;
  std::vector<RowShardPoint> row_points;
};

DatasetSeries RunDataset(const char* name, bool flight, int64_t base_rows,
                         const std::string& runner, exec::ThreadPool* pool) {
  DatasetSeries series;
  series.name = name;
  series.rows = ScaledRows(base_rows);
  std::printf("\n--- %s (%lld rows, 10 attributes, eps = 10%%, %d worker"
              " threads) ---\n",
              name, static_cast<long long>(series.rows), pool->num_workers());
  Table t = flight ? GenerateFlightTable(series.rows, 10, 42)
                   : GenerateNcVoterTable(series.rows, 10, 1729);
  EncodedTable enc = EncodeTable(t);

  std::printf("%16s %12s %9s %8s %8s %11s %10s %7s %12s\n",
              "shards", "wall(s)", "vs base", "#AOC", "#AOFD",
              "wire(MiB)", "raw(MiB)", "ratio", "merge.wall");
  double baseline = 0.0;
  int64_t baseline_ocs = -1;
  int64_t baseline_ofds = -1;
  for (int shards : kShardCounts) {
    DiscoveryOptions options;
    options.validator = ValidatorKind::kOptimal;
    options.epsilon = 0.10;
    options.pool = pool;
    options.num_shards = shards;
    options.shard_runner_path = runner;
    ShardPoint point;
    point.shards = shards;
    point.run = RunDiscoveryWarmMedian(enc, options);
    point.bytes_shipped = point.run.full.stats.shard_bytes_shipped;
    point.bytes_raw = point.run.full.stats.shard_bytes_raw;
    point.bytes_wire = point.run.full.stats.shard_bytes_wire;
    if (shards == 0) {
      baseline = point.run.seconds;
      baseline_ocs = point.run.ocs;
      baseline_ofds = point.run.ofds;
    }
    const bool deterministic = point.run.ocs == baseline_ocs &&
                               point.run.ofds == baseline_ofds &&
                               point.run.full.shard_status.ok();
    const std::string label =
        shards == 0 ? "unsharded" : std::to_string(shards);
    std::printf(
        "%16s %12.3f %8.2fx %8lld %8lld %11.2f %10.2f %6.2fx %12.3f%s\n",
        label.c_str(), point.run.seconds,
        point.run.seconds > 0 ? baseline / point.run.seconds : 0.0,
        static_cast<long long>(point.run.ocs),
        static_cast<long long>(point.run.ofds),
        static_cast<double>(point.bytes_wire) / (1 << 20),
        static_cast<double>(point.bytes_raw) / (1 << 20),
        point.bytes_wire > 0 ? static_cast<double>(point.bytes_raw) /
                                   static_cast<double>(point.bytes_wire)
                             : 0.0,
        point.run.full.stats.merge_wall_seconds,
        deterministic ? "" : "  <-- DETERMINISM VIOLATION");
    series.points.push_back(std::move(point));
  }

  // Row-space sharding: the base-partition build fans out over
  // contiguous row ranges and the class-stitching reducer reassembles
  // canonical partitions; the traversal then runs unsharded. Per-shard
  // wire volume is the headline: each shard receives only its own row
  // slice, so max(bytes/shard) must fall as O(table/row_shards).
  std::printf("\n%16s %12s %9s %8s %8s %11s %10s %13s\n",
              "row-shards", "wall(s)", "vs base", "#AOC", "#AOFD",
              "wire(MiB)", "raw(MiB)", "max/shard(MiB)");
  for (int row_shards : {1, 2, 4, 8}) {
    DiscoveryOptions options;
    options.validator = ValidatorKind::kOptimal;
    options.epsilon = 0.10;
    options.pool = pool;
    options.row_shards = row_shards;
    options.shard_runner_path = runner;
    RowShardPoint point;
    point.row_shards = row_shards;
    point.run = RunDiscoveryWarmMedian(enc, options);
    point.bytes_shipped = point.run.full.stats.row_shard_bytes_shipped;
    point.bytes_raw = point.run.full.stats.row_shard_bytes_raw;
    point.bytes_wire = point.run.full.stats.row_shard_bytes_wire;
    point.bytes_per_shard = point.run.full.stats.row_shard_bytes_per_shard;
    int64_t max_shard = 0;
    for (int64_t b : point.bytes_per_shard) {
      if (b > max_shard) max_shard = b;
    }
    const bool deterministic = point.run.ocs == baseline_ocs &&
                               point.run.ofds == baseline_ofds &&
                               point.run.full.shard_status.ok();
    std::printf(
        "%16d %12.3f %8.2fx %8lld %8lld %11.2f %10.2f %13.2f%s\n",
        row_shards, point.run.seconds,
        point.run.seconds > 0 ? baseline / point.run.seconds : 0.0,
        static_cast<long long>(point.run.ocs),
        static_cast<long long>(point.run.ofds),
        static_cast<double>(point.bytes_wire) / (1 << 20),
        static_cast<double>(point.bytes_raw) / (1 << 20),
        static_cast<double>(max_shard) / (1 << 20),
        deterministic ? "" : "  <-- DETERMINISM VIOLATION");
    series.row_points.push_back(std::move(point));
  }
  return series;
}

int WriteJson(const char* path, const std::vector<DatasetSeries>& all,
              int threads) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"exp8_shards\",\n");
  std::fprintf(f, "  \"scale\": %.4f,\n  \"threads\": %d,\n", Scale(),
               threads);
  std::fprintf(f, "  \"datasets\": [\n");
  for (size_t d = 0; d < all.size(); ++d) {
    const DatasetSeries& series = all[d];
    std::fprintf(f, "    {\"name\": \"%s\", \"rows\": %lld, \"points\": [\n",
                 series.name.c_str(), static_cast<long long>(series.rows));
    for (size_t i = 0; i < series.points.size(); ++i) {
      const ShardPoint& p = series.points[i];
      std::fprintf(
          f,
          "      {\"shards\": %d, \"seconds\": %.6f, \"ocs\": %lld, "
          "\"ofds\": %lld, \"bytes_shipped\": %lld, "
          "\"bytes_raw\": %lld, \"bytes_wire\": %lld, "
          "\"merge_wall_seconds\": %.6f, \"frame_bytes\": [",
          p.shards, p.run.seconds,
          static_cast<long long>(p.run.ocs),
          static_cast<long long>(p.run.ofds),
          static_cast<long long>(p.bytes_shipped),
          static_cast<long long>(p.bytes_raw),
          static_cast<long long>(p.bytes_wire),
          p.run.full.stats.merge_wall_seconds);
      const auto& frame_bytes = p.run.full.stats.shard_frame_bytes;
      for (size_t j = 0; j < frame_bytes.size(); ++j) {
        std::fprintf(f, "{\"type\": \"%s\", \"raw\": %lld, \"wire\": %lld}%s",
                     frame_bytes[j].frame_type.c_str(),
                     static_cast<long long>(frame_bytes[j].bytes_raw),
                     static_cast<long long>(frame_bytes[j].bytes_wire),
                     j + 1 < frame_bytes.size() ? ", " : "");
      }
      std::fprintf(f, "]}%s\n", i + 1 < series.points.size() ? "," : "");
    }
    std::fprintf(f, "    ], \"row_shard_points\": [\n");
    for (size_t i = 0; i < series.row_points.size(); ++i) {
      const RowShardPoint& p = series.row_points[i];
      std::fprintf(
          f,
          "      {\"row_shards\": %d, \"seconds\": %.6f, \"ocs\": %lld, "
          "\"ofds\": %lld, \"bytes_shipped\": %lld, "
          "\"bytes_raw\": %lld, \"bytes_wire\": %lld, "
          "\"bytes_per_shard\": [",
          p.row_shards, p.run.seconds,
          static_cast<long long>(p.run.ocs),
          static_cast<long long>(p.run.ofds),
          static_cast<long long>(p.bytes_shipped),
          static_cast<long long>(p.bytes_raw),
          static_cast<long long>(p.bytes_wire));
      for (size_t j = 0; j < p.bytes_per_shard.size(); ++j) {
        std::fprintf(f, "%lld%s",
                     static_cast<long long>(p.bytes_per_shard[j]),
                     j + 1 < p.bytes_per_shard.size() ? ", " : "");
      }
      std::fprintf(f, "]}%s\n", i + 1 < series.row_points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", d + 1 < all.size() ? "," : "");
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
  PrintHeaderLine("Exp-8: sharded discovery over the CSR wire format");
  const int threads = aod::exec::ThreadPool::HardwareConcurrency();
  std::printf("scale=%.2f (default: 100K rows), hw=%d hardware threads\n",
              Scale(), threads);
  const std::string runner = aod::shard::ResolveRunnerPath("");
  if (runner.empty()) {
    std::fprintf(stderr, "exp8_shards: shard_runner_main not found; build it"
                         " beside this harness or set AOD_SHARD_RUNNER\n");
    return 1;
  }
  std::printf("runner=%s\neach point: median of %d timed runs after 1"
              " warm-up\n",
              runner.c_str(), kTimedRepeats);
  PrintNote("every shard is a spawned runner process, its validation"
            " threads a slice of the coordinator's pool; counts must match"
            " the unsharded baseline at every"
            " shard count (determinism contract). wire(MiB) is total frame"
            " bytes both directions after the wire codecs, raw(MiB)"
            " the same traffic with every codec forced raw (ratio ="
            " raw/wire). The row-shards section distributes the base-partition"
            " build over contiguous row ranges (traversal unsharded):"
            " max/shard(MiB) is the largest table slice any one shard"
            " received, which must fall as O(table/row_shards).");

  aod::exec::ThreadPool pool(threads);
  std::vector<DatasetSeries> all;
  all.push_back(
      RunDataset("flight", /*flight=*/true, 100000, runner, &pool));
  all.push_back(
      RunDataset("ncvoter", /*flight=*/false, 100000, runner, &pool));
  if (json_path != nullptr) return WriteJson(json_path, all, threads);
  return 0;
}
