// Per-layer metrics: the list every traced run prints, the medians taken
// from DiscoveryStats, and the seeded replays that time single library
// calls (FromColumn, Product, ValidateDependency, the partition codec,
// ParseCsv/EncodeTable) on the workload's own table.
#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "data/csv_parser.h"
#include "gen/random.h"
#include "od/validator_registry.h"
#include "shard/wire.h"
#include "workloads.h"

namespace aod {
namespace perfbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
constexpr int kReplayPasses = 3;
constexpr int kProductsPerPass = 24;
constexpr int kValidationsPerKind = 12;

template <typename Fn>
double MedianOf(const std::vector<OpRecord>& records, Fn fn) {
  std::vector<double> values;
  for (const OpRecord& r : records) values.push_back(fn(r.stats));
  return Median(values);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"data.parse_s", "s"},
      {"data.encode_s", "s"},
      {"partition.base_s", "s"},
      {"partition.cpu_s", "s"},
      {"partition.products", "count"},
      {"partition.product_us_per_krow", "us/krow"},
      {"partition.evicted_mb", "MiB"},
      {"partition.evictions", "count"},
      {"partition.planner_cost_ratio", "ratio"},
      {"partition.peak_mb", "MiB"},
      {"od.oc_cpu_s", "s"},
      {"od.oc_candidates", "count"},
      {"od.oc_us_per_candidate", "us"},
      {"od.oc_pruned", "count"},
      {"od.oc_valid_ratio", "ratio"},
      {"od.ofd_cpu_s", "s"},
      {"od.fd_cpu_s", "s"},
      {"od.afd_cpu_s", "s"},
      {"od.validate_us.oc", "us"},
      {"od.validate_us.ofd", "us"},
      {"od.validate_us.fd", "us"},
      {"od.validate_us.afd", "us"},
      {"discovery.candidate_wall_s", "s"},
      {"discovery.validation_wall_s", "s"},
      {"discovery.merge_wall_s", "s"},
      {"discovery.partition_wall_s", "s"},
      {"discovery.levels", "count"},
      {"discovery.nodes", "count"},
      {"exec.busy_ratio", "ratio"},
      {"shard.wire_mb", "MiB"},
      {"shard.raw_mb", "MiB"},
      {"shard.row_mb", "MiB"},
      {"shard.overhead_s", "s"},
      {"shard.encode_mb_per_s", "MiB/s"},
      {"shard.decode_mb_per_s", "MiB/s"},
      {"shard.encode_raw_mb_per_s", "MiB/s"},
      {"shard.decode_raw_mb_per_s", "MiB/s"},
      {"shard.retries", "count"},
      {"shard.respawns", "count"},
      {"shard.fallback_shards", "count"},
      {"serve.submit_s", "s"},
      {"serve.await_s", "s"},
      {"serve.overhead_s", "s"},
      {"serve.table_cache_hit_ratio", "ratio"},
      {"serve.jobs_rejected", "count"},
      {"serve.frames_rejected", "count"},
      {"fail_frac", "ratio"},
      {"trace.overhead_s", "s"},
      {"trace.spans", "count"},
  };
  return metrics;
}

void AddDiscoveryLayers(const std::vector<OpRecord>& records,
                        LayerValues* values) {
  LayerValues& v = *values;
  v["partition.cpu_s"] = MedianOf(records, [](const DiscoveryStats& s) {
    return s.partition_seconds;
  });
  v["partition.products"] = MedianOf(records, [](const DiscoveryStats& s) {
    return static_cast<double>(s.partitions_computed);
  });
  v["partition.evicted_mb"] = MedianOf(records, [](const DiscoveryStats& s) {
    return static_cast<double>(s.partition_bytes_evicted) / kMiB;
  });
  v["partition.evictions"] = MedianOf(records, [](const DiscoveryStats& s) {
    return static_cast<double>(s.partitions_evicted);
  });
  v["partition.planner_cost_ratio"] =
      MedianOf(records, [](const DiscoveryStats& s) {
        return Ratio(static_cast<double>(s.planner_cost_realized),
                     static_cast<double>(s.planner_cost_estimated));
      });
  v["partition.peak_mb"] = MedianOf(records, [](const DiscoveryStats& s) {
    return static_cast<double>(s.partition_bytes_peak) / kMiB;
  });
  v["od.oc_cpu_s"] = MedianOf(records, [](const DiscoveryStats& s) {
    return s.oc_validation_seconds;
  });
  v["od.oc_candidates"] = MedianOf(records, [](const DiscoveryStats& s) {
    return static_cast<double>(s.oc_candidates_validated);
  });
  v["od.oc_us_per_candidate"] = MedianOf(records, [](const DiscoveryStats& s) {
    return Ratio(s.oc_validation_seconds * 1e6,
                 static_cast<double>(s.oc_candidates_validated));
  });
  v["od.oc_pruned"] = MedianOf(records, [](const DiscoveryStats& s) {
    return static_cast<double>(s.oc_candidates_pruned);
  });
  v["od.oc_valid_ratio"] = MedianOf(records, [](const DiscoveryStats& s) {
    return Ratio(static_cast<double>(s.TotalOcs()),
                 static_cast<double>(s.oc_candidates_validated));
  });
  v["od.ofd_cpu_s"] = MedianOf(records, [](const DiscoveryStats& s) {
    return s.ofd_validation_seconds;
  });
  v["od.fd_cpu_s"] = MedianOf(records, [](const DiscoveryStats& s) {
    return s.fd_validation_seconds;
  });
  v["od.afd_cpu_s"] = MedianOf(records, [](const DiscoveryStats& s) {
    return s.afd_validation_seconds;
  });
  v["discovery.candidate_wall_s"] = MedianOf(
      records, [](const DiscoveryStats& s) { return s.candidate_wall_seconds; });
  v["discovery.validation_wall_s"] = MedianOf(
      records, [](const DiscoveryStats& s) { return s.validation_wall_seconds; });
  v["discovery.merge_wall_s"] = MedianOf(
      records, [](const DiscoveryStats& s) { return s.merge_wall_seconds; });
  // Reads 0 at one thread: prefetch runs inline in the merge loop and the
  // merge absorbs partition time (a known attribution bug, ROADMAP).
  v["discovery.partition_wall_s"] = MedianOf(
      records, [](const DiscoveryStats& s) { return s.partition_wall_seconds; });
  v["discovery.levels"] = MedianOf(records, [](const DiscoveryStats& s) {
    return static_cast<double>(s.levels_processed);
  });
  v["discovery.nodes"] = MedianOf(records, [](const DiscoveryStats& s) {
    return static_cast<double>(s.nodes_processed);
  });
  v["exec.busy_ratio"] = MedianOf(records, [](const DiscoveryStats& s) {
    const double cpu = s.oc_validation_seconds + s.ofd_validation_seconds +
                       s.fd_validation_seconds + s.afd_validation_seconds;
    return Ratio(cpu, s.threads_used * s.validation_wall_seconds);
  });
}

void AddReplays(const EncodedTable& table, double epsilon, uint64_t seed,
                LayerValues* values) {
  LayerValues& v = *values;
  const int n = table.num_columns();
  const int64_t rows = table.num_rows();
  const double krows = static_cast<double>(rows) / 1000.0;

  // Base partitions: FromColumn over every attribute.
  std::vector<StrippedPartition> bases;
  std::vector<double> base_s;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    Span span("replay.base_partitions", true);
    std::vector<StrippedPartition> built;
    for (int c = 0; c < n; ++c) {
      built.push_back(StrippedPartition::FromColumn(table.column(c)));
    }
    base_s.push_back(span.Seconds());
    bases = std::move(built);
  }
  v["partition.base_s"] = Median(base_s);

  // Products: a seeded set of level-2 products Π_i · Π_j.
  Rng pick(seed ^ 0x5bd1e995u);
  std::vector<std::pair<int, int>> pairs;
  for (int k = 0; k < kProductsPerPass; ++k) {
    const int i = static_cast<int>(pick.UniformInt(0, n - 1));
    const int j = static_cast<int>((i + pick.UniformInt(1, n - 1)) % n);
    pairs.emplace_back(i, j);
  }
  PartitionScratch scratch(rows);
  std::vector<double> product_us;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    Span span("replay.products", true);
    for (const auto& [i, j] : pairs) {
      StrippedPartition p = bases[static_cast<size_t>(i)].Product(
          bases[static_cast<size_t>(j)], rows, &scratch);
      (void)p;
    }
    product_us.push_back(span.Seconds() * 1e6 / kProductsPerPass / krows);
  }
  v["partition.product_us_per_krow"] = Median(product_us);

  // One validation per kind, each with a single-attribute context.
  struct KindReplay {
    const char* metric;
    DependencyKind kind;
  };
  const KindReplay kinds[] = {{"od.validate_us.oc", DependencyKind::kOc},
                              {"od.validate_us.ofd", DependencyKind::kOfd},
                              {"od.validate_us.fd", DependencyKind::kFd},
                              {"od.validate_us.afd", DependencyKind::kAfd}};
  ValidatorScratch vscratch;
  for (const KindReplay& k : kinds) {
    std::vector<ValidationRequest> requests;
    std::vector<int> attrs(static_cast<size_t>(n));
    std::iota(attrs.begin(), attrs.end(), 0);
    for (int q = 0; q < kValidationsPerKind && n >= 3; ++q) {
      // Context c, target a and OC pair (a, b): three distinct attributes.
      for (int i = 0; i < 3; ++i) {
        std::swap(attrs[static_cast<size_t>(i)],
                  attrs[static_cast<size_t>(pick.UniformInt(i, n - 1))]);
      }
      const int c = attrs[0];
      const int a = attrs[1];
      const int b = attrs[2];
      ValidationRequest r;
      r.table = &table;
      r.context_partition = &bases[static_cast<size_t>(c)];
      r.kind = k.kind;
      r.target = a;
      r.pair.a = std::min(a, b);
      r.pair.b = std::max(a, b);
      r.algorithm = ValidatorKind::kOptimal;
      r.epsilon = epsilon;
      r.table_rows = rows;
      r.scratch = &vscratch;
      requests.push_back(r);
    }
    std::vector<double> us;
    for (int pass = 0; pass < kReplayPasses && !requests.empty(); ++pass) {
      Span span("replay.validate", true);
      for (const ValidationRequest& r : requests) ValidateDependency(r);
      us.push_back(span.Seconds() * 1e6 / static_cast<double>(requests.size()));
    }
    v[k.metric] = Median(us);
  }

  // The partition wire codec over the base partitions, compressed and raw.
  for (bool compress : {true, false}) {
    std::vector<double> enc_rate, dec_rate;
    for (int pass = 0; pass < kReplayPasses; ++pass) {
      shard::CodecByteCounts counts;
      std::vector<std::vector<uint8_t>> frames;
      Span enc("replay.encode_partition_block", true);
      for (int c = 0; c < n; ++c) {
        frames.push_back(shard::EncodePartitionBlock(
            AttributeSet::Of({c}), bases[static_cast<size_t>(c)], compress,
            &counts));
      }
      const double enc_s = enc.Seconds();
      enc.End();
      Span dec("replay.decode_frame", true);
      for (const std::vector<uint8_t>& frame : frames) {
        Result<shard::DecodedFrame> decoded = shard::DecodeFrame(frame);
        if (decoded.ok()) shard::DecodePartitionBlock(*decoded, rows);
      }
      const double dec_s = dec.Seconds();
      const double mib = static_cast<double>(counts.raw) / kMiB;
      enc_rate.push_back(Ratio(mib, enc_s));
      dec_rate.push_back(Ratio(mib, dec_s));
    }
    v[compress ? "shard.encode_mb_per_s" : "shard.encode_raw_mb_per_s"] =
        Median(enc_rate);
    v[compress ? "shard.decode_mb_per_s" : "shard.decode_raw_mb_per_s"] =
        Median(dec_rate);
  }
}

void AddIngestReplay(const std::string& csv, LayerValues* values) {
  std::vector<double> parse_s, encode_s;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    Span parse("replay.parse", true);
    Result<Table> table = ParseCsv(csv);
    parse.End();
    if (!table.ok()) continue;
    Span encode("replay.encode", true);
    EncodedTable encoded = EncodeTable(*table);
    encode.End();
    parse_s.push_back(parse.Seconds());
    encode_s.push_back(encode.Seconds());
  }
  (*values)["data.parse_s"] = Median(parse_s);
  (*values)["data.encode_s"] = Median(encode_s);
}

}  // namespace perfbench
}  // namespace aod
