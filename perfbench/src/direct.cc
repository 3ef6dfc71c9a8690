// The direct workloads: flight-aoc, ncvoter-fd-budget and shard-proc.
//
// One operation is one profiling run as a user runs it: in-memory CSV
// text -> ParseCsv -> EncodeTable -> DiscoverOds -> result. All three run
// the library on one thread. Threaded variants stay out until the
// PartitionCache::Get deadlock (ROADMAP blocker) is fixed: with two or
// more threads, runs hung in 6/12 (2 threads) and 8/12 (4 threads)
// ncvoter 200K x 12 FD/AFD runs and within 60 ncvoter 20K OC/OFD runs,
// while single-threaded runs never take the code path that waits.
#include <string>

#include "data/csv_parser.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"
#include "workloads.h"

namespace aod {
namespace perfbench {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

enum class Dataset { kFlight, kNcVoter };

struct DirectSpec {
  Dataset dataset = Dataset::kFlight;
  int64_t base_rows = 0;
  int attributes = 10;
  const char* kinds = "oc,ofd";
  /// Partition memory budget per 100K rows (0 = unbudgeted).
  double budget_mib_per_100k_rows = 0.0;
  bool sharded = false;
};

class DirectWorkload : public Workload {
 public:
  DirectWorkload(const Config& config, const DirectSpec& spec)
      : config_(config), spec_(spec) {
    rows_ = ScaledRows(config, spec.base_rows);
    options_.kinds = *DependencyKindSet::Parse(spec.kinds);
    options_.validator = ValidatorKind::kOptimal;
    options_.epsilon = 0.10;
    options_.num_threads = 1;
    if (spec.budget_mib_per_100k_rows > 0) {
      options_.partition_memory_budget_bytes = static_cast<int64_t>(
          spec.budget_mib_per_100k_rows * kMiB * static_cast<double>(rows_) / 1e5);
    }
    reference_options_ = options_;
    if (spec.sharded) {
      options_.num_shards = 2;
      options_.row_shards = 2;
      options_.shard_transport = ShardTransport::kProcess;
      options_.shard_runner_path = config.runner_path;
    }
  }

  void Generate() override {
    Table table = spec_.dataset == Dataset::kFlight
                      ? GenerateFlightTable(rows_, spec_.attributes, config_.seed)
                      : GenerateNcVoterTable(rows_, spec_.attributes, config_.seed);
    csv_ = WriteCsv(table);
    encoded_ = EncodeTable(table);
  }

  Fingerprint Reference(int64_t) override {
    if (!have_reference_) {
      reference_ = FingerprintOf(DiscoverOds(encoded_, reference_options_));
      have_reference_ = true;
    }
    return reference_;
  }

  OpRecord SetUp() override { return Run(0, -1, false); }

  bool measures_children() const override { return spec_.sharded; }

  OpRecord Run(int, int64_t index, bool traced) override {
    // One thread does all of an unsharded operation's work, so it feels a
    // slowdown of the shared host's core under it in full. Moving each
    // timed operation to the next CPU makes a run sample every core, not
    // whichever one the thread stayed on: over ten interleaved seeds this
    // halved the spread of flight-aoc run_s (0.080 vs 0.158). Sharded
    // runs stay unpinned, because the runners inherit the mask.
    if (!spec_.sharded && index >= 0) PinToCpu(index);
    OpRecord record;
    record.traced = traced;
    Span op("operation", traced);
    record.span = op.id();
    Span ingest("ingest", traced, op.id());
    Span parse("parse", traced, ingest.id());
    Result<Table> table = ParseCsv(csv_);
    parse.End();
    if (!table.ok()) {
      record.error = "ParseCsv: " + table.status().ToString();
      return record;
    }
    Span encode("encode", traced, ingest.id());
    EncodedTable encoded = EncodeTable(*table);
    encode.End();
    ingest.End();
    Span discover("discover", traced, op.id());
    DiscoveryResult result = DiscoverOds(encoded, options_);
    AttachStats(&discover, result.stats);
    discover.End();
    op.End();
    record.seconds = op.Seconds();
    record.parse_s = parse.Seconds();
    record.encode_s = encode.Seconds();
    record.discover_s = discover.Seconds();
    record.error = RunFailure(result);
    record.fingerprint = FingerprintOf(result);
    record.stats = result.stats;
    return record;
  }

  void PerLayer(const std::vector<OpRecord>& traced,
                LayerValues* values) override {
    AddDiscoveryLayers(traced, values);
    AddReplays(encoded_, options_.epsilon, config_.seed, values);
    std::vector<double> parse, encode, discover;
    for (const OpRecord& r : traced) {
      parse.push_back(r.parse_s);
      encode.push_back(r.encode_s);
      discover.push_back(r.discover_s);
    }
    (*values)["data.parse_s"] = Median(parse);
    (*values)["data.encode_s"] = Median(encode);
    if (!spec_.sharded) return;
    std::vector<double> wire, raw, row, retries, respawns, fallback;
    for (const OpRecord& r : traced) {
      wire.push_back(static_cast<double>(r.stats.shard_bytes_wire) / kMiB);
      raw.push_back(static_cast<double>(r.stats.shard_bytes_raw) / kMiB);
      row.push_back(static_cast<double>(r.stats.row_shard_bytes_wire) / kMiB);
      retries.push_back(static_cast<double>(r.stats.shard_retries));
      respawns.push_back(static_cast<double>(r.stats.shard_respawns));
      fallback.push_back(static_cast<double>(r.stats.shard_fallback_shards));
    }
    (*values)["shard.wire_mb"] = Median(wire);
    (*values)["shard.raw_mb"] = Median(raw);
    (*values)["shard.row_mb"] = Median(row);
    (*values)["shard.retries"] = Median(retries);
    (*values)["shard.respawns"] = Median(respawns);
    (*values)["shard.fallback_shards"] = Median(fallback);
    // The seam's cost: sharded DiscoverOds minus the unsharded one-thread
    // run of the same table.
    std::vector<double> unsharded;
    for (int i = 0; i < 2; ++i) {
      Span span("unsharded_discover", true);
      DiscoverOds(encoded_, reference_options_);
      unsharded.push_back(span.Seconds());
    }
    (*values)["shard.overhead_s"] = Median(discover) - Median(unsharded);
  }

  Shape shape() const override {
    Shape s;
    s.rows = std::to_string(rows_);
    s.attributes = spec_.attributes;
    s.threads = spec_.sharded ? "1 + 2 runner processes" : "1";
    return s;
  }

 private:
  const Config config_;
  const DirectSpec spec_;
  int64_t rows_ = 0;
  DiscoveryOptions options_;
  DiscoveryOptions reference_options_;
  std::string csv_;
  EncodedTable encoded_;
  bool have_reference_ = false;
  Fingerprint reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeMix(const Config& config);

std::unique_ptr<Workload> MakeWorkload(const Config& config) {
  if (config.workload == "flight-aoc") {
    DirectSpec spec;
    spec.dataset = Dataset::kFlight;
    spec.base_rows = 60000;
    spec.attributes = 10;
    spec.kinds = "oc,ofd";
    return std::make_unique<DirectWorkload>(config, spec);
  }
  if (config.workload == "ncvoter-fd-budget") {
    DirectSpec spec;
    spec.dataset = Dataset::kNcVoter;
    spec.base_rows = 60000;
    spec.attributes = 12;
    spec.kinds = "fd,afd";
    spec.budget_mib_per_100k_rows = 16.0;
    return std::make_unique<DirectWorkload>(config, spec);
  }
  if (config.workload == "shard-proc") {
    DirectSpec spec;
    spec.dataset = Dataset::kNcVoter;
    spec.base_rows = 50000;
    spec.attributes = 10;
    spec.kinds = "oc,ofd";
    spec.sharded = true;
    return std::make_unique<DirectWorkload>(config, spec);
  }
  if (config.workload == "serve-mix") return MakeServeMix(config);
  return nullptr;
}

}  // namespace perfbench
}  // namespace aod
