// Scenario: profile any CSV file for approximate order dependencies.
//
// A command-line profiler over the public API — point it at a CSV export
// and it prints the discovered AOCs/AOFDs ranked by interestingness,
// optionally composing full ODs and exporting machine-readable results.
// With no file argument it demonstrates itself on an embedded sample.
//
//   ./examples/csv_discovery [file.csv] [options]
//     --epsilon=0.10        approximation threshold
//     --kinds=oc,ofd        dependency kinds to discover — any comma
//                           subset of oc, ofd, fd, afd; each kind's
//                           results are identical whether discovered
//                           alone or together
//     --afd-error=0.05      maximum g1 error for the afd kind
//     --top-k=N             keep only the N highest-ranked dependencies
//                           across all kinds (0 = all; deterministic
//                           for any thread/shard count)
//     --max-rows=N          read only the first N data rows
//     --validator=optimal   optimal | iterative | exact
//     --bidirectional       also search A asc ~ B desc polarity
//     --threads=N           parallel validation workers (0 = all cores;
//                           results are identical for any thread count)
//     --memory-budget-mb=N  partition cache byte budget; coldest derived
//                           partitions are evicted and re-derived on
//                           demand (identical output)
//     --shards=N            distribute validation over N spawned
//                           shard_runner_main processes; partitions and
//                           results cross the shard seam in the
//                           checksummed CSR wire format (identical
//                           output; 0 = unsharded)
//     --shard-runner=PATH   shard_runner_main binary (default:
//                           $AOD_SHARD_RUNNER, else shard_runner_main
//                           beside this program)
//     --server=HOST:PORT    don't run locally: submit the job to a
//                           running discovery_serve daemon and await
//                           the result (identical output; deadline
//                           rides --deadline)
//     --deadline=S          server-side wall-clock budget for --server
//                           jobs (0 = none)
//     --ods                 compose and print ODs from the OC/OFD parts
//     --json=out.json       write the result as JSON
//     --csv=out.csv         write the result as flat CSV
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "data/csv_parser.h"
#include "data/encoder.h"
#include "od/discovery.h"
#include "od/od_assembly.h"
#include "od/result_io.h"
#include "partition/partition_cache.h"
#include "serve/client.h"

using namespace aod;

namespace {

constexpr char kEmbeddedSample[] =
    "orderId,customer,region,price,priceWithTax,shipDays\n"
    "1,ada,east,100,108,2\n"
    "2,bob,west,250,270,5\n"
    "3,cyd,east,80,86,2\n"
    "4,dee,west,120,130,3\n"
    "5,eve,east,300,324,6\n"
    "6,fin,west,90,97,2\n"
    "7,gil,east,150,162,31\n"  // <- shipDays outlier breaks exact OD
    "8,hal,west,200,216,4\n"
    "9,ivy,east,400,432,8\n"
    "10,joe,west,60,65,1\n";

struct Args {
  std::string file;
  double epsilon = 0.10;
  DependencyKindSet kinds = DependencyKindSet::OdDefault();
  /// Set when --kinds was passed; gates the per-kind count report so the
  /// default output stays byte-identical to earlier releases.
  bool kinds_explicit = false;
  double afd_error = 0.05;
  int64_t top_k = 0;
  int64_t max_rows = -1;
  ValidatorKind validator = ValidatorKind::kOptimal;
  bool bidirectional = false;
  int threads = 1;
  int64_t memory_budget_mb = 0;
  int shards = 0;
  std::string shard_runner;
  std::string server_host;
  uint16_t server_port = 0;
  double deadline_seconds = 0.0;
  bool assemble_ods = false;
  std::string json_path;
  std::string csv_path;
  bool ok = true;
};

/// Parses all of `v` as a number in [lo, hi]. Otherwise prints one line
/// naming the flag and returns false — a usage error, never a crash in
/// DiscoverOds' option checks.
bool ParseNumber(const char* flag, const char* v, double lo, double hi,
                 double* out) {
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(x >= lo && x <= hi)) {
    std::fprintf(stderr, "%s: want a number in [%g, %g], got '%s'\n", flag,
                 lo, hi, v);
    return false;
  }
  *out = x;
  return true;
}

bool ParseInteger(const char* flag, const char* v, int64_t lo, int64_t hi,
                  int64_t* out) {
  char* end = nullptr;
  const long long x = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || x < lo || x > hi) {
    std::fprintf(stderr, "%s: want an integer in [%lld, %lld], got '%s'\n",
                 flag, static_cast<long long>(lo), static_cast<long long>(hi),
                 v);
    return false;
  }
  *out = x;
  return true;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      size_t len = std::string(prefix).size();
      return arg.rfind(prefix, 0) == 0 ? arg.c_str() + len : nullptr;
    };
    int64_t n = 0;
    if (const char* v = value_of("--epsilon=")) {
      args.ok &= ParseNumber("--epsilon", v, 0.0, 1.0, &args.epsilon);
    } else if (const char* v = value_of("--kinds=")) {
      Result<DependencyKindSet> kinds = DependencyKindSet::Parse(v);
      if (!kinds.ok()) {
        std::fprintf(stderr, "--kinds: %s\n",
                     kinds.status().ToString().c_str());
        args.ok = false;
      } else {
        args.kinds = *kinds;
        args.kinds_explicit = true;
      }
    } else if (const char* v = value_of("--afd-error=")) {
      args.ok &= ParseNumber("--afd-error", v, 0.0, 1.0, &args.afd_error);
    } else if (const char* v = value_of("--top-k=")) {
      args.ok &= ParseInteger("--top-k", v, 0,
                              std::numeric_limits<int64_t>::max(),
                              &args.top_k);
    } else if (const char* v = value_of("--max-rows=")) {
      args.max_rows = std::atoll(v);
    } else if (const char* v = value_of("--validator=")) {
      std::string kind = v;
      if (kind == "optimal") args.validator = ValidatorKind::kOptimal;
      else if (kind == "iterative") args.validator = ValidatorKind::kIterative;
      else if (kind == "exact") args.validator = ValidatorKind::kExact;
      else {
        std::fprintf(stderr, "--validator: want optimal | iterative | "
                             "exact, got '%s'\n", v);
        args.ok = false;
      }
    } else if (arg == "--bidirectional") {
      args.bidirectional = true;
    } else if (const char* v = value_of("--threads=")) {
      args.ok &= ParseInteger("--threads", v, 0, 1024, &n);
      args.threads = static_cast<int>(n);
    } else if (const char* v = value_of("--memory-budget-mb=")) {
      args.ok &= ParseInteger("--memory-budget-mb", v, 0,
                              std::numeric_limits<int64_t>::max() >> 20,
                              &args.memory_budget_mb);
    } else if (const char* v = value_of("--shards=")) {
      args.ok &= ParseInteger("--shards", v, 0, 1024, &n);
      args.shards = static_cast<int>(n);
    } else if (const char* v = value_of("--shard-runner=")) {
      args.shard_runner = v;
    } else if (const char* v = value_of("--server=")) {
      std::string addr = v;
      size_t colon = addr.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 == addr.size()) {
        std::fprintf(stderr, "--server wants HOST:PORT, got %s\n", v);
        args.ok = false;
      } else {
        args.server_host = addr.substr(0, colon);
        args.server_port =
            static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1));
      }
    } else if (const char* v = value_of("--deadline=")) {
      args.deadline_seconds = std::atof(v);
    } else if (arg == "--ods") {
      args.assemble_ods = true;
    } else if (const char* v = value_of("--json=")) {
      args.json_path = v;
    } else if (const char* v = value_of("--csv=")) {
      args.csv_path = v;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      args.ok = false;
    } else {
      args.file = arg;
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (!args.ok) return 2;

  CsvOptions csv_options;
  csv_options.max_rows = args.max_rows;
  Result<Table> table = args.file.empty()
                            ? ParseCsv(kEmbeddedSample, csv_options)
                            : ReadCsvFile(args.file, csv_options);
  if (!table.ok()) {
    std::fprintf(stderr, "error: %s\n", table.status().ToString().c_str());
    return 1;
  }
  if (args.file.empty()) {
    std::printf("(no file given; profiling an embedded sample — pass a"
                " CSV path to profile your own data)\n");
  }
  std::printf("schema: %s\n", table->schema().ToString().c_str());
  std::printf("rows:   %lld\n\n",
              static_cast<long long>(table->num_rows()));

  EncodedTable enc = EncodeTable(*table);
  DiscoveryOptions options;
  options.epsilon = args.epsilon;
  options.kinds = args.kinds;
  options.afd_error = args.afd_error;
  options.top_k = args.top_k;
  options.validator = args.validator;
  options.bidirectional = args.bidirectional;
  options.num_threads = args.threads;
  options.partition_memory_budget_bytes = args.memory_budget_mb << 20;
  options.num_shards = args.shards;
  options.shard_runner_path = args.shard_runner;

  DiscoveryResult result;
  if (!args.server_host.empty()) {
    // Remote mode: the daemon runs the job; we get back the same
    // DiscoveryResult the local path would have produced.
    Result<DiscoveryResult> remote = serve::RunRemoteDiscovery(
        args.server_host, args.server_port, enc, options,
        args.deadline_seconds);
    if (!remote.ok()) {
      std::fprintf(stderr, "error: server %s:%u: %s\n",
                   args.server_host.c_str(),
                   static_cast<unsigned>(args.server_port),
                   remote.status().ToString().c_str());
      return 1;
    }
    result = std::move(*remote);
  } else {
    result = DiscoverOds(enc, options);
  }
  if (!result.shard_status.ok()) {
    // Reaching here means the fault survived the whole supervision
    // ladder (retries, backoff, fallback to the coordinator) — or
    // supervision was disabled. One human-readable line, nonzero exit.
    std::fprintf(stderr,
                 "error: shard validation failed unrecoverably after "
                 "%lld retries: %s\n",
                 static_cast<long long>(result.stats.shard_retries),
                 result.shard_status.ToString().c_str());
    return 1;
  }
  result.SortByInterestingness();

  std::printf("approximate order dependencies (%s, eps = %.0f%%):\n%s",
              ValidatorKindToString(options.validator),
              100.0 * options.epsilon, result.Summary(enc, 25).c_str());

  if (args.kinds_explicit) {
    std::printf("\nper kind:");
    bool first = true;
    for (int k = 0; k < kNumDependencyKinds; ++k) {
      const DependencyKind kind = static_cast<DependencyKind>(k);
      if (!options.kinds.Contains(kind)) continue;
      std::printf("%s %lld %s", first ? "" : ",",
                  static_cast<long long>(result.CountOfKind(kind)),
                  DependencyKindToString(kind));
      first = false;
    }
    std::printf("\n");
  }

  if (args.assemble_ods) {
    PartitionCache cache(&enc);
    auto ods = AssembleOds(enc, result, args.epsilon, &cache);
    std::printf("\ncomposed ODs (%zu):\n", ods.size());
    for (const auto& od : ods) {
      std::printf("  e=%.4f  %s\n", od.approx_factor,
                  od.ToString(enc).c_str());
    }
  }

  if (!args.json_path.empty()) {
    Status st = WriteStringToFile(args.json_path, ResultToJson(result, enc));
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    else std::printf("\nwrote %s\n", args.json_path.c_str());
  }
  if (!args.csv_path.empty()) {
    Status st = WriteStringToFile(args.csv_path, ResultToCsv(result, enc));
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    else std::printf("wrote %s\n", args.csv_path.c_str());
  }

  std::printf("\n%s", result.stats.ToString().c_str());
  if (args.shards > 0) {
    // Next to the codec summary above: what the supervisor absorbed —
    // all zeros on a healthy run.
    std::printf(
        "shard supervision: %lld retries, %lld respawns, %lld fallback "
        "shards, %lld footers lost\n",
        static_cast<long long>(result.stats.shard_retries),
        static_cast<long long>(result.stats.shard_respawns),
        static_cast<long long>(result.stats.shard_fallback_shards),
        static_cast<long long>(result.stats.shard_footers_missing));
  }
  if (result.timed_out) {
    std::printf("NOTE: discovery hit the time budget; results partial.\n");
  }
  return 0;
}
