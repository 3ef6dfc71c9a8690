// Microbenchmark of the partition hot paths: the CSR stripped product,
// the product kernel's two entry points on the same inputs (the
// rank-column probe the cache runs against the generic Product(other),
// which labels Π_other's rows first; the run aborts if their results
// differ), and validator throughput on generated tables. Output is
// human-readable on stdout and, with --json <path>, a machine-readable
// JSON blob (CI uploads it as BENCH_micro_partitions.json).
//
// Defaults target a 1M-row table; AOD_BENCH_SCALE scales rows like every
// other harness (CI smoke-runs at a fraction of that).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "data/encoder.h"
#include "gen/dataset_generator.h"
#include "od/aoc_lis_validator.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"
#include "od/validator_scratch.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace bench {
namespace {

/// Runs `fn` until >= min_reps and >= min_seconds; returns seconds/rep.
template <typename Fn>
double TimePerRep(int min_reps, double min_seconds, Fn&& fn) {
  Stopwatch sw;
  int reps = 0;
  do {
    fn();
    ++reps;
  } while (reps < min_reps || sw.ElapsedSeconds() < min_seconds);
  return sw.ElapsedSeconds() / static_cast<double>(reps);
}

struct ProductResult {
  std::string name;
  int64_t out_classes = 0;
  double csr_seconds = 0.0;
};

ProductResult BenchProduct(const char* name, const EncodedTable& t,
                           int64_t rows) {
  ProductResult r;
  r.name = name;
  auto px = StrippedPartition::FromColumn(t.column(0));
  auto py = StrippedPartition::FromColumn(t.column(1));
  PartitionScratch scratch(rows);
  r.out_classes = px.Product(py, rows, &scratch).num_classes();

  r.csr_seconds = TimePerRep(3, 0.3, [&] {
    StrippedPartition prod = px.Product(py, rows, &scratch);
    if (prod.rows_covered() < 0) std::abort();  // keep the result alive
  });
  return r;
}

struct ValidationResult {
  std::string name;
  double seconds = 0.0;  // per validation call over the whole partition
};

struct KernelResult {
  std::string name;
  int64_t base_rows = 0;   // rows covered by the base partition
  int64_t other_rows = 0;  // rows covered by Π_other
  double generic_seconds = 0.0;
  double probe_seconds = 0.0;
  double speedup() const {
    return probe_seconds > 0.0 ? generic_seconds / probe_seconds : 0.0;
  }
};

/// Π_base · Π_k through both entry points of the one product kernel, on a
/// skewed-cardinality table: the base is a near-distinct attribute
/// (almost all singletons, few covered rows) and k a low-cardinality
/// attribute covering every row. The probe reads only the base's rows;
/// Product(other) also labels and resets every row of Π_k. Aborts unless
/// both produce the same partition.
KernelResult BenchKernel(const EncodedTable& t, int64_t rows) {
  KernelResult r;
  r.name = "skewed_cardinality";
  const auto base = StrippedPartition::FromColumn(t.column(0));
  const auto other = StrippedPartition::FromColumn(t.column(1));
  r.base_rows = base.rows_covered();
  r.other_rows = other.rows_covered();
  PartitionScratch scratch(rows);
  const StrippedPartition generic = base.Product(other, rows, &scratch);
  const StrippedPartition probe = base.ProductWithColumn(t.column(1), &scratch);
  if (generic.row_ids() != probe.row_ids() ||
      generic.class_offsets() != probe.class_offsets()) {
    std::fprintf(stderr, "probe and generic product differ\n");
    std::abort();
  }
  r.generic_seconds = TimePerRep(3, 0.3, [&] {
    StrippedPartition prod = base.Product(other, rows, &scratch);
    if (prod.rows_covered() < 0) std::abort();
  });
  r.probe_seconds = TimePerRep(3, 0.3, [&] {
    StrippedPartition prod = base.ProductWithColumn(t.column(1), &scratch);
    if (prod.rows_covered() < 0) std::abort();
  });
  return r;
}

}  // namespace
}  // namespace bench
}  // namespace aod

int main(int argc, char** argv) {
  using namespace aod;
  using namespace aod::bench;

  const char* json_path = JsonPathArg(argc, argv);
  int64_t base_rows = 1000000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--rows") == 0) base_rows = std::atoll(argv[i + 1]);
  }
  const int64_t rows = ScaledRows(base_rows);

  PrintHeaderLine("micro_partitions: CSR product and validator throughput");
  std::printf("rows: %lld (base %lld x AOD_BENCH_SCALE)\n",
              static_cast<long long>(rows), static_cast<long long>(base_rows));

  // -- Partition product -------------------------------------------------
  // mid: dense classes (128x128 grid, large surviving buckets);
  // fine: 4096x4096 (many small buckets);
  // singleton: high-cardinality product output is almost all singletons.
  std::vector<ProductResult> products;
  {
    Table raw = GenerateTable(
        {{.name = "x", .kind = ColumnKind::kUniformInt, .cardinality = 128},
         {.name = "y", .kind = ColumnKind::kUniformInt, .cardinality = 128}},
        rows, 6);
    products.push_back(BenchProduct("mid_cardinality", EncodeTable(raw), rows));
  }
  {
    Table raw = GenerateTable(
        {{.name = "x", .kind = ColumnKind::kUniformInt, .cardinality = 4096},
         {.name = "y", .kind = ColumnKind::kUniformInt, .cardinality = 4096}},
        rows, 7);
    products.push_back(BenchProduct("fine_cardinality", EncodeTable(raw),
                                    rows));
  }
  {
    Table raw = GenerateTable(
        {{.name = "x", .kind = ColumnKind::kUniformInt,
          .cardinality = rows / 2 < 2 ? 2 : rows / 2},
         {.name = "y", .kind = ColumnKind::kUniformInt, .cardinality = 64}},
        rows, 8);
    products.push_back(BenchProduct("singleton_heavy", EncodeTable(raw),
                                    rows));
  }

  std::printf("\n%-18s %12s %12s\n", "product", "classes", "csr s/rep");
  for (const ProductResult& r : products) {
    std::printf("%-18s %12lld %12.5f\n", r.name.c_str(),
                static_cast<long long>(r.out_classes), r.csr_seconds);
  }

  // -- Probe kernel vs generic Product(other) ---------------------------
  // s near-distinct (a cheap base), k low-cardinality (covers every row).
  KernelResult kernel = [&] {
    Table raw = GenerateTable(
        {{.name = "s", .kind = ColumnKind::kUniformInt,
          .cardinality = 32 * rows},
         {.name = "k", .kind = ColumnKind::kUniformInt, .cardinality = 4}},
        rows, 10);
    return BenchKernel(EncodeTable(raw), rows);
  }();
  std::printf("\n%-18s %10s %10s %14s %14s %9s\n", "kernel", "base rows",
              "other rows", "generic s/rep", "probe s/rep", "speedup");
  std::printf("%-18s %10lld %10lld %14.5f %14.5f %8.2fx\n",
              kernel.name.c_str(), static_cast<long long>(kernel.base_rows),
              static_cast<long long>(kernel.other_rows),
              kernel.generic_seconds, kernel.probe_seconds, kernel.speedup());

  // -- Validator throughput on a realistic context ----------------------
  // ctx (cardinality 256) is the context partition; a ~ b is an OC with a
  // known violation rate, so the exact validator exercises its early exit
  // and the LIS validator does full work.
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 256},
       {.name = "a", .kind = ColumnKind::kUniformInt,
        .cardinality = 1 << 20},
       {.name = "b", .kind = ColumnKind::kMonotoneWithErrors,
        .base_column = 1, .violation_rate = 0.05},
       {.name = "c", .kind = ColumnKind::kUniformInt, .cardinality = 16}},
      rows, 9);
  EncodedTable vt = EncodeTable(raw);
  auto ctx = StrippedPartition::FromColumn(vt.column(0));
  ValidatorScratch vscratch;

  std::vector<ValidationResult> validations;
  validations.push_back(
      {"oc_exact", TimePerRep(3, 0.3, [&] {
         bool ok = ValidateOcExact(vt, ctx, 1, 2, false, &vscratch);
         if (ok && vt.num_rows() < 0) std::abort();
       })});
  validations.push_back(
      {"aoc_optimal_e10", TimePerRep(3, 0.3, [&] {
         ValidationOutcome out = ValidateAocOptimal(vt, ctx, 1, 2, 0.10,
                                                    vt.num_rows(), {},
                                                    &vscratch);
         if (out.removal_size < 0) std::abort();
       })});
  validations.push_back(
      {"ofd_approx_e10", TimePerRep(3, 0.3, [&] {
         ValidationOutcome out = ValidateOfdApprox(vt, ctx, 3, 0.10,
                                                   vt.num_rows(), {},
                                                   &vscratch);
         if (out.removal_size < 0) std::abort();
       })});

  std::printf("\n%-18s %12s %14s\n", "validator", "s/call", "Mrows/s");
  for (const ValidationResult& v : validations) {
    double mrows = v.seconds > 0.0
                       ? static_cast<double>(ctx.rows_covered()) /
                             v.seconds / 1e6
                       : 0.0;
    std::printf("%-18s %12.5f %14.2f\n", v.name.c_str(), v.seconds, mrows);
  }

  if (json_path != nullptr) {
    FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"micro_partitions\",\n");
    std::fprintf(f, "  \"rows\": %lld,\n", static_cast<long long>(rows));
    std::fprintf(f, "  \"products\": [\n");
    for (size_t i = 0; i < products.size(); ++i) {
      const ProductResult& r = products[i];
      std::fprintf(f,
                   "    {\"case\": \"%s\", \"out_classes\": %lld, "
                   "\"csr_seconds\": %.6f}%s\n",
                   r.name.c_str(), static_cast<long long>(r.out_classes),
                   r.csr_seconds, i + 1 < products.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"kernel\": {\"case\": \"%s\", "
                 "\"base_rows\": %lld, \"other_rows\": %lld, "
                 "\"generic_seconds\": %.6f, \"probe_seconds\": %.6f, "
                 "\"speedup\": %.3f},\n",
                 kernel.name.c_str(), static_cast<long long>(kernel.base_rows),
                 static_cast<long long>(kernel.other_rows),
                 kernel.generic_seconds, kernel.probe_seconds,
                 kernel.speedup());
    std::fprintf(f, "  \"validations\": [\n");
    for (size_t i = 0; i < validations.size(); ++i) {
      const ValidationResult& v = validations[i];
      std::fprintf(f, "    {\"case\": \"%s\", \"seconds\": %.6f}%s\n",
                   v.name.c_str(), v.seconds,
                   i + 1 < validations.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nJSON written to %s\n", json_path);
  }
  return 0;
}
