// Microbenchmark of the partition hot paths: the CSR stripped product,
// the derivation planner against the structural "fixed" rule
// Π_X = Π_{X\{max}} · Π_{{max}} (written out as explicit products; the
// cache itself only plans), and validator
// throughput on generated tables. Output is human-readable on stdout
// and, with --json <path>, a machine-readable JSON blob (CI uploads it
// as BENCH_micro_partitions.json).
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
#include "partition/attribute_set.h"
#include "partition/partition_cache.h"
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

struct DerivationResult {
  std::string name;
  AttributeSet planner_base;
  double fixed_seconds = 0.0;
  double planner_seconds = 0.0;
  double speedup() const {
    return planner_seconds > 0.0 ? fixed_seconds / planner_seconds : 0.0;
  }
};

/// Planner vs fixed rule on a skewed-cardinality workload: two
/// near-distinct attributes (cheap, almost all singleton classes) and one
/// low-cardinality attribute at the highest index (expensive, covers
/// every row). Mid-discovery cache state: all pairs published. The fixed
/// rule must derive Π_{s1,s2,k} as Π_{s1,s2} · Π_k — scanning the
/// expensive single — while the planner starts from a published pair
/// that already contains k and extends it with a near-singleton single.
DerivationResult BenchDerivation(const EncodedTable& t, int64_t rows) {
  DerivationResult r;
  r.name = "skewed_cardinality";
  const AttributeSet target = AttributeSet::Of({0, 1, 2});

  PartitionCache cache(&t);
  for (uint64_t bits : {0b011u, 0b101u, 0b110u}) {
    cache.PublishCost(AttributeSet(bits));
  }
  DerivationPlan plan = cache.PlanDerivation(target);
  r.planner_base = plan.base;

  auto base_fixed = cache.Get(AttributeSet::Of({0, 1}));
  auto base_planned = cache.Get(plan.base);
  std::vector<std::shared_ptr<const StrippedPartition>> singles;
  for (int a = 0; a < 3; ++a) singles.push_back(cache.Get(AttributeSet().With(a)));
  PartitionScratch scratch(rows);

  r.fixed_seconds = TimePerRep(3, 0.3, [&] {
    StrippedPartition prod = base_fixed->Product(*singles[2], rows, &scratch);
    if (prod.rows_covered() < 0) std::abort();
  });
  r.planner_seconds = TimePerRep(3, 0.3, [&] {
    std::shared_ptr<const StrippedPartition> cur = base_planned;
    for (int a : plan.singles) {
      cur = std::make_shared<StrippedPartition>(
          cur->Product(*singles[static_cast<size_t>(a)], rows, &scratch));
    }
    if (cur->rows_covered() < 0) std::abort();
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

  // -- Derivation planner vs fixed rule ---------------------------------
  // s1/s2 near-distinct (cheap), k low-cardinality at the highest index
  // (the fixed rule's mandatory single).
  DerivationResult derivation = [&] {
    Table raw = GenerateTable(
        {{.name = "s1", .kind = ColumnKind::kUniformInt,
          .cardinality = 32 * rows},
         {.name = "s2", .kind = ColumnKind::kUniformInt,
          .cardinality = 32 * rows},
         {.name = "k", .kind = ColumnKind::kUniformInt, .cardinality = 4}},
        rows, 10);
    return BenchDerivation(EncodeTable(raw), rows);
  }();
  std::printf("\n%-18s %16s %14s %14s %9s\n", "derivation", "planner base",
              "fixed s/rep", "planner s/rep", "speedup");
  std::printf("%-18s %16s %14.5f %14.5f %8.2fx\n", derivation.name.c_str(),
              derivation.planner_base.ToString().c_str(),
              derivation.fixed_seconds, derivation.planner_seconds,
              derivation.speedup());

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
                 "  ],\n  \"derivation\": {\"case\": \"%s\", "
                 "\"planner_base\": \"%s\", \"fixed_seconds\": %.6f, "
                 "\"planner_seconds\": %.6f, \"speedup\": %.3f},\n",
                 derivation.name.c_str(),
                 derivation.planner_base.ToString().c_str(),
                 derivation.fixed_seconds, derivation.planner_seconds,
                 derivation.speedup());
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
