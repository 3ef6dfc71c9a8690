// Google-benchmark microbenchmarks of the validation kernels.
//
// Reproduces the complexity analysis of paper Sec. 3.2/3.3 at the level
// of a single candidate: Alg. 2 (LIS) is O(m log m) in the class size m,
// Alg. 1 (iterative) is O(m log m + eps * m^2). Also covers the
// supporting kernels (LNDS, inversion counting, partition product) and
// the ablation called out in DESIGN.md: Fenwick-based per-element
// inversion counting vs plain merge-sort total counting.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "algo/inversions.h"
#include "algo/lnds.h"
#include "data/encoder.h"
#include "gen/dataset_generator.h"
#include "gen/random.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/fd_validator.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace {

/// One big class (empty context) over a pair with ~8% violations: the
/// worst case for both validators and the setting of Figure 2.
EncodedTable MakePairTable(int64_t rows) {
  Table t = GenerateTable(
      {{.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 1 << 20},
       {.name = "b", .kind = ColumnKind::kMonotoneWithErrors,
        .base_column = 0, .violation_rate = 0.08}},
      rows, 42);
  return EncodeTable(t);
}

std::vector<int32_t> RandomSequence(int64_t n, int64_t cardinality,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(static_cast<int32_t>(rng.UniformInt(0, cardinality - 1)));
  }
  return out;
}

void BM_LndsLength(benchmark::State& state) {
  auto xs = RandomSequence(state.range(0), 1 << 20, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LndsLength(xs));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LndsLength)->Range(1 << 10, 1 << 17)->Complexity();

void BM_LndsIndices(benchmark::State& state) {
  auto xs = RandomSequence(state.range(0), 1 << 20, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LndsIndices(xs));
  }
}
BENCHMARK(BM_LndsIndices)->Range(1 << 10, 1 << 17);

// The two LNDS kernels of the optimal validator on one 60K-element
// projection, without a budget: the patience search (LndsRemovals) and
// the successor-set tails (LndsRemovalsBySuccessor). Arguments: the
// projection's domain (15, 3000 or 60000), the input (0: uniform, so most
// elements are removed; 1: sorted with 5% of the elements redrawn) and the
// kernel (0: patience, 1: successor).
void BM_LndsRemovals(benchmark::State& state) {
  const int32_t domain = static_cast<int32_t>(state.range(0));
  std::vector<int32_t> xs = RandomSequence(60000, domain, 15);
  if (state.range(1) == 1) {
    std::sort(xs.begin(), xs.end());
    Rng rng(16);
    for (int32_t& x : xs) {
      if (rng.Bernoulli(0.05)) {
        x = static_cast<int32_t>(rng.UniformInt(0, domain - 1));
      }
    }
  }
  const bool successor = state.range(2) == 1;
  constexpr int64_t kNoBudget = std::numeric_limits<int64_t>::max();
  std::vector<int32_t> tails;
  std::vector<int32_t> counts(static_cast<size_t>(domain), 0);
  std::vector<uint64_t> bits;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        successor ? LndsRemovalsBySuccessor(xs, domain, kNoBudget, counts, bits)
                  : LndsRemovals(xs, kNoBudget, tails));
  }
}
BENCHMARK(BM_LndsRemovals)
    ->ArgNames({"domain", "near_sorted", "successor"})
    ->ArgsProduct({{15, 3000, 60000}, {0, 1}, {0, 1}});

void BM_CountInversionsMergeSort(benchmark::State& state) {
  auto xs = RandomSequence(state.range(0), 1 << 20, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountInversions(xs));
  }
}
BENCHMARK(BM_CountInversionsMergeSort)->Range(1 << 10, 1 << 17);

// Ablation: Fenwick-based per-element counting costs ~2x the merge-sort
// total count but yields the per-tuple counts Alg. 1 needs.
void BM_PerElementInversionsFenwick(benchmark::State& state) {
  auto xs = RandomSequence(state.range(0), 1 << 20, 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PerElementInversions(xs));
  }
}
BENCHMARK(BM_PerElementInversionsFenwick)->Range(1 << 10, 1 << 17);

void BM_ValidateAocOptimal(benchmark::State& state) {
  EncodedTable t = MakePairTable(state.range(0));
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValidateAocOptimal(t, whole, 0, 1, 0.10, t.num_rows()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ValidateAocOptimal)->Range(1 << 10, 1 << 16)->Complexity();

// The shape of a level-2 candidate whose context is the whole relation:
// one 60K-row class, low-cardinality A, high-cardinality B independent of
// A, so the candidate is invalid at epsilon 0.1. The class sort dominates;
// the LNDS pass stops inside the class once the threshold is crossed.
void BM_ValidateAocOptimalWholeRelation(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 16},
       {.name = "b", .kind = ColumnKind::kUniformInt, .cardinality = 1 << 16}},
      60000, 11);
  EncodedTable t = EncodeTable(raw);
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  ValidatorScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateAocOptimal(
        t, whole, 0, 1, 0.10, t.num_rows(), {}, &scratch));
  }
}
BENCHMARK(BM_ValidateAocOptimalWholeRelation);

// Many small classes (60K rows over 2000 context values): the candidate
// is invalid and early exit fires after a prefix of the classes, so only
// the classes reached are ever sorted.
void BM_ValidateAocOptimalManyClasses(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 2000},
       {.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 64},
       {.name = "b", .kind = ColumnKind::kUniformInt, .cardinality = 1 << 16}},
      60000, 12);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  ValidatorScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateAocOptimal(
        t, partition, 1, 2, 0.10, t.num_rows(), {}, &scratch));
  }
}
BENCHMARK(BM_ValidateAocOptimalManyClasses);

// About 20K classes of 2 or 3 rows (50K rows): the shape of deep-lattice
// contexts, where tiny classes are most of what is validated. Epsilon 0.5
// keeps early exit from firing, so every class is visited.
void BM_ValidateAocOptimalTinyClasses(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 1 << 16},
       {.name = "b", .kind = ColumnKind::kUniformInt, .cardinality = 1 << 16}},
      50000, 13);
  EncodedTable t = EncodeTable(raw);
  std::vector<std::vector<int32_t>> classes;
  for (int32_t r = 0; r < 50000;) {
    const int32_t m = classes.size() % 2 == 0 ? 2 : 3;
    classes.emplace_back();
    for (int32_t i = 0; i < m; ++i) classes.back().push_back(r++);
  }
  auto partition = StrippedPartition::FromClasses(std::move(classes));
  ValidatorScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateAocOptimal(
        t, partition, 0, 1, 0.50, t.num_rows(), {}, &scratch));
  }
}
BENCHMARK(BM_ValidateAocOptimalTinyClasses);

// An invalid whole relation: one 60K-row class whose B follows A except
// on 80% of the rows, so about 80% of the rows must go at epsilon 0.1 and
// the large-class sample rejects it before the full sort.
void BM_ValidateAocOptimalInvalidWholeRelation(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 1 << 20},
       {.name = "b", .kind = ColumnKind::kMonotoneWithErrors,
        .base_column = 0, .violation_rate = 0.8}},
      60000, 14);
  EncodedTable t = EncodeTable(raw);
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  ValidatorScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateAocOptimal(
        t, whole, 0, 1, 0.10, t.num_rows(), {}, &scratch));
  }
}
BENCHMARK(BM_ValidateAocOptimalInvalidWholeRelation);

// A table key paired with a low-cardinality column (B follows the key
// with noise, about 20 values) under a context of 1000 values (classes of
// about 60 rows), in both argument orders: 0 gives the key first, 1 the
// low-cardinality column first. The OC kernel sorts by the key either way
// and radix-sorts its field alone.
void BM_ValidateAocOptimalKeyPrimary(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 1000},
       {.name = "key", .kind = ColumnKind::kSequentialKey},
       {.name = "low", .kind = ColumnKind::kNoisyLinear, .base_column = 1,
        .scale = 16.0 / 60000.0, .noise_stddev = 1.0}},
      60000, 17);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  const bool key_first = state.range(0) == 0;
  const int a = key_first ? 1 : 2;
  const int b = key_first ? 2 : 1;
  ValidatorScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateAocOptimal(
        t, partition, a, b, 0.10, t.num_rows(), {}, &scratch));
  }
}
BENCHMARK(BM_ValidateAocOptimalKeyPrimary)
    ->ArgName("low_first")
    ->Arg(0)
    ->Arg(1);

// k OCs sharing a shuffled table key as sort attribute over a context of
// 1000 values (classes of about 60 rows): validated as one group
// (singles 0), which sorts each class once, or as k single validations
// (singles 1). The members pair the key with four columns, in both
// polarities: noisy followers over about 16 and 1000 values, a uniform
// column and a monotone one with 10% errors.
void BM_ValidateAocOptimalGroup(benchmark::State& state) {
  constexpr int64_t kRows = 60000;
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 1000},
       {.name = "seq", .kind = ColumnKind::kSequentialKey},
       {.name = "key", .kind = ColumnKind::kDerivedPermuted, .base_column = 1},
       {.name = "low", .kind = ColumnKind::kNoisyLinear, .base_column = 2,
        .scale = 16.0 / kRows, .noise_stddev = 1.0},
       {.name = "mid", .kind = ColumnKind::kNoisyLinear, .base_column = 2,
        .scale = 1000.0 / kRows, .noise_stddev = 20.0},
       {.name = "rnd", .kind = ColumnKind::kUniformInt, .cardinality = 4096},
       {.name = "mono", .kind = ColumnKind::kMonotoneWithErrors,
        .base_column = 2, .violation_rate = 0.1}},
      kRows, 18);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  const auto k = static_cast<size_t>(state.range(0));
  const bool singles = state.range(1) == 1;
  std::vector<OcGroupMember> members;
  for (int b = 3; b <= 6; ++b) {
    for (bool opposite : {false, true}) members.push_back({2, b, opposite});
  }
  members.resize(k);
  std::vector<ValidationOutcome> out(k);
  ValidatorScratch scratch;
  for (auto _ : state) {
    if (singles) {
      for (const OcGroupMember& m : members) {
        benchmark::DoNotOptimize(ValidateAocOptimal(
            t, partition, m.a, m.b, 0.10, kRows,
            {.opposite_polarity = m.opposite}, &scratch));
      }
    } else {
      ValidateAocOptimalGroup(t, partition, members, 0.10, kRows,
                              /*early_exit=*/true, &scratch, out);
      benchmark::DoNotOptimize(out.data());
    }
  }
}
BENCHMARK(BM_ValidateAocOptimalGroup)
    ->ArgNames({"k", "singles"})
    ->ArgsProduct({{1, 4, 8}, {0, 1}});

void BM_ValidateAocIterative(benchmark::State& state) {
  EncodedTable t = MakePairTable(state.range(0));
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValidateAocIterative(t, whole, 0, 1, 0.10, t.num_rows()));
  }
  state.SetComplexityN(state.range(0));
}
// Quadratic: cap the range two steps earlier than the optimal validator.
BENCHMARK(BM_ValidateAocIterative)->Range(1 << 10, 1 << 14)->Complexity();

void BM_ValidateOcExact(benchmark::State& state) {
  EncodedTable t = MakePairTable(state.range(0));
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateOcExact(t, whole, 0, 1));
  }
}
BENCHMARK(BM_ValidateOcExact)->Range(1 << 10, 1 << 16);

void BM_ValidateOfdApprox(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 64},
       {.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 16}},
      state.range(0), 5);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValidateOfdApprox(t, partition, 1, 0.10, t.num_rows()));
  }
}
BENCHMARK(BM_ValidateOfdApprox)->Range(1 << 10, 1 << 17);

// The exact check of both target kinds it serves (OFD X: [] -> A and FD
// X -> A). The target is functionally determined by the context, so the
// holding case is measured: the constancy test must walk every class to
// the end instead of bailing at the first split.
void BM_ValidateOfdExact(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 64},
       {.name = "a", .kind = ColumnKind::kDerivedPermuted,
        .cardinality = 64, .base_column = 0}},
      state.range(0), 5);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValidateOfdExact(t, partition, 1));
  }
}
BENCHMARK(BM_ValidateOfdExact)->Range(1 << 10, 1 << 17);

// The g1 frequency pass over every context class: one histogram per
// class, violations = |c|^2 - sum cnt^2. Same workload shape as the
// OFD row so the two approximate target validators are comparable.
void BM_ValidateAfdG1(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "ctx", .kind = ColumnKind::kUniformInt, .cardinality = 64},
       {.name = "a", .kind = ColumnKind::kUniformInt, .cardinality = 16}},
      state.range(0), 5);
  EncodedTable t = EncodeTable(raw);
  auto partition = StrippedPartition::FromColumn(t.column(0));
  ValidatorOptions options;
  options.early_exit = false;  // measure the full pass, not the bail-out
  ValidatorScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValidateAfdG1(t, partition, 1, 0.10, t.num_rows(), options,
                      &scratch));
  }
}
BENCHMARK(BM_ValidateAfdG1)->Range(1 << 10, 1 << 17);

void BM_PartitionProduct(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "x", .kind = ColumnKind::kUniformInt, .cardinality = 128},
       {.name = "y", .kind = ColumnKind::kUniformInt, .cardinality = 128}},
      state.range(0), 6);
  EncodedTable t = EncodeTable(raw);
  auto px = StrippedPartition::FromColumn(t.column(0));
  auto py = StrippedPartition::FromColumn(t.column(1));
  PartitionScratch scratch(t.num_rows());
  for (auto _ : state) {
    benchmark::DoNotOptimize(px.Product(py, t.num_rows(), &scratch));
  }
}
BENCHMARK(BM_PartitionProduct)->Range(1 << 10, 1 << 17);

void BM_EncodeColumn(benchmark::State& state) {
  Table raw = GenerateTable(
      {{.name = "v", .kind = ColumnKind::kUniformInt,
        .cardinality = 1 << 16}},
      state.range(0), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeColumn(raw.column(0)));
  }
}
BENCHMARK(BM_EncodeColumn)->Range(1 << 10, 1 << 17);

}  // namespace
}  // namespace aod

BENCHMARK_MAIN();
