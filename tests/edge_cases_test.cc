// Edge-case and adversarial-input coverage across the whole stack:
// degenerate tables, ties and duplicates everywhere, null-heavy columns,
// non-finite numeric text, boundary attribute counts, crafted lattices
// exercising individual pruning rules, and golden regression counts for
// the dataset simulators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"
#include "data/csv_parser.h"
#include "data/encoder.h"
#include "gen/dataset_generator.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"
#include "gen/random.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/discovery.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"
#include "partition/partition_cache.h"
#include "test_util.h"

namespace aod {
namespace {

// ------------------------------------------------ degenerate relations --

TEST(DegenerateTableTest, TwoRowTables) {
  // Every OC/OFD behaviour on the smallest non-trivial relation.
  EncodedTable swapped = EncodedTableFromInts({"a", "b"}, {{1, 2}, {2, 1}});
  auto whole = StrippedPartition::WholeRelation(2);
  EXPECT_FALSE(ValidateOcExact(swapped, whole, 0, 1));
  EXPECT_EQ(ValidateAocOptimal(swapped, whole, 0, 1, 1.0, 2).removal_size,
            1);
  EXPECT_EQ(
      ValidateAocIterative(swapped, whole, 0, 1, 1.0, 2).removal_size, 1);
  EXPECT_TRUE(ValidateOcExact(swapped, whole, 0, 1, /*opposite=*/true));

  EncodedTable ordered = EncodedTableFromInts({"a", "b"}, {{1, 2}, {1, 2}});
  EXPECT_TRUE(ValidateOcExact(ordered, whole, 0, 1));
}

TEST(DegenerateTableTest, AllValuesIdentical) {
  EncodedTable t =
      EncodedTableFromInts({"a", "b"}, {{5, 5, 5, 5}, {7, 7, 7, 7}});
  auto whole = StrippedPartition::WholeRelation(4);
  EXPECT_TRUE(ValidateOcExact(t, whole, 0, 1));
  EXPECT_TRUE(ValidateOfdExact(t, whole, 0));
  EXPECT_TRUE(ValidateOfdExact(t, whole, 1));
  DiscoveryResult result = DiscoverOds(t, {});
  // Both columns are constants: two level-1 OFDs and nothing else.
  EXPECT_EQ(result.CountOfKind(DependencyKind::kOfd), 2);
  EXPECT_EQ(result.CountOfKind(DependencyKind::kOc), 0);
}

TEST(DegenerateTableTest, SingleColumnTable) {
  EncodedTable t = EncodedTableFromInts({"only"}, {{3, 1, 2}});
  DiscoveryResult result = DiscoverOds(t, {});
  EXPECT_TRUE(result.dependencies.empty());  // not constant
}

TEST(DegenerateTableTest, MaximallyTiedPair) {
  // a constant, b a key: OC holds trivially in one direction of
  // reasoning but is *pruned*, not reported, because a is constant.
  EncodedTable t = EncodedTableFromInts(
      {"konst", "key"}, {{1, 1, 1, 1}, {4, 3, 2, 1}});
  auto whole = StrippedPartition::WholeRelation(4);
  EXPECT_TRUE(ValidateOcExact(t, whole, 0, 1));
  DiscoveryResult result = DiscoverOds(t, {});
  EXPECT_EQ(result.CountOfKind(DependencyKind::kOc), 0);
  ASSERT_EQ(result.CountOfKind(DependencyKind::kOfd), 1);  // {}: [] -> konst
}

// -------------------------------------------------------------- nulls --

TEST(NullHandlingTest, NullsActAsSmallestValue) {
  Column a("a", DataType::kInt64);
  Column b("b", DataType::kInt64);
  // Row 0: (null, 1); row 1: (5, 2); row 2: (7, 3).
  a.AppendNull();
  a.AppendInt(5);
  a.AppendInt(7);
  b.AppendInt(1);
  b.AppendInt(2);
  b.AppendInt(3);
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Table raw(schema);
  raw.AppendRow({Value::Null(), Value(int64_t{1})});
  raw.AppendRow({Value(int64_t{5}), Value(int64_t{2})});
  raw.AppendRow({Value(int64_t{7}), Value(int64_t{3})});
  EncodedTable t = EncodeTable(raw);
  auto whole = StrippedPartition::WholeRelation(3);
  // With nulls-first semantics the pair is perfectly ordered.
  EXPECT_TRUE(ValidateOcExact(t, whole, 0, 1));
}

TEST(NullHandlingTest, NullGroupFormsOneEquivalenceClass) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}});
  Table raw(schema);
  raw.AppendRow({Value::Null(), Value(int64_t{1})});
  raw.AppendRow({Value::Null(), Value(int64_t{1})});
  raw.AppendRow({Value(int64_t{3}), Value(int64_t{9})});
  EncodedTable t = EncodeTable(raw);
  auto p = StrippedPartition::FromColumn(t.column(0));
  ASSERT_EQ(p.num_classes(), 1);  // the two null rows
  EXPECT_TRUE(ValidateOfdExact(t, p, 1));  // b constant among nulls
}

TEST(NullHandlingTest, NonFiniteNumericTextRejected) {
  EXPECT_FALSE(ParseDouble("nan").has_value());
  EXPECT_FALSE(ParseDouble("inf").has_value());
  EXPECT_FALSE(ParseDouble("-inf").has_value());
  EXPECT_FALSE(ParseDouble("NaN").has_value());
  // Via CSV they become nulls rather than poisoning the sort order.
  auto t = ParseCsv("x\n1.5\nnan\n2.5\n").value();
  EXPECT_EQ(t.schema().field(0).type, DataType::kDouble);
  EXPECT_TRUE(t.GetValue(1, 0).is_null());
}

// -------------------------------------------- boundary attribute count --

TEST(BoundaryTest, SixtyFourAttributeSets) {
  AttributeSet full = AttributeSet::FullSet(64);
  EXPECT_EQ(full.size(), 64);
  EXPECT_TRUE(full.Contains(63));
  AttributeSet without = full.Without(63);
  EXPECT_EQ(without.size(), 63);
  EXPECT_EQ(full.Difference(without), AttributeSet::Of({63}));
  // Iteration order still ascending at the boundary.
  std::vector<int> attrs = AttributeSet::Of({0, 31, 32, 63}).ToVector();
  EXPECT_EQ(attrs, (std::vector<int>{0, 31, 32, 63}));
}

TEST(BoundaryTest, DiscoveryAtMaxSupportedWidthLevelCapped) {
  // 64 attributes is the hard cap; run level-capped discovery there.
  std::vector<std::string> names;
  std::vector<std::vector<int64_t>> cols;
  Rng rng(64);
  for (int c = 0; c < 64; ++c) {
    names.push_back("c" + std::to_string(c));
    std::vector<int64_t> col;
    for (int r = 0; r < 30; ++r) col.push_back(rng.UniformInt(0, 3));
    cols.push_back(std::move(col));
  }
  EncodedTable t = EncodedTableFromInts(names, cols);
  DiscoveryOptions options;
  options.max_level = 2;
  options.epsilon = 0.05;
  DiscoveryResult result = DiscoverOds(t, options);
  EXPECT_LE(result.stats.levels_processed, 2);
  EXPECT_FALSE(result.timed_out);
}

// --------------------------------------------- crafted pruning lattices --

TEST(PruningTest, ExactChainStopsLatticeEarly) {
  // c = f(b), b = f(a) as exact monotone chains: everything interesting
  // resolves at level 2 and the lattice must not climb past level 3.
  EncodedTable t = EncodedTableFromInts(
      {"a", "b", "c"},
      {{0, 1, 2, 3, 4, 5, 6, 7}, {0, 0, 1, 1, 2, 2, 3, 3},
       {0, 0, 0, 0, 1, 1, 1, 1}});
  DiscoveryOptions options;
  options.validator = ValidatorKind::kExact;
  DiscoveryResult result = DiscoverOds(t, options);
  EXPECT_LE(result.stats.levels_processed, 3);
  // a ~ b, a ~ c, b ~ c all hold with empty context.
  ASSERT_GT(result.stats.levels.size(), 2u);
  EXPECT_EQ(
      result.stats.levels[2].found[static_cast<int>(DependencyKind::kOc)], 3);
}

TEST(PruningTest, OfdMinimalityPruning) {
  // {a}: [] -> c holds. Then {a, b}: [] -> c must not be reported (TANE
  // minimality), even though it also "holds".
  EncodedTable t = EncodedTableFromInts(
      {"a", "b", "c"},
      {{0, 0, 1, 1, 2, 2}, {0, 1, 0, 1, 0, 1}, {7, 7, 8, 8, 9, 9}});
  DiscoveryResult result = DiscoverOds(t, {});
  bool minimal_found = false;
  for (const DiscoveredDependency* d : result.Ofds()) {
    if (d->a == 2) {
      EXPECT_EQ(d->context, AttributeSet::Of({0}))
          << "non-minimal OFD " << d->Ofd().ToString();
      if (d->context == AttributeSet::Of({0})) minimal_found = true;
    }
  }
  EXPECT_TRUE(minimal_found);
}

TEST(PruningTest, TrivialOcViaConstancyIsPruned) {
  // a and c determine each other ({c}: [] -> a and {a}: [] -> c both
  // hold), which empties C_c+({a,c}). At node {a,b,c} the candidate-set
  // rule must then prune the pairs (a,b) and (b,c) — their OCs are
  // redundant with smaller contexts — without touching the data.
  EncodedTable t = EncodedTableFromInts(
      {"a", "b", "c"},
      {{0, 0, 1, 1, 2, 2}, {1, 0, 1, 0, 2, 2}, {9, 9, 4, 4, 7, 7}});
  DiscoveryOptions options;
  options.epsilon = 0.0;
  DiscoveryResult result = DiscoverOds(t, options);
  EXPECT_EQ(result.stats.oc_candidates_pruned, 2);
  // Nothing with a or c as a side in a nonempty context may be reported:
  // all such candidates are redundant here.
  for (const DiscoveredDependency* d : result.Ocs()) {
    EXPECT_TRUE(d->context.empty()) << d->Oc().ToString();
  }
}

// ----------------------------------------- iterative-vs-optimal corpus --

TEST(MotifTest, PaperMotifGreedyGapIsExactlyOneTuplePerBlock) {
  // The kClusteredErrors motif block is the paper's Example 3.1 pattern:
  // optimal removes 4 per block, greedy 5 — verify on one pure block.
  std::vector<int64_t> base{0, 1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int64_t> motif{6, 8, 0, 14, 2, 17, 4, 10, 16};
  EncodedTable t = EncodedTableFromInts({"a", "b"}, {base, motif});
  auto whole = StrippedPartition::WholeRelation(9);
  ValidatorOptions full;
  full.early_exit = false;
  EXPECT_EQ(ValidateAocOptimal(t, whole, 0, 1, 1.0, 9, full).removal_size,
            4);
  EXPECT_EQ(
      ValidateAocIterative(t, whole, 0, 1, 1.0, 9, full).removal_size, 5);
}

TEST(MotifTest, ClusteredErrorsFactorsMatchTheFormula) {
  // With a distinct-valued base, e_true = (4*motif + flip)/9 and
  // e_greedy = (5*motif + flip)/9.
  Table raw = GenerateTable(
      {{.name = "base", .kind = ColumnKind::kSequentialKey},
       {.name = "derived", .kind = ColumnKind::kClusteredErrors,
        .base_column = 0, .flip_rate = 0.3, .motif_rate = 0.2}},
      18000, 11);
  EncodedTable t = EncodeTable(raw);
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  ValidatorOptions full;
  full.early_exit = false;
  double opt = ValidateAocOptimal(t, whole, 0, 1, 1.0, t.num_rows(), full)
                   .approx_factor;
  double greedy =
      ValidateAocIterative(t, whole, 0, 1, 1.0, t.num_rows(), full)
          .approx_factor;
  EXPECT_NEAR(opt, (4 * 0.2 + 0.3) / 9.0, 0.01);
  EXPECT_NEAR(greedy, (5 * 0.2 + 0.3) / 9.0, 0.01);
}

// ------------------------------------------------- epsilon boundaries --

TEST(EpsilonBoundaryTest, EpsilonOneAcceptsEverything) {
  EncodedTable t = testing_util::RandomEncodedTable(40, 3, 4, 55);
  auto whole = StrippedPartition::WholeRelation(40);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      if (a == b) continue;
      EXPECT_TRUE(ValidateAocOptimal(t, whole, a, b, 1.0, 40).valid);
      EXPECT_TRUE(ValidateAocIterative(t, whole, a, b, 1.0, 40).valid);
    }
  }
}

TEST(EpsilonBoundaryTest, ExactBoundaryIsInclusive) {
  // removal = 2 of 8 rows: factor 0.25 must be valid at eps = 0.25.
  EncodedTable t = EncodedTableFromInts(
      {"a", "b"},
      {{0, 1, 2, 3, 4, 5, 6, 7}, {7, 1, 2, 3, 4, 5, 6, 0}});
  auto whole = StrippedPartition::WholeRelation(8);
  ValidationOutcome out = ValidateAocOptimal(t, whole, 0, 1, 0.25, 8);
  ASSERT_EQ(out.removal_size, 2);
  EXPECT_TRUE(out.valid);
  EXPECT_FALSE(ValidateAocOptimal(t, whole, 0, 1, 0.24, 8).valid);
}

// ------------------------------------------------ simulator regression --

TEST(GoldenRegressionTest, FlightDiscoveryCountsArePinned) {
  // Deterministic generators + deterministic discovery: pin the counts
  // so accidental behaviour changes surface as test diffs.
  Table raw = GenerateFlightTable(3000, 8, 42);
  EncodedTable t = EncodeTable(raw);
  DiscoveryOptions options;
  options.epsilon = 0.10;
  DiscoveryResult result = DiscoverOds(t, options);
  DiscoveryResult again = DiscoverOds(t, options);
  const auto r_ocs = result.Ocs(), a_ocs = again.Ocs();
  EXPECT_EQ(r_ocs.size(), a_ocs.size());
  EXPECT_EQ(result.CountOfKind(DependencyKind::kOfd),
            again.CountOfKind(DependencyKind::kOfd));
  for (size_t i = 0; i < r_ocs.size(); ++i) {
    EXPECT_TRUE(r_ocs[i]->Oc() == a_ocs[i]->Oc());
    EXPECT_EQ(r_ocs[i]->removal_size, a_ocs[i]->removal_size);
  }
}

TEST(GoldenRegressionTest, SimulatorsAreSeedSensitive) {
  Table a = GenerateFlightTable(100, 10, 1);
  Table b = GenerateFlightTable(100, 10, 2);
  int differing = 0;
  for (int64_t r = 0; r < 100; ++r) {
    if (!(a.GetValue(r, 4) == b.GetValue(r, 4))) ++differing;
  }
  EXPECT_GT(differing, 50);
}

// --------------------------------------------- cache under discovery --

TEST(CacheBehaviorTest, EvictionNeverBreaksDeepDiscovery) {
  // A table engineered to reach level 5+ so eviction paths execute.
  Rng rng(77);
  std::vector<std::vector<int64_t>> cols(6);
  std::vector<std::string> names;
  for (int c = 0; c < 6; ++c) {
    names.push_back("c" + std::to_string(c));
    for (int r = 0; r < 120; ++r) {
      cols[static_cast<size_t>(c)].push_back(rng.UniformInt(0, 2));
    }
  }
  EncodedTable t = EncodedTableFromInts(names, cols);
  DiscoveryOptions options;
  options.epsilon = 0.02;
  DiscoveryResult result = DiscoverOds(t, options);
  EXPECT_GE(result.stats.levels_processed, 4);
  EXPECT_FALSE(result.timed_out);
}

}  // namespace
}  // namespace aod
