// Tests for the four canonical-OD validators: exact OC, exact/approx OFD,
// AOC-optimal (paper Alg. 2), AOC-iterative (paper Alg. 1).
//
// Includes the paper's worked examples from Table 1 (Ex. 2.4, 2.12, 2.15,
// 3.1, 3.2) and property tests against definition-based oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include "algo/lnds.h"
#include "gen/random.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/class_order.h"
#include "od/oc_validator.h"
#include "od/ofd_validator.h"
#include "partition/partition_cache.h"
#include "test_util.h"

namespace aod {
namespace {

using testing_util::NaivePartition;
using testing_util::PaperEncoded;

// Column indices in Table 1.
constexpr int kPos = 0;
constexpr int kExp = 1;
constexpr int kSal = 2;
constexpr int kTaxGrp = 3;
constexpr int kPerc = 4;
constexpr int kTax = 5;
constexpr int kBonus = 6;

class PaperTableTest : public ::testing::Test {
 protected:
  EncodedTable table_ = PaperEncoded();
  StrippedPartition whole_ = StrippedPartition::WholeRelation(9);
};

// ------------------------------------------------------------- Exact OC --

TEST_F(PaperTableTest, Example24SalOrdersTaxGrp) {
  // "the OC taxGrp ~ sal holds" and sal -> taxGrp holds.
  EXPECT_TRUE(ValidateOcExact(table_, whole_, kSal, kTaxGrp));
  EXPECT_TRUE(ValidateOcExact(table_, whole_, kTaxGrp, kSal));  // symmetric
  // sal -> taxGrp as an OD: OC + OFD {sal}: [] -> taxGrp.
  auto sal_partition = NaivePartition(table_, AttributeSet::Of({kSal}));
  EXPECT_TRUE(ValidateOfdExact(table_, sal_partition, kTaxGrp));
  // taxGrp does not *order* sal (the FD fails), but the OC still holds.
  auto grp_partition = NaivePartition(table_, AttributeSet::Of({kTaxGrp}));
  EXPECT_FALSE(ValidateOfdExact(table_, grp_partition, kSal));
}

TEST_F(PaperTableTest, SalTaxOcDoesNotHold) {
  // The motivating dirty pair: sal ~ tax is violated by the perc errors.
  EXPECT_FALSE(ValidateOcExact(table_, whole_, kSal, kTax));
}

TEST_F(PaperTableTest, Example212SalBonusCompatibleWithinPos) {
  // {pos}: sal ~ bonus.
  auto pos_partition = NaivePartition(table_, AttributeSet::Of({kPos}));
  EXPECT_TRUE(ValidateOcExact(table_, pos_partition, kSal, kBonus));
  // {pos, sal}: [] -> bonus.
  auto ps_partition =
      NaivePartition(table_, AttributeSet::Of({kPos, kSal}));
  EXPECT_TRUE(ValidateOfdExact(table_, ps_partition, kBonus));
}

TEST_F(PaperTableTest, Example27PosExpPosSalSwapAndSplit)
{
  // OC pos,exp ~ pos,sal has a swap (t7, t8): within context {} for lists;
  // in canonical terms, {pos}: exp ~ sal must fail (t8 = dev/-1/90K).
  auto pos_partition = NaivePartition(table_, AttributeSet::Of({kPos}));
  EXPECT_FALSE(ValidateOcExact(table_, pos_partition, kExp, kSal));
  // The FD pos,exp -> sal fails on the split (t6, t7).
  auto pe_partition =
      NaivePartition(table_, AttributeSet::Of({kPos, kExp}));
  EXPECT_FALSE(ValidateOfdExact(table_, pe_partition, kSal));
}

TEST_F(PaperTableTest, CountSwapsSalTax) {
  // Example 3.1: t7 swaps with t1, t2, t4, t6 — "more than any tuple".
  // The full inventory is 12 swapped pairs: t1 and t2 each swap with
  // {t3, t5, t7}, t4 with {t5, t7, t8}, t6 with {t7, t8, t9's... } —
  // enumerated: (t1,t3),(t1,t5),(t1,t7),(t2,t3),(t2,t5),(t2,t7),
  // (t4,t5),(t4,t7),(t4,t8),(t6,t7),(t6,t8),(t6,t9).
  EXPECT_EQ(CountOcSwaps(table_, whole_, kSal, kTax), 12);
  EXPECT_EQ(CountOcSwaps(table_, whole_, kSal, kTaxGrp), 0);
}

// ------------------------------------------- AOC optimal (Algorithm 2) --

TEST_F(PaperTableTest, Example32OptimalRemovalSet) {
  // e(sal ~ tax) = 4/9 with removal set {t1, t2, t4, t6}.
  ValidatorOptions opts;
  opts.collect_removal_set = true;
  ValidationOutcome out =
      ValidateAocOptimal(table_, whole_, kSal, kTax, 1.0, 9, opts);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 4);
  EXPECT_NEAR(out.approx_factor, 4.0 / 9.0, 1e-9);
  std::set<int32_t> removed(out.removal_rows.begin(),
                            out.removal_rows.end());
  EXPECT_EQ(removed, (std::set<int32_t>{0, 1, 3, 5}));  // t1, t2, t4, t6
}

TEST_F(PaperTableTest, Example215MinimalityAgainstBruteForce) {
  int64_t truth =
      testing_util::MinRemovalOcBruteForce(table_, AttributeSet(), kSal,
                                           kTax);
  EXPECT_EQ(truth, 4);
  ValidationOutcome out =
      ValidateAocOptimal(table_, whole_, kSal, kTax, 1.0, 9);
  EXPECT_EQ(out.removal_size, truth);
}

TEST_F(PaperTableTest, IntroExamplePosExpPosSal) {
  // Paper Sec. 1.1: for the OC pos,exp ~ pos,sal the minimal removal set
  // is {t8} and the factor 1/9. Canonically: {pos}: exp ~ sal.
  auto pos_partition = NaivePartition(table_, AttributeSet::Of({kPos}));
  ValidatorOptions opts;
  opts.collect_removal_set = true;
  ValidationOutcome out = ValidateAocOptimal(table_, pos_partition, kExp,
                                             kSal, 1.0, 9, opts);
  EXPECT_EQ(out.removal_size, 1);
  EXPECT_NEAR(out.approx_factor, 1.0 / 9.0, 1e-9);
  EXPECT_EQ(out.removal_rows, (std::vector<int32_t>{7}));  // t8
}

TEST_F(PaperTableTest, ThresholdGatesValidity) {
  // e = 4/9 ~ 0.444: valid at eps 0.45, invalid at 0.40.
  EXPECT_TRUE(
      ValidateAocOptimal(table_, whole_, kSal, kTax, 0.45, 9).valid);
  EXPECT_FALSE(
      ValidateAocOptimal(table_, whole_, kSal, kTax, 0.40, 9).valid);
  // Boundary: 4/9 exactly.
  EXPECT_TRUE(
      ValidateAocOptimal(table_, whole_, kSal, kTax, 4.0 / 9.0, 9).valid);
}

TEST_F(PaperTableTest, EarlyExitReportsLowerBound) {
  ValidationOutcome out =
      ValidateAocOptimal(table_, whole_, kSal, kTax, 0.0, 9);
  EXPECT_FALSE(out.valid);
  EXPECT_TRUE(out.early_exit);
  EXPECT_GE(out.removal_size, 1);
  // Without early exit the full minimal removal set is measured.
  ValidatorOptions opts;
  opts.early_exit = false;
  out = ValidateAocOptimal(table_, whole_, kSal, kTax, 0.0, 9, opts);
  EXPECT_FALSE(out.valid);
  EXPECT_FALSE(out.early_exit);
  EXPECT_EQ(out.removal_size, 4);
}

TEST_F(PaperTableTest, ExactOcMeansZeroRemoval) {
  ValidationOutcome out =
      ValidateAocOptimal(table_, whole_, kSal, kTaxGrp, 0.0, 9);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 0);
  EXPECT_EQ(out.approx_factor, 0.0);
}

// ----------------------------------------- AOC iterative (Algorithm 1) --

TEST_F(PaperTableTest, Example31IterativeOverestimates) {
  // The greedy strategy removes t7, t5, t3, t6, t4 -> 5/9, overestimating
  // the true 4/9.
  ValidatorOptions opts;
  opts.collect_removal_set = true;
  opts.early_exit = false;
  ValidationOutcome out =
      ValidateAocIterative(table_, whole_, kSal, kTax, 1.0, 9, opts);
  EXPECT_EQ(out.removal_size, 5);
  EXPECT_NEAR(out.approx_factor, 5.0 / 9.0, 1e-9);
  std::set<int32_t> removed(out.removal_rows.begin(),
                            out.removal_rows.end());
  EXPECT_EQ(removed, (std::set<int32_t>{2, 3, 4, 5, 6}));  // t3..t7
}

TEST_F(PaperTableTest, IterativeMissesAocNearThreshold) {
  // At eps = 0.5: the candidate truly holds (4/9 <= 0.5) but the greedy
  // validator reports 5/9 > 0.5 -> INVALID. This is the incompleteness
  // the paper fixes.
  EXPECT_TRUE(
      ValidateAocOptimal(table_, whole_, kSal, kTax, 0.5, 9).valid);
  EXPECT_FALSE(
      ValidateAocIterative(table_, whole_, kSal, kTax, 0.5, 9).valid);
}

TEST_F(PaperTableTest, IterativeEarlyExitAtThreshold) {
  ValidationOutcome out =
      ValidateAocIterative(table_, whole_, kSal, kTax, 0.1, 9);
  EXPECT_FALSE(out.valid);
  EXPECT_TRUE(out.early_exit);
  // Stops right after crossing floor(0.1 * 9) = 0 removals.
  EXPECT_EQ(out.removal_size, 1);
}

TEST_F(PaperTableTest, IterativeAgreesOnCleanPairs) {
  ValidationOutcome out =
      ValidateAocIterative(table_, whole_, kSal, kTaxGrp, 0.0, 9);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 0);
}

// ------------------------------------------------------------- AOD (OD) --

TEST_F(PaperTableTest, AodValidatorRemovesSplitsToo) {
  // {pos}: exp -> sal: the swap (t8) plus the split (t6, t7) must go.
  auto pos_partition = NaivePartition(table_, AttributeSet::Of({kPos}));
  ValidationOutcome oc =
      ValidateAocOptimal(table_, pos_partition, kExp, kSal, 1.0, 9);
  ValidationOutcome od =
      ValidateAodOptimal(table_, pos_partition, kExp, kSal, 1.0, 9);
  EXPECT_EQ(oc.removal_size, 1);  // swap only
  EXPECT_EQ(od.removal_size, 2);  // swap + one side of the split
}

TEST_F(PaperTableTest, AodOnExactOdIsZero) {
  // {}: sal -> taxGrp holds exactly.
  ValidationOutcome od =
      ValidateAodOptimal(table_, whole_, kSal, kTaxGrp, 0.0, 9);
  EXPECT_TRUE(od.valid);
  EXPECT_EQ(od.removal_size, 0);
}

TEST(AodValidatorTest, SplitOnlyInput) {
  // A equal everywhere, B differs: pure splits, no swaps.
  EncodedTable t = EncodedTableFromInts({"a", "b"}, {{1, 1, 1}, {1, 2, 3}});
  auto whole = StrippedPartition::WholeRelation(3);
  EXPECT_EQ(ValidateAocOptimal(t, whole, 0, 1, 1.0, 3).removal_size, 0);
  EXPECT_EQ(ValidateAodOptimal(t, whole, 0, 1, 1.0, 3).removal_size, 2);
}

// -------------------------------------------------------- OFD validator --

TEST_F(PaperTableTest, OfdApproxCountsMinimalRemoval) {
  // {pos, exp}: [] -> sal fails via (t6, t7); removing one of them fixes
  // it.
  auto pe_partition =
      NaivePartition(table_, AttributeSet::Of({kPos, kExp}));
  ValidatorOptions opts;
  opts.collect_removal_set = true;
  ValidationOutcome out =
      ValidateOfdApprox(table_, pe_partition, kSal, 1.0, 9, opts);
  EXPECT_EQ(out.removal_size, 1);
  EXPECT_NEAR(out.approx_factor, 1.0 / 9.0, 1e-9);
  EXPECT_EQ(out.removal_rows.size(), 1u);
  int32_t removed = out.removal_rows[0];
  EXPECT_TRUE(removed == 5 || removed == 6);  // t6 or t7
}

TEST_F(PaperTableTest, OfdApproxZeroForExact) {
  auto sal_partition = NaivePartition(table_, AttributeSet::Of({kSal}));
  ValidationOutcome out =
      ValidateOfdApprox(table_, sal_partition, kTaxGrp, 0.0, 9);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 0);
}

TEST(OfdValidatorTest, EmptyPartitionVacuouslyHolds) {
  EncodedTable t = EncodedTableFromInts({"a", "b"}, {{1, 2, 3}, {5, 5, 9}});
  StrippedPartition empty = StrippedPartition::FromClasses({});
  EXPECT_TRUE(ValidateOfdExact(t, empty, 1));
  EXPECT_TRUE(ValidateOfdApprox(t, empty, 1, 0.0, 3).valid);
}

TEST(OfdValidatorTest, MajorityValueKept) {
  // One class, values of b: {7, 7, 7, 9, 8}: removal = 2.
  EncodedTable t = EncodedTableFromInts(
      {"a", "b"}, {{1, 1, 1, 1, 1}, {7, 7, 7, 9, 8}});
  auto whole = StrippedPartition::WholeRelation(5);
  ValidationOutcome out = ValidateOfdApprox(t, whole, 1, 1.0, 5);
  EXPECT_EQ(out.removal_size, 2);
}

// ----------------------------------------------- Property: minimality --

struct AocPropertyParam {
  uint64_t seed;
  int64_t rows;
  int cols;
  int64_t cardinality;
};

class AocMinimalityTest : public ::testing::TestWithParam<AocPropertyParam> {
};

TEST_P(AocMinimalityTest, OptimalMatchesBruteForceAndIterativeIsUpperBound) {
  const auto& p = GetParam();
  EncodedTable t = testing_util::RandomEncodedTable(p.rows, p.cols,
                                                    p.cardinality, p.seed);
  ValidatorOptions full;
  full.early_exit = false;
  full.collect_removal_set = true;
  for (int a = 0; a < p.cols; ++a) {
    for (int b = 0; b < p.cols; ++b) {
      if (a == b) continue;
      for (int ctx_attr = -1; ctx_attr < p.cols; ++ctx_attr) {
        if (ctx_attr == a || ctx_attr == b) continue;
        AttributeSet ctx = ctx_attr < 0 ? AttributeSet()
                                        : AttributeSet::Of({ctx_attr});
        StrippedPartition partition = NaivePartition(t, ctx);

        ValidationOutcome optimal =
            ValidateAocOptimal(t, partition, a, b, 1.0, p.rows, full);
        ValidationOutcome iterative =
            ValidateAocIterative(t, partition, a, b, 1.0, p.rows, full);

        // 1. Optimal equals the exponential ground truth.
        int64_t truth = testing_util::MinRemovalOcBruteForce(t, ctx, a, b);
        ASSERT_EQ(optimal.removal_size, truth)
            << "ctx=" << ctx.ToString() << " a=" << a << " b=" << b;

        // 2. The optimal removal set really is a removal set: removing it
        // leaves no swaps.
        std::vector<int32_t> rest;
        std::set<int32_t> removed(optimal.removal_rows.begin(),
                                  optimal.removal_rows.end());
        for (int64_t r = 0; r < p.rows; ++r) {
          if (!removed.count(static_cast<int32_t>(r))) {
            rest.push_back(static_cast<int32_t>(r));
          }
        }
        ASSERT_FALSE(testing_util::HasSwapNaive(t, ctx, a, b, rest));

        // 3. The greedy strategy never does better than the minimum.
        ASSERT_GE(iterative.removal_size, optimal.removal_size);

        // 4. The iterative removal set is also a (non-minimal) removal
        // set.
        rest.clear();
        std::set<int32_t> removed_it(iterative.removal_rows.begin(),
                                     iterative.removal_rows.end());
        for (int64_t r = 0; r < p.rows; ++r) {
          if (!removed_it.count(static_cast<int32_t>(r))) {
            rest.push_back(static_cast<int32_t>(r));
          }
        }
        ASSERT_FALSE(testing_util::HasSwapNaive(t, ctx, a, b, rest));

        // 5. Zero removal <=> the exact validator accepts.
        ASSERT_EQ(optimal.removal_size == 0,
                  ValidateOcExact(t, partition, a, b));

        // 6. Symmetry of OCs: e(A ~ B) == e(B ~ A).
        ValidationOutcome swapped =
            ValidateAocOptimal(t, partition, b, a, 1.0, p.rows, full);
        ASSERT_EQ(swapped.removal_size, optimal.removal_size);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallTables, AocMinimalityTest,
    ::testing::Values(AocPropertyParam{101, 8, 3, 3},
                      AocPropertyParam{102, 10, 3, 4},
                      AocPropertyParam{103, 12, 3, 2},
                      AocPropertyParam{104, 12, 2, 6},
                      AocPropertyParam{105, 14, 2, 4},
                      AocPropertyParam{106, 9, 4, 3}));

// Larger-scale property: optimal removal == n - LNDS bound, cross-checked
// between the two validators without brute force.
class AocLargeAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AocLargeAgreementTest, IterativeUpperBoundsOptimal) {
  EncodedTable t =
      testing_util::RandomEncodedTable(400, 3, 12, GetParam());
  ValidatorOptions full;
  full.early_exit = false;
  for (int ctx_attr = -1; ctx_attr < 3; ++ctx_attr) {
    int a = (ctx_attr == 0) ? 1 : 0;
    int b = (ctx_attr == 2) ? 1 : 2;
    if (a == b || ctx_attr == a || ctx_attr == b) continue;
    AttributeSet ctx =
        ctx_attr < 0 ? AttributeSet() : AttributeSet::Of({ctx_attr});
    StrippedPartition partition = NaivePartition(t, ctx);
    ValidationOutcome optimal =
        ValidateAocOptimal(t, partition, a, b, 1.0, 400, full);
    ValidationOutcome iterative =
        ValidateAocIterative(t, partition, a, b, 1.0, 400, full);
    ASSERT_GE(iterative.removal_size, optimal.removal_size);
    ASSERT_EQ(optimal.removal_size == 0,
              ValidateOcExact(t, partition, a, b));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AocLargeAgreementTest,
                         ::testing::Values(201, 202, 203, 204));

// -------------------------- Class-order kernel vs the comparator sort --

/// The comparator sort the OC validators used before the packed-key
/// kernel, kept as the reference: each class sorted by A, then sign*B (B
/// DESC within A-ties for the OD variant), then row id, followed by one
/// LNDS pass per class.
struct ReferenceOutcome {
  bool valid = true;
  int64_t removal_size = 0;
  std::vector<int32_t> removal_rows;
};

/// One class in the comparator order — A, then sign*B (B DESC within
/// A-ties for the OD variant), then row id — and its B-projection.
struct ReferenceClass {
  std::vector<int32_t> rows;
  std::vector<int32_t> projection;
};

ReferenceClass ReferenceClassOrder(const EncodedTable& t,
                                   StrippedPartition::ClassSpan cls, int a,
                                   int b, bool opposite,
                                   bool descending_ties) {
  const auto& ranks_a = t.ranks(a);
  const auto& ranks_b = t.ranks(b);
  const int32_t sign = opposite ? -1 : 1;
  ReferenceClass out;
  out.rows.assign(cls.begin(), cls.end());
  std::sort(out.rows.begin(), out.rows.end(), [&](int32_t s, int32_t u) {
    const size_t si = static_cast<size_t>(s);
    const size_t ui = static_cast<size_t>(u);
    if (ranks_a[si] != ranks_a[ui]) return ranks_a[si] < ranks_a[ui];
    const int32_t sb = sign * ranks_b[si];
    const int32_t ub = sign * ranks_b[ui];
    if (sb != ub) return descending_ties ? sb > ub : sb < ub;
    return s < u;
  });
  for (int32_t r : out.rows) {
    out.projection.push_back(sign * ranks_b[static_cast<size_t>(r)]);
  }
  return out;
}

ReferenceOutcome ReferenceLis(const EncodedTable& t,
                              const StrippedPartition& partition, int a,
                              int b, double epsilon, bool opposite,
                              bool descending_ties) {
  ReferenceOutcome out;
  for (StrippedPartition::ClassSpan cls : partition.classes()) {
    const auto [rows, projection] =
        ReferenceClassOrder(t, cls, a, b, opposite, descending_ties);
    out.removal_size +=
        static_cast<int64_t>(projection.size()) - LndsLength(projection);
    for (int32_t pos : LndsComplement(projection)) {
      out.removal_rows.push_back(rows[static_cast<size_t>(pos)]);
    }
  }
  out.valid = out.removal_size <= MaxRemovals(epsilon, t.num_rows());
  return out;
}

/// The same ranks with every column's cardinality declared as `card`, so
/// the kernel packs wider keys (the ranks stay in range).
EncodedTable WithDeclaredCardinality(const EncodedTable& t, int32_t card) {
  std::vector<EncodedColumn> columns;
  for (int c = 0; c < t.num_columns(); ++c) {
    columns.push_back(t.column(c));
    columns.back().cardinality = card;
  }
  return EncodedTable(std::move(columns), t.num_rows());
}

/// Every (polarity, AOC/AOD, epsilon, collect, early exit) combination of
/// the optimal validators against the reference, plus the exact OC.
void CheckKernelAgainstReference(const EncodedTable& t,
                                 const StrippedPartition& partition, int a,
                                 int b, ValidatorScratch* scratch) {
  const int64_t n = t.num_rows();
  for (bool opposite : {false, true}) {
    for (bool aod : {false, true}) {
      for (double epsilon : {0.0, 0.05, 0.2, 1.0}) {
        const ReferenceOutcome ref =
            ReferenceLis(t, partition, a, b, epsilon, opposite, aod);
        const int64_t max_removals = MaxRemovals(epsilon, n);
        for (bool collect : {false, true}) {
          for (bool early : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "a=" << a << " b=" << b << " opposite="
                         << opposite << " aod=" << aod << " eps=" << epsilon
                         << " collect=" << collect << " early=" << early);
            ValidatorOptions opts;
            opts.collect_removal_set = collect;
            opts.early_exit = early;
            opts.opposite_polarity = opposite;
            const ValidationOutcome got =
                aod ? ValidateAodOptimal(t, partition, a, b, epsilon, n,
                                         opts, scratch)
                    : ValidateAocOptimal(t, partition, a, b, epsilon, n,
                                         opts, scratch);
            ASSERT_EQ(got.valid, ref.valid);
            if (got.early_exit) {
              ASSERT_TRUE(early);
              ASSERT_GT(got.removal_size, max_removals);
              ASSERT_LE(got.removal_size, ref.removal_size);
            } else {
              ASSERT_EQ(got.removal_size, ref.removal_size);
            }
            if (!collect) continue;
            // Class-granular exit: the collected rows are a prefix of the
            // reference's, and all of them without an exit.
            ASSERT_LE(got.removal_rows.size(), ref.removal_rows.size());
            ASSERT_TRUE(std::equal(got.removal_rows.begin(),
                                   got.removal_rows.end(),
                                   ref.removal_rows.begin()));
            if (!got.early_exit) {
              ASSERT_EQ(got.removal_rows.size(), ref.removal_rows.size());
            }
          }
        }
      }
    }
    const bool exact_holds =
        ReferenceLis(t, partition, a, b, 0.0, opposite, false)
            .removal_size == 0;
    ASSERT_EQ(ValidateOcExact(t, partition, a, b, opposite, scratch),
              exact_holds);
  }
}

class ClassOrderKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassOrderKernelTest, MatchesComparatorReference) {
  ValidatorScratch scratch;  // shared across key widths and calls
  for (int64_t card : {3, 40}) {
    // 900 rows: classes of ~300 under a 3-valued context reach the radix
    // path, the 40-valued column's small ones take std::sort.
    const EncodedTable natural =
        testing_util::RandomEncodedTable(900, 3, card, GetParam());
    const EncodedTable wide = WithDeclaredCardinality(natural, 1 << 20);
    ASSERT_EQ(ClassOrder(natural, 1, 2, {}).key_width(),
              ClassOrder::KeyWidth::k32);
    ASSERT_EQ(ClassOrder(wide, 1, 2, {}).key_width(),
              ClassOrder::KeyWidth::k64);
    for (const EncodedTable* t : {&natural, &wide}) {
      const StrippedPartition whole =
          StrippedPartition::WholeRelation(t->num_rows());
      const StrippedPartition by_c0 =
          NaivePartition(*t, AttributeSet::Of({0}));
      for (const StrippedPartition* p : {&whole, &by_c0}) {
        CheckKernelAgainstReference(*t, *p, 1, 2, &scratch);
        CheckKernelAgainstReference(*t, *p, 2, 1, &scratch);
      }
    }
    // The iterative validator's greedy removal count does not depend on
    // how rows with equal (A, B) are ordered, so the row-id keys (collect
    // on) and the plain keys agree.
    const EncodedTable small =
        testing_util::RandomEncodedTable(150, 2, card, GetParam());
    const StrippedPartition whole = StrippedPartition::WholeRelation(150);
    for (bool opposite : {false, true}) {
      ValidatorOptions plain;
      plain.early_exit = false;
      plain.opposite_polarity = opposite;
      ValidatorOptions collect = plain;
      collect.collect_removal_set = true;
      const ValidationOutcome p =
          ValidateAocIterative(small, whole, 0, 1, 1.0, 150, plain, &scratch);
      const ValidationOutcome c = ValidateAocIterative(small, whole, 0, 1,
                                                       1.0, 150, collect,
                                                       &scratch);
      ASSERT_EQ(p.removal_size, c.removal_size);
      ASSERT_EQ(static_cast<int64_t>(c.removal_rows.size()), c.removal_size);
    }
  }
}

TEST_P(ClassOrderKernelTest, WiderThan64BitsFallsBackToPairs) {
  // Cardinalities declared near 2^31: A and B take 31 bits each, so the
  // row id no longer fits a 64-bit key and the kernel sorts pairs.
  ValidatorScratch scratch;
  for (int64_t card : {2, 5}) {
    const EncodedTable huge = WithDeclaredCardinality(
        testing_util::RandomEncodedTable(40, 3, card, GetParam()),
        std::numeric_limits<int32_t>::max());
    ASSERT_EQ(ClassOrder(huge, 1, 2, {}).key_width(),
              ClassOrder::KeyWidth::k64);
    ASSERT_EQ(ClassOrder(huge, 1, 2, {.row_ids = true}).key_width(),
              ClassOrder::KeyWidth::kPair);
    const StrippedPartition whole = StrippedPartition::WholeRelation(40);
    const StrippedPartition by_c0 =
        NaivePartition(huge, AttributeSet::Of({0}));
    for (const StrippedPartition* p : {&whole, &by_c0}) {
      CheckKernelAgainstReference(huge, *p, 1, 2, &scratch);
      CheckKernelAgainstReference(huge, *p, 2, 1, &scratch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassOrderKernelTest,
                         ::testing::Values(301, 302, 303));

// ------------------------------ OC kernel vs sort + quadratic LNDS --

/// A mix of every class shape the kernel special-cases: 2- and 3-row
/// classes (no sort), mid-sized classes, and two classes of >= 4096 rows
/// (the subsample reject), over shuffled rows and in shuffled class order.
StrippedPartition MixedClassPartition(int64_t n, Rng& rng) {
  std::vector<int32_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  rng.Shuffle(&rows);
  std::vector<std::vector<int32_t>> classes;
  size_t next = 0;
  const auto take = [&](int64_t m) {
    classes.emplace_back(rows.begin() + static_cast<std::ptrdiff_t>(next),
                         rows.begin() + static_cast<std::ptrdiff_t>(next) +
                             static_cast<std::ptrdiff_t>(m));
    next += static_cast<size_t>(m);
  };
  take(4096);
  take(4100);
  for (int i = 0; i < 12; ++i) take(rng.UniformInt(4, 400));
  while (next + 3 <= rows.size()) take(rng.UniformInt(1, 3));  // 1: stripped
  rng.Shuffle(&classes);
  return StrippedPartition::FromClasses(std::move(classes));
}

/// Columns with random, near-monotone, noisy and adversarial shapes:
/// 0 low-cardinality A, 1 random B, 2 and 7 B following column 0 with 5%
/// and 30% of rows randomized, 3 all equal, 4 sorted, 5 reversed, 6 sorted
/// with runs of 8 equal values (A-ties with differing B: splits), 8 a
/// shuffled key holding one null (still a key: the null is one more
/// distinct value). 4, 5 and 8 are table keys.
EncodedTable KernelColumns(int64_t n, Rng& rng) {
  std::vector<std::vector<int64_t>> cols(8);
  for (int64_t r = 0; r < n; ++r) {
    const int64_t a = rng.UniformInt(0, 39);
    const auto follow = [&](double noise) {
      return rng.Bernoulli(noise) ? rng.UniformInt(0, 39999)
                                  : a * 1000 + rng.UniformInt(0, 999);
    };
    cols[0].push_back(a);
    cols[1].push_back(rng.UniformInt(0, (1 << 16) - 1));
    cols[2].push_back(follow(0.05));
    cols[3].push_back(0);
    cols[4].push_back(r);
    cols[5].push_back(n - r);
    cols[6].push_back(r / 8);
    cols[7].push_back(follow(0.3));
  }
  const EncodedTable ints = EncodedTableFromInts(
      {"a", "rnd", "near", "eq", "asc", "desc", "runs", "noisy"}, cols);
  std::vector<EncodedColumn> columns;
  for (int c = 0; c < ints.num_columns(); ++c) {
    columns.push_back(ints.column(c));
  }
  std::vector<int64_t> perm(static_cast<size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  Rng perm_rng(static_cast<uint64_t>(n));  // leaves `rng`'s draws as they were
  perm_rng.Shuffle(&perm);
  Column null_key("null_key", DataType::kInt64);
  for (int64_t r = 0; r < n; ++r) {
    if (r == n / 2) {
      null_key.AppendNull();
    } else {
      null_key.AppendInt(perm[static_cast<size_t>(r)]);
    }
  }
  columns.push_back(EncodeColumn(null_key));
  return EncodedTable(std::move(columns), n);
}

/// Each class sorted by the comparator reference (A, tie-adjusted B, row
/// id) and measured with the quadratic LNDS oracle.
std::vector<int64_t> NaiveClassRemovals(const EncodedTable& t,
                                        const StrippedPartition& partition,
                                        int a, int b, bool opposite,
                                        bool descending_ties) {
  std::vector<int64_t> out;
  for (StrippedPartition::ClassSpan cls : partition.classes()) {
    const ReferenceClass ref =
        ReferenceClassOrder(t, cls, a, b, opposite, descending_ties);
    out.push_back(static_cast<int64_t>(ref.rows.size()) -
                  testing_util::LndsLengthNaive(ref.projection));
  }
  return out;
}

/// The outcome of summing `class_removals` in class order; with early exit
/// the scan stops in the first class that pushes the sum past the
/// threshold and reports threshold + 1.
ValidationOutcome ExpectedOutcome(const std::vector<int64_t>& class_removals,
                                  int64_t max_removals, int64_t n,
                                  bool early_exit) {
  ValidationOutcome out;
  for (int64_t removals : class_removals) {
    out.removal_size += removals;
    if (early_exit && out.removal_size > max_removals) {
      out.removal_size = max_removals + 1;
      out.early_exit = true;
      break;
    }
  }
  out.valid = out.removal_size <= max_removals;
  out.approx_factor =
      static_cast<double>(out.removal_size) / static_cast<double>(n);
  return out;
}

/// Which kernel paths a check reached.
struct KernelCoverage {
  int tiny_removals_seen = 0;  // bit k: a 2- or 3-row class with k removals
  int sampled_rejects = 0;     // sample-eligible class beyond the budget
  int sampled_passes = 0;      // sample-eligible class within it
  int key_only_radix = 0;      // radix-sized class with a key as primary
  int successor_lnds = 0;      // class sized for the successor-set LNDS
};

/// Every (pair, polarity, OC/OD, epsilon, early exit) outcome of the
/// optimal validators against ExpectedOutcome over NaiveClassRemovals,
/// field by field.
void CheckAgainstNaive(const EncodedTable& t,
                       const StrippedPartition& partition,
                       const std::vector<std::pair<int, int>>& pairs,
                       KernelCoverage* coverage) {
  const int64_t n = t.num_rows();
  ValidatorScratch scratch;  // shared by every call, as in discovery
  for (auto [a, b] : pairs) {
    for (bool opposite : {false, true}) {
      for (bool aod : {false, true}) {
        const std::vector<int64_t> class_removals =
            NaiveClassRemovals(t, partition, a, b, opposite, aod);
        // The order the validator sorts in: an OC may swap a and b.
        const ClassOrder order =
            aod ? ClassOrder(t, a, b,
                             {.opposite = opposite, .descending_ties = true})
                : ClassOrder::ForOc(t, a, b, opposite);
        for (double epsilon : {0.0, 0.01, 0.1, 0.5}) {
          const int64_t max_removals = MaxRemovals(epsilon, n);
          for (bool early : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "a=" << a << " b=" << b << " opposite="
                         << opposite << " aod=" << aod << " eps=" << epsilon
                         << " early=" << early);
            ValidatorOptions opts;
            opts.early_exit = early;
            opts.opposite_polarity = opposite;
            const ValidationOutcome got =
                aod ? ValidateAodOptimal(t, partition, a, b, epsilon, n,
                                         opts, &scratch)
                    : ValidateAocOptimal(t, partition, a, b, epsilon, n,
                                         opts, &scratch);
            const ValidationOutcome want =
                ExpectedOutcome(class_removals, max_removals, n, early);
            ASSERT_EQ(got.valid, want.valid);
            ASSERT_EQ(got.removal_size, want.removal_size);
            ASSERT_EQ(got.approx_factor, want.approx_factor);
            ASSERT_EQ(got.early_exit, want.early_exit);
            ASSERT_TRUE(got.removal_rows.empty());
          }
          int64_t used = 0;
          for (int64_t i = 0; i < partition.num_classes(); ++i) {
            const int64_t m = static_cast<int64_t>(partition.cls(i).size());
            const int64_t removals = class_removals[static_cast<size_t>(i)];
            const int64_t budget = max_removals - used;
            if (m <= 3) coverage->tiny_removals_seen |= 1 << removals;
            if (order.key_only_radix() &&
                m >= static_cast<int64_t>(ClassOrder::kRadixMinRows)) {
              ++coverage->key_only_radix;
            }
            if (m >= static_cast<int64_t>(kSuccessorLndsMinRows)) {
              ++coverage->successor_lnds;
            }
            if (m >= 4096 && m >= 4 * (budget + 1)) {
              ++(removals > budget ? coverage->sampled_rejects
                                   : coverage->sampled_passes);
            }
            used += removals;
            if (used > max_removals) break;
          }
        }
      }
    }
  }
}

/// An OC's outcome does not depend on which attribute the kernel sorts
/// by first: ValidateAocOptimal(a, b) equals ValidateAocOptimal(b, a),
/// field by field, in both polarities and with early exit on and off.
void CheckOrientationSymmetry(const EncodedTable& t,
                              const StrippedPartition& partition,
                              const std::vector<std::pair<int, int>>& pairs) {
  const int64_t n = t.num_rows();
  ValidatorScratch scratch;
  for (auto [a, b] : pairs) {
    for (bool opposite : {false, true}) {
      for (double epsilon : {0.0, 0.01, 0.1, 0.5}) {
        for (bool early : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "a=" << a << " b=" << b << " opposite=" << opposite
                       << " eps=" << epsilon << " early=" << early);
          ValidatorOptions opts;
          opts.early_exit = early;
          opts.opposite_polarity = opposite;
          const ValidationOutcome ab = ValidateAocOptimal(
              t, partition, a, b, epsilon, n, opts, &scratch);
          const ValidationOutcome ba = ValidateAocOptimal(
              t, partition, b, a, epsilon, n, opts, &scratch);
          ASSERT_EQ(ab.valid, ba.valid);
          ASSERT_EQ(ab.removal_size, ba.removal_size);
          ASSERT_EQ(ab.approx_factor, ba.approx_factor);
          ASSERT_EQ(ab.early_exit, ba.early_exit);
        }
      }
    }
  }
}

class OcKernelEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OcKernelEquivalenceTest, EveryOutcomeFieldMatchesSortAndNaiveLnds) {
  Rng rng(GetParam());
  const int64_t n = 13000;
  const EncodedTable t = KernelColumns(n, rng);
  ASSERT_EQ(t.column(8).cardinality, n);  // the null-holding key
  const StrippedPartition partition = MixedClassPartition(n, rng);
  KernelCoverage coverage;
  // Low- against high-cardinality pairs come in both argument orders, so
  // the OC kernel sorts by the wider one whichever is given first.
  CheckAgainstNaive(t, partition,
                    {{0, 1}, {1, 0}, {0, 2}, {0, 7}, {2, 7}, {3, 1},
                     {1, 3}, {4, 5}, {5, 4}, {6, 4}, {4, 6}, {6, 5},
                     {8, 0}, {0, 8}, {8, 7}, {7, 8}},
                    &coverage);
  EXPECT_EQ(coverage.tiny_removals_seen, 0b111);
  EXPECT_GT(coverage.sampled_rejects, 0);
  EXPECT_GT(coverage.sampled_passes, 0);
  EXPECT_GT(coverage.key_only_radix, 0);
  EXPECT_GT(coverage.successor_lnds, 0);
  CheckOrientationSymmetry(t, partition,
                           {{0, 1}, {0, 4}, {0, 8}, {3, 8}, {6, 4}, {7, 8},
                            {2, 7}});
}

// A large class whose removals all sit on the rows the stride sample
// takes, so the sample sees as many removals as the class: budget of them
// must fall through to the full sort and be accepted (a sample verdict
// scaled up to the class size would reject), budget + 1 must reject.
TEST(OcKernelEquivalenceSampleTest, HoldingTheWholeBudgetIsNotRejected) {
  const int64_t n = 4096;
  const int64_t budget = MaxRemovals(0.01, n);
  const int64_t stride = n / (2 * (budget + 1));
  for (int64_t bad : {budget, budget + 1}) {
    // B follows A, except that every other sampled row drops below all
    // of B, each lower than the last, so no LNDS can use two of them.
    std::vector<int64_t> a_col, b_col;
    int64_t dropped = 0;
    for (int64_t r = 0; r < n; ++r) {
      const bool drop = r % stride == 0 && (r / stride) % 2 == 1 &&
                        dropped < bad;
      dropped += drop;
      a_col.push_back(r);
      b_col.push_back(drop ? -r : r);
    }
    ASSERT_EQ(dropped, bad);
    const EncodedTable t = EncodedTableFromInts({"a", "b"}, {a_col, b_col});
    KernelCoverage coverage;
    CheckAgainstNaive(t, StrippedPartition::WholeRelation(n), {{0, 1}},
                      &coverage);
    EXPECT_GT(bad > budget ? coverage.sampled_rejects
                           : coverage.sampled_passes,
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OcKernelEquivalenceTest,
                         ::testing::Values(401, 402));

/// Columns for OC groups: 0 a table key shuffled against the row order,
/// then columns that follow it ascending with 2% noise (1), descending
/// with 5% (2) and with 30% (4), ignore it (3), follow it over 8 values
/// with 1% noise (5), stay constant (6), and two more keys: one shuffled
/// on its own (7) and the key reversed (8).
EncodedTable GroupColumns(int64_t n, Rng& rng) {
  std::vector<int64_t> key(static_cast<size_t>(n));
  std::iota(key.begin(), key.end(), 0);
  rng.Shuffle(&key);
  std::vector<int64_t> other_key = key;
  rng.Shuffle(&other_key);
  std::vector<std::vector<int64_t>> cols(9);
  for (int64_t r = 0; r < n; ++r) {
    const int64_t k = key[static_cast<size_t>(r)];
    const auto noisy = [&](double noise, int64_t value) {
      return rng.Bernoulli(noise) ? rng.UniformInt(0, n) : value;
    };
    cols[0].push_back(k);
    cols[1].push_back(noisy(0.02, k / 4));
    cols[2].push_back(noisy(0.05, (n - k) / 8));
    cols[3].push_back(rng.UniformInt(0, 999));
    cols[4].push_back(noisy(0.3, k / 16));
    cols[5].push_back(rng.Bernoulli(0.01) ? rng.UniformInt(0, 7) : k * 8 / n);
    cols[6].push_back(7);
    cols[7].push_back(other_key[static_cast<size_t>(r)]);
    cols[8].push_back(n - k);
  }
  return EncodedTableFromInts(
      {"key", "near", "desc", "rnd", "noisy", "low", "const", "key2", "rev"},
      cols);
}

/// Per-class removals of `member` by the comparator sort and the plain
/// LNDS length: an oracle that shares no code with the validators.
std::vector<int64_t> ReferenceRemovals(const EncodedTable& t,
                                       const StrippedPartition& partition,
                                       const OcGroupMember& member) {
  std::vector<int64_t> out;
  for (StrippedPartition::ClassSpan cls : partition.classes()) {
    const ReferenceClass ref = ReferenceClassOrder(
        t, cls, member.a, member.b, member.opposite, false);
    out.push_back(static_cast<int64_t>(ref.projection.size()) -
                  LndsLength(ref.projection));
  }
  return out;
}

/// Every member of every group equals ValidateAocOptimal on it alone and
/// the oracle, field by field. Groups of 1 to 8 members are drawn from
/// the OCs whose sort attribute is the key column 0, in both polarities
/// and both argument orders; `branches` sums what the groups shared.
void CheckGroupsAgainstSingles(const EncodedTable& t,
                               const StrippedPartition& partition, Rng& rng,
                               OcGroupBranches* branches) {
  const int64_t n = t.num_rows();
  std::vector<OcGroupMember> pool;
  for (int b = 1; b <= 8; ++b) {
    for (bool opposite : {false, true}) {
      pool.push_back({0, b, opposite});
      // Keys 7 and 8 tie with column 0, which then sorts first only when
      // given first.
      if (b != 7 && b != 8) pool.push_back({b, 0, opposite});
    }
  }
  std::vector<std::vector<int64_t>> reference;
  for (const OcGroupMember& m : pool) {
    ASSERT_EQ(ClassOrder::OcPrimary(t, m.a, m.b), 0);
    reference.push_back(ReferenceRemovals(t, partition, m));
  }
  ValidatorScratch group_scratch;
  ValidatorScratch single_scratch;
  for (size_t size = 1; size <= 8; ++size) {
    for (int draw = 0; draw < 3; ++draw) {
      std::vector<size_t> picks(pool.size());
      std::iota(picks.begin(), picks.end(), 0);
      rng.Shuffle(&picks);
      picks.resize(size);
      std::vector<OcGroupMember> members;
      for (size_t p : picks) members.push_back(pool[p]);
      for (double epsilon : {0.0, 0.01, 0.1, 0.5}) {
        const int64_t max_removals = MaxRemovals(epsilon, n);
        for (bool early : {true, false}) {
          std::vector<ValidationOutcome> got(size);
          const OcGroupBranches taken = ValidateAocOptimalGroup(
              t, partition, members, epsilon, n, early, &group_scratch,
              got);
          branches->shared_sorts += taken.shared_sorts;
          branches->rank_orders += taken.rank_orders;
          for (size_t i = 0; i < size; ++i) {
            const OcGroupMember& m = members[i];
            SCOPED_TRACE(testing::Message()
                         << "group of " << size << ", member " << i
                         << ": a=" << m.a << " b=" << m.b << " opposite="
                         << m.opposite << " eps=" << epsilon
                         << " early=" << early);
            ValidatorOptions opts;
            opts.early_exit = early;
            opts.opposite_polarity = m.opposite;
            const ValidationOutcome alone = ValidateAocOptimal(
                t, partition, m.a, m.b, epsilon, n, opts, &single_scratch);
            const ValidationOutcome want = ExpectedOutcome(
                reference[picks[i]], max_removals, n, early);
            for (const ValidationOutcome* other : {&alone, &want}) {
              ASSERT_EQ(got[i].valid, other->valid);
              ASSERT_EQ(got[i].removal_size, other->removal_size);
              ASSERT_EQ(got[i].approx_factor, other->approx_factor);
              ASSERT_EQ(got[i].early_exit, other->early_exit);
            }
            ASSERT_TRUE(got[i].removal_rows.empty());
          }
        }
      }
    }
  }
}

class OcGroupEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OcGroupEquivalenceTest, EveryMemberMatchesItsSingleValidation) {
  Rng rng(GetParam());
  OcGroupBranches branches;
  // Tiny, mid-size and >= 4096-row classes in one context.
  const EncodedTable mixed = GroupColumns(13000, rng);
  CheckGroupsAgainstSingles(mixed, MixedClassPartition(13000, rng), rng,
                            &branches);
  EXPECT_GT(branches.shared_sorts, 0);
  EXPECT_EQ(branches.rank_orders, 0);
  // The whole relation below and above the sample threshold.
  for (int64_t n : {3000, 13000}) {
    SCOPED_TRACE(testing::Message() << "whole relation of " << n);
    const EncodedTable t = n == 13000 ? mixed : GroupColumns(n, rng);
    const int64_t before = branches.rank_orders;
    CheckGroupsAgainstSingles(t, StrippedPartition::WholeRelation(n), rng,
                              &branches);
    EXPECT_GT(branches.rank_orders, before);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OcGroupEquivalenceTest,
                         ::testing::Values(501, 502));

// MaxRemovals boundary semantics.
TEST(MaxRemovalsTest, FloorWithGuard) {
  EXPECT_EQ(MaxRemovals(0.0, 100), 0);
  EXPECT_EQ(MaxRemovals(0.1, 100), 10);
  EXPECT_EQ(MaxRemovals(0.1, 105), 10);   // floor(10.5)
  EXPECT_EQ(MaxRemovals(1.0, 100), 100);
  EXPECT_EQ(MaxRemovals(4.0 / 9.0, 9), 4);  // no FP round-down
  EXPECT_EQ(MaxRemovals(0.3, 10), 3);       // 0.3*10 = 2.9999... -> 3
}

}  // namespace
}  // namespace aod
