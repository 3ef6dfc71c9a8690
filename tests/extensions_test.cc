// Tests for the extension modules built on top of the paper's core:
// bidirectional OCs [10], parallel level processing (after [8]),
// OD-driven repair suggestions (after [7]), and rank decoding.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "data/encoder.h"
#include "gen/flight_generator.h"
#include "gen/ncvoter_generator.h"
#include "gen/random.h"
#include "od/aoc_iterative_validator.h"
#include "od/aoc_lis_validator.h"
#include "od/discovery.h"
#include "od/oc_validator.h"
#include "od/repair.h"
#include "test_util.h"

namespace aod {
namespace {

using testing_util::NaivePartition;

// ------------------------------------------------------- bidirectional --

TEST(BidirectionalTest, OppositePolarityValidatesReversedOrder) {
  // b = -a: perfectly anti-ordered.
  EncodedTable t = EncodedTableFromInts(
      {"a", "b"}, {{1, 2, 3, 4, 5}, {50, 40, 30, 20, 10}});
  auto whole = StrippedPartition::WholeRelation(5);
  EXPECT_FALSE(ValidateOcExact(t, whole, 0, 1));
  EXPECT_TRUE(ValidateOcExact(t, whole, 0, 1, /*opposite=*/true));

  ValidatorOptions opposite;
  opposite.opposite_polarity = true;
  opposite.early_exit = false;
  ValidationOutcome out =
      ValidateAocOptimal(t, whole, 0, 1, 0.0, 5, opposite);
  EXPECT_TRUE(out.valid);
  EXPECT_EQ(out.removal_size, 0);
  // The straight polarity needs to remove all but one.
  ValidatorOptions straight;
  straight.early_exit = false;
  EXPECT_EQ(ValidateAocOptimal(t, whole, 0, 1, 1.0, 5, straight).removal_size,
            4);
}

TEST(BidirectionalTest, AgeBirthYearIsTheCanonicalUseCase) {
  Table raw = GenerateNcVoterTable(2000, 10, 5);
  EncodedTable t = EncodeTable(raw);
  int age = t.ColumnIndex("age");
  int birth = t.ColumnIndex("birthYear");
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  EXPECT_FALSE(ValidateOcExact(t, whole, age, birth));
  EXPECT_TRUE(ValidateOcExact(t, whole, age, birth, /*opposite=*/true));
}

TEST(BidirectionalTest, SymmetricInSides) {
  EncodedTable t = testing_util::RandomEncodedTable(200, 2, 10, 99);
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  ValidatorOptions opp;
  opp.opposite_polarity = true;
  opp.early_exit = false;
  ValidationOutcome ab =
      ValidateAocOptimal(t, whole, 0, 1, 1.0, t.num_rows(), opp);
  ValidationOutcome ba =
      ValidateAocOptimal(t, whole, 1, 0, 1.0, t.num_rows(), opp);
  EXPECT_EQ(ab.removal_size, ba.removal_size);
}

TEST(BidirectionalTest, OppositeEqualsStraightOnNegatedColumn) {
  // Property: validating A ~ desc(B) must equal validating A ~ B' where
  // B' carries the negated values of B.
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    int64_t n = rng.UniformInt(5, 60);
    std::vector<int64_t> a;
    std::vector<int64_t> b;
    std::vector<int64_t> neg_b;
    for (int64_t i = 0; i < n; ++i) {
      a.push_back(rng.UniformInt(0, 8));
      b.push_back(rng.UniformInt(0, 8));
      neg_b.push_back(-b.back());
    }
    EncodedTable t = EncodedTableFromInts({"a", "b"}, {a, b});
    EncodedTable tn = EncodedTableFromInts({"a", "nb"}, {a, neg_b});
    auto whole = StrippedPartition::WholeRelation(n);
    ValidatorOptions opp;
    opp.opposite_polarity = true;
    opp.early_exit = false;
    ValidatorOptions straight;
    straight.early_exit = false;
    ASSERT_EQ(ValidateAocOptimal(t, whole, 0, 1, 1.0, n, opp).removal_size,
              ValidateAocOptimal(tn, whole, 0, 1, 1.0, n, straight)
                  .removal_size);
    ASSERT_EQ(ValidateOcExact(t, whole, 0, 1, true),
              ValidateOcExact(tn, whole, 0, 1));
    ASSERT_EQ(
        ValidateAocIterative(t, whole, 0, 1, 1.0, n, opp).removal_size,
        ValidateAocIterative(tn, whole, 0, 1, 1.0, n, straight)
            .removal_size);
  }
}

TEST(BidirectionalTest, DiscoveryFindsOppositePolarityOcs) {
  Table raw = GenerateNcVoterTable(1000, 10, 5);
  EncodedTable t = EncodeTable(raw);
  int age = t.ColumnIndex("age");
  int birth = t.ColumnIndex("birthYear");
  DiscoveryOptions options;
  options.epsilon = 0.05;
  options.bidirectional = true;
  DiscoveryResult result = DiscoverOds(t, options);
  const auto ocs = result.Ocs();
  bool found = std::any_of(
      ocs.begin(), ocs.end(), [&](const DiscoveredDependency* d) {
        return d->Oc() == CanonicalOc{AttributeSet(), age, birth, true};
      });
  EXPECT_TRUE(found) << result.Summary(t, 60);
  // Unidirectional discovery must not report it.
  options.bidirectional = false;
  DiscoveryResult uni = DiscoverOds(t, options);
  for (const DiscoveredDependency* d : uni.Ocs()) EXPECT_FALSE(d->opposite);
}

TEST(BidirectionalTest, BidirectionalSupersetOfUnidirectional) {
  EncodedTable t = testing_util::RandomEncodedTable(60, 4, 4, 321);
  DiscoveryOptions uni;
  uni.epsilon = 0.15;
  DiscoveryOptions bid = uni;
  bid.bidirectional = true;
  DiscoveryResult ru = DiscoverOds(t, uni);
  DiscoveryResult rb = DiscoverOds(t, bid);
  // Every straight-polarity OC appears unchanged in the bidirectional
  // run (candidate sets for the two polarities evolve independently).
  const auto rb_ocs = rb.Ocs();
  for (const DiscoveredDependency* d : ru.Ocs()) {
    bool found = std::any_of(
        rb_ocs.begin(), rb_ocs.end(),
        [&](const DiscoveredDependency* x) { return x->Oc() == d->Oc(); });
    EXPECT_TRUE(found) << d->Oc().ToString();
  }
  EXPECT_GE(rb.CountOfKind(DependencyKind::kOc),
            ru.CountOfKind(DependencyKind::kOc));
}

TEST(BidirectionalTest, ToStringMarksPolarity) {
  EncodedTable t = testing_util::PaperEncoded();
  CanonicalOc oc{AttributeSet::Of({0}), 2, 6, true};
  EXPECT_EQ(oc.ToString(t), "{pos}: sal ~ desc(bonus)");
  EXPECT_NE((CanonicalOc{AttributeSet(), 1, 2, false}),
            (CanonicalOc{AttributeSet(), 1, 2, true}));
}

// ------------------------------------------------------------ parallel --

class ParallelDiscoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelDiscoveryTest, ResultIdenticalToSerial) {
  Table raw = GenerateFlightTable(1500, 9, 17);
  EncodedTable t = EncodeTable(raw);
  DiscoveryOptions serial;
  serial.epsilon = 0.10;
  DiscoveryOptions parallel = serial;
  parallel.num_threads = GetParam();
  DiscoveryResult rs = DiscoverOds(t, serial);
  DiscoveryResult rp = DiscoverOds(t, parallel);
  const auto rs_ocs = rs.Ocs(), rp_ocs = rp.Ocs();
  const auto rs_ofds = rs.Ofds(), rp_ofds = rp.Ofds();
  ASSERT_EQ(rs_ocs.size(), rp_ocs.size());
  ASSERT_EQ(rs_ofds.size(), rp_ofds.size());
  for (size_t i = 0; i < rs_ocs.size(); ++i) {
    EXPECT_TRUE(rs_ocs[i]->Oc() == rp_ocs[i]->Oc());
    EXPECT_EQ(rs_ocs[i]->removal_size, rp_ocs[i]->removal_size);
    EXPECT_EQ(rs_ocs[i]->level, rp_ocs[i]->level);
  }
  for (size_t i = 0; i < rs_ofds.size(); ++i) {
    EXPECT_TRUE(rs_ofds[i]->Ofd() == rp_ofds[i]->Ofd());
  }
  EXPECT_EQ(rs.stats.oc_candidates_validated,
            rp.stats.oc_candidates_validated);
  EXPECT_EQ(rs.stats.nodes_processed, rp.stats.nodes_processed);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelDiscoveryTest,
                         ::testing::Values(2, 4, 8));

TEST(ParallelDiscoveryTest2, ExactAndBidirectionalModes) {
  EncodedTable t = testing_util::RandomEncodedTable(300, 5, 5, 888);
  for (bool bid : {false, true}) {
    DiscoveryOptions serial;
    serial.validator = ValidatorKind::kExact;
    serial.bidirectional = bid;
    DiscoveryOptions parallel = serial;
    parallel.num_threads = 4;
    DiscoveryResult rs = DiscoverOds(t, serial);
    DiscoveryResult rp = DiscoverOds(t, parallel);
    const auto rs_ocs = rs.Ocs(), rp_ocs = rp.Ocs();
    ASSERT_EQ(rs_ocs.size(), rp_ocs.size());
    for (size_t i = 0; i < rs_ocs.size(); ++i) {
      EXPECT_TRUE(rs_ocs[i]->Oc() == rp_ocs[i]->Oc());
    }
  }
}

// -------------------------------------------------------------- repair --

TEST(RepairTest, PaperTableSalTaxSuggestions) {
  EncodedTable t = testing_util::PaperEncoded();
  int sal = t.ColumnIndex("sal");
  int tax = t.ColumnIndex("tax");
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  RepairPlan plan =
      SuggestOcRepairs(t, whole, CanonicalOc{AttributeSet(), sal, tax});
  // The minimal suspect set is {t1, t2, t4, t6} (Example 3.2).
  ASSERT_EQ(plan.repairs.size(), 4u);
  std::set<int32_t> rows;
  for (const auto& r : plan.repairs) rows.insert(r.row);
  EXPECT_EQ(rows, (std::set<int32_t>{0, 1, 3, 5}));
  // t1 (tax=2, sal lowest): any value <= 0.3 fits; the interval must be
  // left-unbounded with high = 0.3.
  const CellRepair* t1 = nullptr;
  for (const auto& r : plan.repairs) {
    if (r.row == 0) t1 = &r;
  }
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->current, Value(2.0));
  EXPECT_TRUE(t1->low.is_null());
  EXPECT_EQ(t1->high, Value(0.3));
  EXPECT_NE(plan.ToString(t).find("tax"), std::string::npos);
}

TEST(RepairTest, RepairedValuesRestoreTheOc) {
  // Apply the midpoint (or boundary) of each suggested interval and
  // re-validate: the OC must then hold exactly.
  Table raw = GenerateFlightTable(2000, 9, 7);
  EncodedTable t = EncodeTable(raw);
  int dist = t.ColumnIndex("distance");
  int air = t.ColumnIndex("airTime");
  auto whole = StrippedPartition::WholeRelation(t.num_rows());
  RepairPlan plan =
      SuggestOcRepairs(t, whole, CanonicalOc{AttributeSet(), dist, air});
  ASSERT_GT(plan.repairs.size(), 0u);
  for (const auto& r : plan.repairs) {
    Value pick;
    if (!r.low.is_null()) {
      pick = r.low;
    } else if (!r.high.is_null()) {
      pick = r.high;
    } else {
      continue;  // unbounded both ways: any value works
    }
    raw.SetValue(r.row, air, pick);
  }
  EncodedTable fixed = EncodeTable(raw);
  auto whole2 = StrippedPartition::WholeRelation(fixed.num_rows());
  EXPECT_TRUE(ValidateOcExact(fixed, whole2, dist, air));
}

TEST(RepairTest, ContextualRepairStaysWithinClasses) {
  // {pos}: exp ~ sal on Table 1 flags only t8 (the dev with exp = -1).
  EncodedTable t = testing_util::PaperEncoded();
  StrippedPartition pos_partition =
      NaivePartition(t, AttributeSet::Of({0}));
  RepairPlan plan = SuggestOcRepairs(
      t, pos_partition, CanonicalOc{AttributeSet::Of({0}), 1, 2});
  ASSERT_EQ(plan.repairs.size(), 1u);
  EXPECT_EQ(plan.repairs[0].row, 7);
  EXPECT_EQ(plan.repairs[0].attribute, 2);  // suggests fixing sal
}

TEST(RepairTest, OppositePolarityIntervalsAreReversed) {
  EncodedTable t = EncodedTableFromInts(
      {"a", "b"}, {{1, 2, 3, 4}, {40, 30, 20, 100}});
  // a ~ desc(b): 40, 30, 20 descend; row 3 (100) is the unique suspect.
  auto whole = StrippedPartition::WholeRelation(4);
  RepairPlan plan =
      SuggestOcRepairs(t, whole, CanonicalOc{AttributeSet(), 0, 1, true});
  ASSERT_EQ(plan.repairs.size(), 1u);
  EXPECT_EQ(plan.repairs[0].row, 3);
  EXPECT_EQ(plan.repairs[0].current, Value(int64_t{100}));
  // Any value <= 20 restores the descending order: (-inf, 20].
  EXPECT_TRUE(plan.repairs[0].low.is_null());
  EXPECT_EQ(plan.repairs[0].high, Value(int64_t{20}));
}

// ------------------------------------------------------------ decoding --

TEST(EncoderDictionaryTest, DecodeRoundTrip) {
  Column col("c", DataType::kString);
  for (const char* v : {"pear", "apple", "fig", "apple"}) {
    col.AppendString(v);
  }
  EncodedColumn enc = EncodeColumn(col);
  ASSERT_EQ(enc.dictionary.size(), 3u);
  EXPECT_EQ(enc.Decode(0), Value("apple"));
  EXPECT_EQ(enc.Decode(1), Value("fig"));
  EXPECT_EQ(enc.Decode(2), Value("pear"));
  EXPECT_TRUE(enc.Decode(3).is_null());
  EXPECT_TRUE(enc.Decode(-1).is_null());
  // Every cell decodes back to its original value.
  for (int64_t r = 0; r < col.size(); ++r) {
    EXPECT_EQ(enc.Decode(enc.ranks[static_cast<size_t>(r)]),
              col.GetValue(r));
  }
}

TEST(EncoderDictionaryTest, NullsDecodeToNull) {
  Column col("c", DataType::kInt64);
  col.AppendNull();
  col.AppendInt(5);
  EncodedColumn enc = EncodeColumn(col);
  EXPECT_TRUE(enc.Decode(0).is_null());
  EXPECT_EQ(enc.Decode(1), Value(int64_t{5}));
}

}  // namespace
}  // namespace aod
