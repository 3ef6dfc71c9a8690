// Cross-module property tests for the canonical mapping (paper Sec. 2.2):
// a list-based OD holds exactly iff every member of its canonical
// decomposition holds — the theorem the whole set-based framework rests
// on. Also: interestingness ordering.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/random.h"
#include "od/interestingness.h"
#include "od/list_od.h"
#include "od/list_od_validator.h"
#include "od/aoc_lis_validator.h"
#include "test_util.h"

namespace aod {
namespace {

using testing_util::NaivePartition;
using testing_util::OcHoldsNaive;
using testing_util::OfdHoldsNaive;

// ---------------------------------------------- Sec. 2.2 equivalences --

/// Checks every member of the canonical decomposition with the
/// definition-based oracles.
bool CanonicalPartsHold(const EncodedTable& t, const CanonicalOdSet& parts) {
  for (const auto& ofd : parts.ofds) {
    if (!OfdHoldsNaive(t, ofd.context, ofd.a)) return false;
  }
  for (const auto& oc : parts.ocs) {
    if (oc.a == oc.b) continue;  // A ~ A is trivially true
    if (!OcHoldsNaive(t, oc.context, oc.a, oc.b)) return false;
  }
  return true;
}

class MappingEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MappingEquivalenceTest, ListOdHoldsIffCanonicalPartsHold) {
  Rng rng(GetParam());
  int checked_holds = 0;
  for (int trial = 0; trial < 60; ++trial) {
    // Small tables with low cardinality so that dependencies actually
    // hold sometimes (both outcomes must be exercised).
    EncodedTable t = testing_util::RandomEncodedTable(
        rng.UniformInt(2, 14), 4, rng.UniformInt(1, 3), rng.NextUint64());
    auto random_list = [&rng]() {
      std::vector<int> out;
      int len = static_cast<int>(rng.UniformInt(1, 3));
      for (int i = 0; i < len; ++i) {
        out.push_back(static_cast<int>(rng.UniformInt(0, 3)));
      }
      return out;
    };
    ListOd od{random_list(), random_list()};
    bool direct = ValidateListOdExact(t, od);
    bool via_parts = CanonicalPartsHold(t, MapListOdToCanonical(od));
    ASSERT_EQ(direct, via_parts) << od.ToString();
    if (direct) ++checked_holds;
  }
  // The sweep must exercise the "holds" branch, not only rejections.
  EXPECT_GT(checked_holds, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingEquivalenceTest,
                         ::testing::Values(71, 72, 73, 74));

TEST(MappingEquivalenceTest2, OcSplitsIntoPrefixOcs) {
  // X ~ Y iff all prefix-context OCs hold (the second half of the
  // Sec. 2.2 mapping), via the OC-only entry point.
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    EncodedTable t = testing_util::RandomEncodedTable(
        rng.UniformInt(2, 12), 4, rng.UniformInt(1, 3), rng.NextUint64());
    std::vector<int> x = {static_cast<int>(rng.UniformInt(0, 3)),
                          static_cast<int>(rng.UniformInt(0, 3))};
    std::vector<int> y = {static_cast<int>(rng.UniformInt(0, 3))};
    ListOd od{x, y};
    bool direct = ValidateListOcExact(t, od);
    // Canonical OC members only (ignore the OFD half of the OD mapping).
    bool parts = true;
    CanonicalOdSet mapped = MapListOdToCanonical(od);
    for (const auto& oc : mapped.ocs) {
      if (oc.a == oc.b) continue;
      if (!OcHoldsNaive(t, oc.context, oc.a, oc.b)) parts = false;
    }
    ASSERT_EQ(direct, parts) << od.ToString();
  }
}

// ------------------------------------------------- interestingness --

TEST(InterestingnessTest, EmptyContextScoresOne) {
  StrippedPartition whole = StrippedPartition::WholeRelation(100);
  EXPECT_DOUBLE_EQ(InterestingnessScore(whole, 0, 100), 1.0);
}

TEST(InterestingnessTest, DecreasesWithContextSize) {
  StrippedPartition p = StrippedPartition::FromClasses(
      {{0, 1, 2, 3}, {4, 5, 6, 7}});  // full coverage of 8 rows
  double level1 = InterestingnessScore(p, 1, 8);
  double level2 = InterestingnessScore(p, 2, 8);
  double level3 = InterestingnessScore(p, 3, 8);
  EXPECT_GT(level1, level2);
  EXPECT_GT(level2, level3);
  EXPECT_DOUBLE_EQ(level1, 0.5);  // coverage 1.0 / 2^1
}

TEST(InterestingnessTest, IncreasesWithCoverage) {
  StrippedPartition wide =
      StrippedPartition::FromClasses({{0, 1, 2, 3, 4, 5, 6, 7}});
  StrippedPartition narrow = StrippedPartition::FromClasses({{0, 1}});
  EXPECT_GT(InterestingnessScore(wide, 1, 8),
            InterestingnessScore(narrow, 1, 8));
}

TEST(InterestingnessTest, ZeroRowsIsZero) {
  StrippedPartition empty = StrippedPartition::FromClasses({});
  EXPECT_DOUBLE_EQ(InterestingnessScore(empty, 1, 0), 0.0);
}

}  // namespace
}  // namespace aod
