// Tests for src/algo: LNDS, Fenwick trees, inversion counting.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "algo/fenwick.h"
#include "algo/inversions.h"
#include "algo/lnds.h"
#include "gen/random.h"
#include "test_util.h"

namespace aod {
namespace {

// -------------------------------------------------------------- Fenwick --

TEST(FenwickTest, PointUpdatesAndPrefixSums) {
  FenwickTree t(10);
  t.Add(0, 3);
  t.Add(4, 2);
  t.Add(9, 5);
  EXPECT_EQ(t.PrefixSum(0), 3);
  EXPECT_EQ(t.PrefixSum(3), 3);
  EXPECT_EQ(t.PrefixSum(4), 5);
  EXPECT_EQ(t.PrefixSum(9), 10);
  EXPECT_EQ(t.RangeSum(1, 4), 2);
  EXPECT_EQ(t.RangeSum(5, 8), 0);
  EXPECT_EQ(t.RangeSum(7, 3), 0);  // empty range
  EXPECT_EQ(t.Total(), 10);
}

TEST(FenwickTest, NegativePrefixIndexIsZero) {
  FenwickTree t(4);
  t.Add(0, 1);
  EXPECT_EQ(t.PrefixSum(-1), 0);
}

TEST(FenwickTest, ResetClears) {
  FenwickTree t(4);
  t.Add(2, 7);
  t.Reset();
  EXPECT_EQ(t.Total(), 0);
}

TEST(FenwickTest, MatchesNaivePrefixSums) {
  Rng rng(99);
  const int n = 64;
  FenwickTree t(n);
  std::vector<int64_t> ref(n, 0);
  for (int step = 0; step < 500; ++step) {
    int i = static_cast<int>(rng.UniformInt(0, n - 1));
    int64_t d = rng.UniformInt(-5, 5);
    t.Add(i, d);
    ref[static_cast<size_t>(i)] += d;
    int q = static_cast<int>(rng.UniformInt(0, n - 1));
    int64_t expect = std::accumulate(ref.begin(), ref.begin() + q + 1,
                                     int64_t{0});
    ASSERT_EQ(t.PrefixSum(q), expect);
  }
}

// ----------------------------------------------------------------- LNDS --

TEST(LndsTest, PaperExample32) {
  // Example 3.2: tax projection after sorting Table 1 by [sal, tax]:
  // [2, 2.5, 0.3, 12, 1.5, 16.5, 1.8, 7.2, 16] (in K). Using x10 ints.
  std::vector<int32_t> tax = {20, 25, 3, 120, 15, 165, 18, 72, 160};
  EXPECT_EQ(LndsLength(tax), 5);  // [0.3, 1.5, 1.8, 7.2, 16]
  std::vector<int32_t> kept = LndsIndices(tax);
  ASSERT_EQ(kept.size(), 5u);
  // The removed positions are {0, 1, 3, 5} = tuples t1, t2, t4, t6.
  EXPECT_EQ(LndsComplement(tax), (std::vector<int32_t>{0, 1, 3, 5}));
}

TEST(LndsTest, EmptyAndSingleton) {
  EXPECT_EQ(LndsLength({}), 0);
  EXPECT_TRUE(LndsIndices({}).empty());
  EXPECT_EQ(LndsLength({7}), 1);
  EXPECT_EQ(LndsIndices({7}), (std::vector<int32_t>{0}));
}

TEST(LndsTest, AllEqualIsNonDecreasing) {
  std::vector<int32_t> xs(10, 5);
  EXPECT_EQ(LndsLength(xs), 10);
  EXPECT_TRUE(LndsComplement(xs).empty());
}

TEST(LndsTest, StrictlyDecreasingKeepsOne) {
  EXPECT_EQ(LndsLength({5, 4, 3, 2, 1}), 1);
  EXPECT_EQ(LndsComplement({5, 4, 3, 2, 1}).size(), 4u);
}

TEST(LndsTest, RepeatedValuesExtendTheRun) {
  std::vector<int32_t> xs = {1, 2, 2, 3, 3, 3};
  EXPECT_EQ(LndsLength(xs), 6);
}

// Property suite: LNDS against the O(m^2) DP oracle; reconstruction is a
// valid non-decreasing subsequence of maximal length.
class LndsPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(LndsPropertyTest, MatchesQuadraticOracle) {
  auto [seed, n, cardinality] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<int32_t> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(static_cast<int32_t>(rng.UniformInt(0, cardinality - 1)));
    }
    int64_t expect = testing_util::LndsLengthNaive(xs);
    ASSERT_EQ(LndsLength(xs), expect);

    std::vector<int32_t> kept = LndsIndices(xs);
    ASSERT_EQ(static_cast<int64_t>(kept.size()), expect);
    for (size_t i = 1; i < kept.size(); ++i) {
      ASSERT_LT(kept[i - 1], kept[i]) << "positions must ascend";
      ASSERT_LE(xs[static_cast<size_t>(kept[i - 1])],
                xs[static_cast<size_t>(kept[i])])
          << "values must be non-decreasing";
    }
    std::vector<int32_t> removed = LndsComplement(xs);
    ASSERT_EQ(removed.size() + kept.size(), xs.size());

    // A reused tails buffer, and the in-class bound: exact within the
    // budget, budget + 1 (a lower bound) beyond it.
    std::vector<int32_t> tails = {99, 98};  // stale contents are ignored
    const int64_t full = n - expect;
    ASSERT_EQ(LndsRemovals(xs, std::numeric_limits<int64_t>::max(), tails),
              full);
    for (int64_t budget : {int64_t{0}, full / 2, full - 1, full, full + 3}) {
      if (budget < 0) continue;
      const int64_t got = LndsRemovals(xs, budget, tails);
      ASSERT_EQ(got, full <= budget ? full : budget + 1)
          << "budget=" << budget << " full=" << full;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LndsPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(11, 22, 33),
                       ::testing::Values(1, 5, 40, 120),
                       ::testing::Values(2, 8, 1000)));

// --------------------------------------------------- Successor-set LNDS --

enum class Shape { kRandom, kSorted, kReversed, kAllEqual };

/// `n` values in [0, domain): uniform, then sorted, reverse-sorted or
/// collapsed to one value.
std::vector<int32_t> ShapedSequence(Shape shape, int64_t n, int32_t domain,
                                    Rng& rng) {
  std::vector<int32_t> xs;
  for (int64_t i = 0; i < n; ++i) {
    xs.push_back(static_cast<int32_t>(rng.UniformInt(0, domain - 1)));
  }
  switch (shape) {
    case Shape::kRandom:
      break;
    case Shape::kSorted:
      std::sort(xs.begin(), xs.end());
      break;
    case Shape::kReversed:
      std::sort(xs.rbegin(), xs.rend());
      break;
    case Shape::kAllEqual:
      if (n > 0) xs.assign(xs.size(), xs[0]);
      break;
  }
  return xs;
}

// LndsRemovalsBySuccessor against the quadratic oracle and the patience
// LndsRemovals, over domains on both sides of every 64-ary level boundary,
// and with one counts/bits scratch shared by every call in a shuffled
// domain order, so a count or bit left behind by one call's reset shows
// up in the next call or in the all-zero check.
class LndsSuccessorTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LndsSuccessorTest, MatchesPatienceAndQuadraticOracle) {
  Rng rng(GetParam());
  std::vector<int32_t> domains = {1,       2,    63,   64,   65,
                                  4095,    4096, 4097, 1 << 18,
                                  (1 << 18) + 1, 1 << 20};
  rng.Shuffle(&domains);
  std::vector<int32_t> counts(size_t{1} << 20, 0);
  std::vector<uint64_t> bits;
  std::vector<int32_t> tails;
  constexpr int64_t kNoBudget = std::numeric_limits<int64_t>::max();
  for (int32_t domain : domains) {
    for (Shape shape : {Shape::kRandom, Shape::kSorted, Shape::kReversed,
                        Shape::kAllEqual}) {
      // The oracle is quadratic, so the long sequences meet only the
      // patience search.
      for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{70}, int64_t{300},
                        int64_t{5000}}) {
        const std::vector<int32_t> xs = ShapedSequence(shape, n, domain, rng);
        const int64_t full = LndsRemovals(xs, kNoBudget, tails);
        if (n <= 300) {
          ASSERT_EQ(full, n - testing_util::LndsLengthNaive(xs));
        }
        for (int64_t budget : {int64_t{0}, full / 3, kNoBudget}) {
          SCOPED_TRACE(testing::Message()
                       << "domain=" << domain << " shape="
                       << static_cast<int>(shape) << " n=" << n
                       << " budget=" << budget);
          const int64_t got =
              LndsRemovalsBySuccessor(xs, domain, budget, counts, bits);
          ASSERT_EQ(got, full <= budget ? full : budget + 1);
          ASSERT_EQ(got, LndsRemovals(xs, budget, tails));
          ASSERT_TRUE(std::all_of(counts.begin(), counts.end(),
                                  [](int32_t c) { return c == 0; }));
          ASSERT_TRUE(std::all_of(bits.begin(), bits.end(),
                                  [](uint64_t w) { return w == 0; }));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LndsSuccessorTest,
                         ::testing::Values<uint64_t>(51, 52));

// ------------------------------------------------------------ Inversions --

TEST(InversionsTest, SimpleCases) {
  EXPECT_EQ(CountInversions({}), 0);
  EXPECT_EQ(CountInversions({1}), 0);
  EXPECT_EQ(CountInversions({1, 2, 3}), 0);
  EXPECT_EQ(CountInversions({3, 2, 1}), 3);
  EXPECT_EQ(CountInversions({2, 2, 2}), 0);  // ties are not inversions
  EXPECT_EQ(CountInversions({2, 1, 2, 1}), 3);
}

TEST(InversionsTest, PerElementSimple) {
  // xs = [3, 1, 2]: inversions (0,1), (0,2).
  EXPECT_EQ(PerElementInversions({3, 1, 2}),
            (std::vector<int64_t>{2, 1, 1}));
  EXPECT_EQ(PerElementInversions({}), (std::vector<int64_t>{}));
  EXPECT_EQ(PerElementInversions({5, 5}), (std::vector<int64_t>{0, 0}));
}

class InversionsPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int, int>> {};

TEST_P(InversionsPropertyTest, MatchesNaive) {
  auto [seed, n, cardinality] = GetParam();
  Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int32_t> xs;
    for (int i = 0; i < n; ++i) {
      xs.push_back(static_cast<int32_t>(rng.UniformInt(0, cardinality - 1)));
    }
    ASSERT_EQ(CountInversions(xs), CountInversionsNaive(xs));
    std::vector<int64_t> per = PerElementInversions(xs);
    std::vector<int64_t> ref = PerElementInversionsNaive(xs);
    ASSERT_EQ(per, ref);
    // Each inversion involves exactly two elements.
    int64_t total = std::accumulate(per.begin(), per.end(), int64_t{0});
    ASSERT_EQ(total, 2 * CountInversions(xs));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InversionsPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(7, 8),
                       ::testing::Values(2, 17, 90),
                       ::testing::Values(2, 6, 500)));

}  // namespace
}  // namespace aod
