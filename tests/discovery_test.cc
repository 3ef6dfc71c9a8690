// Tests for the discovery framework: lattice mechanics, end-to-end
// discovery on the paper's Table 1, soundness/minimality/completeness
// properties on random tables, validator-equivalence, stats and ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gen/flight_generator.h"
#include "gen/random.h"
#include "od/discovery.h"
#include "od/lattice.h"
#include "od/ofd_validator.h"
#include "od/aoc_lis_validator.h"
#include "test_util.h"

namespace aod {
namespace {

using testing_util::NaivePartition;
using testing_util::OcHoldsNaive;
using testing_util::OfdHoldsNaive;

// --------------------------------------------------------------- Lattice --

TEST(LatticeTest, FirstLevel) {
  LatticeLevel l1 = LatticeLevel::MakeFirstLevel(4);
  EXPECT_EQ(l1.size(), 4);
  const LatticeNode* node = l1.Find(AttributeSet::Of({2}));
  ASSERT_NE(node, nullptr);
  for (AttributeSet cc : node->cc) EXPECT_EQ(cc, AttributeSet::FullSet(4));
}

TEST(LatticeTest, GenerateNextJoinsPrefixBlocks) {
  LatticeLevel l1 = LatticeLevel::MakeFirstLevel(4);
  LatticeLevel l2 = l1.GenerateNext();
  EXPECT_EQ(l2.level(), 2);
  EXPECT_EQ(l2.size(), 6);  // C(4,2)
  LatticeLevel l3 = l2.GenerateNext();
  EXPECT_EQ(l3.size(), 4);  // C(4,3)
}

TEST(LatticeTest, DeletedNodeBlocksSupersets) {
  LatticeLevel l1 = LatticeLevel::MakeFirstLevel(3);
  l1.Erase(AttributeSet::Of({1}));
  LatticeLevel l2 = l1.GenerateNext();
  // Only {0,2} survives: {0,1} and {1,2} lack the subset {1}.
  EXPECT_EQ(l2.size(), 1);
  EXPECT_NE(l2.Find(AttributeSet::Of({0, 2})), nullptr);
}

TEST(LatticeTest, AttributePairNormalizesOrder) {
  EXPECT_EQ(AttributePair::Of(5, 2), (AttributePair{2, 5}));
  EXPECT_LT(AttributePair::Of(1, 2), AttributePair::Of(1, 3));
}

// -------------------------------------------------- Table 1 end-to-end --

class PaperDiscoveryTest : public ::testing::Test {
 protected:
  EncodedTable table_ = testing_util::PaperEncoded();
};

bool ContainsOc(const DiscoveryResult& result, AttributeSet ctx, int a,
                int b) {
  CanonicalOc want{ctx, a, b};
  const auto ocs = result.Ocs();
  return std::any_of(
      ocs.begin(), ocs.end(),
      [&](const DiscoveredDependency* d) { return d->Oc() == want; });
}

bool ContainsOfd(const DiscoveryResult& result, AttributeSet ctx, int a) {
  CanonicalOfd want{ctx, a};
  const auto ofds = result.Ofds();
  return std::any_of(
      ofds.begin(), ofds.end(),
      [&](const DiscoveredDependency* d) { return d->Ofd() == want; });
}

TEST_F(PaperDiscoveryTest, ExactDiscoveryFindsPaperDependencies) {
  DiscoveryOptions options;
  options.validator = ValidatorKind::kExact;
  DiscoveryResult result = DiscoverOds(table_, options);
  // {}: sal ~ taxGrp (Example 2.4).
  EXPECT_TRUE(ContainsOc(result, AttributeSet(), 2, 3));
  // {sal}: [] -> taxGrp.
  EXPECT_TRUE(ContainsOfd(result, AttributeSet::Of({2}), 3));
  // The dirty OC {}: sal ~ tax must NOT appear exactly.
  EXPECT_FALSE(ContainsOc(result, AttributeSet(), 2, 5));
  EXPECT_FALSE(result.timed_out);
}

TEST_F(PaperDiscoveryTest, ApproximateDiscoveryRecoversDirtyOc) {
  DiscoveryOptions options;
  options.validator = ValidatorKind::kOptimal;
  options.epsilon = 4.0 / 9.0;
  DiscoveryResult result = DiscoverOds(table_, options);
  // With eps = 4/9, sal ~ tax becomes discoverable (Example 2.15).
  ASSERT_TRUE(ContainsOc(result, AttributeSet(), 2, 5));
  const auto ocs = result.Ocs();
  auto it = std::find_if(ocs.begin(), ocs.end(),
                         [&](const DiscoveredDependency* d) {
                           return d->Oc() == CanonicalOc{AttributeSet(), 2, 5};
                         });
  EXPECT_NEAR((*it)->error, 4.0 / 9.0, 1e-9);
  EXPECT_EQ((*it)->removal_size, 4);
}

TEST_F(PaperDiscoveryTest, IterativeMissesBoundaryOc) {
  // Same threshold: the greedy validator overestimates 5/9 > 4/9 and
  // misses the OC — the incompleteness of the prior art.
  DiscoveryOptions options;
  options.validator = ValidatorKind::kIterative;
  options.epsilon = 4.0 / 9.0;
  DiscoveryResult result = DiscoverOds(table_, options);
  EXPECT_FALSE(ContainsOc(result, AttributeSet(), 2, 5));
}

TEST_F(PaperDiscoveryTest, ContextMinimalityOfReportedOcs) {
  DiscoveryOptions options;
  options.validator = ValidatorKind::kOptimal;
  options.epsilon = 0.2;
  DiscoveryResult result = DiscoverOds(table_, options);
  // No reported OC may have a valid strictly-smaller context.
  for (const DiscoveredDependency* d : result.Ocs()) {
    d->context.ForEach([&](int c) {
      AttributeSet sub = d->context.Without(c);
      StrippedPartition partition = NaivePartition(table_, sub);
      ValidationOutcome out =
          ValidateAocOptimal(table_, partition, d->a, d->b, options.epsilon,
                             table_.num_rows());
      EXPECT_FALSE(out.valid)
          << d->ToString(table_) << " is redundant via " << sub.ToString();
    });
  }
}

TEST_F(PaperDiscoveryTest, ZeroEpsilonOptimalEqualsExact) {
  DiscoveryOptions exact;
  exact.validator = ValidatorKind::kExact;
  DiscoveryOptions approx0;
  approx0.validator = ValidatorKind::kOptimal;
  approx0.epsilon = 0.0;
  DiscoveryResult re = DiscoverOds(table_, exact);
  DiscoveryResult ra = DiscoverOds(table_, approx0);
  const auto re_ocs = re.Ocs(), ra_ocs = ra.Ocs();
  const auto re_ofds = re.Ofds(), ra_ofds = ra.Ofds();
  ASSERT_EQ(re_ocs.size(), ra_ocs.size());
  ASSERT_EQ(re_ofds.size(), ra_ofds.size());
  for (size_t i = 0; i < re_ocs.size(); ++i) {
    EXPECT_TRUE(re_ocs[i]->Oc() == ra_ocs[i]->Oc());
  }
  for (size_t i = 0; i < re_ofds.size(); ++i) {
    EXPECT_TRUE(re_ofds[i]->Ofd() == ra_ofds[i]->Ofd());
  }
}

TEST_F(PaperDiscoveryTest, StatsAreConsistent) {
  DiscoveryOptions options;
  options.epsilon = 0.1;
  DiscoveryResult result = DiscoverOds(table_, options);
  const DiscoveryStats& s = result.stats;
  EXPECT_EQ(s.TotalOcs(), result.CountOfKind(DependencyKind::kOc));
  EXPECT_EQ(s.Total(DependencyKind::kOfd),
            result.CountOfKind(DependencyKind::kOfd));
  EXPECT_GT(s.nodes_processed, 0);
  EXPECT_GT(s.levels_processed, 1);
  EXPECT_GT(s.oc_candidates_validated, 0);
  EXPECT_GT(s.total_seconds, 0.0);
  EXPECT_GE(s.OcValidationShare(), 0.0);
  EXPECT_LE(s.OcValidationShare(), 1.0);
  EXPECT_FALSE(s.ToString().empty());
  if (result.CountOfKind(DependencyKind::kOc) > 0) {
    EXPECT_GT(s.AverageOcLevel(), 0.0);
  }
}

TEST_F(PaperDiscoveryTest, SortByInterestingnessIsDescending) {
  DiscoveryOptions options;
  options.epsilon = 0.2;
  DiscoveryResult result = DiscoverOds(table_, options);
  result.SortByInterestingness();
  for (size_t i = 1; i < result.dependencies.size(); ++i) {
    EXPECT_GE(result.dependencies[i - 1].interestingness,
              result.dependencies[i].interestingness);
  }
  EXPECT_FALSE(result.Summary(table_).empty());
}

TEST_F(PaperDiscoveryTest, MaxLevelCapsTraversal) {
  DiscoveryOptions options;
  options.max_level = 2;
  options.epsilon = 0.1;
  DiscoveryResult result = DiscoverOds(table_, options);
  EXPECT_LE(result.stats.levels_processed, 2);
  for (const auto& d : result.dependencies) EXPECT_LE(d.level, 2);
}

TEST(DiscoveryTest, MaxLhsArityIsPrefixConsistent) {
  // The arity bound prunes whole lattice tails, but below the cutoff
  // nothing may change: a bounded run must report exactly the unbounded
  // dependencies whose context (LHS) has <= m attributes, with every
  // payload field bit-identical — the definition of a prefix-consistent
  // subset. Anything else would mean the bound leaked into candidate
  // generation or pruning below the cutoff.
  Table t = GenerateFlightTable(300, 6, 77);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.epsilon = 0.1;
  options.collect_removal_sets = true;
  DiscoveryResult unbounded = DiscoverOds(enc, options);

  auto oc_key = [](const DiscoveredDependency& d) {
    return std::to_string(d.context.bits()) + ":" + std::to_string(d.a) +
           ":" + std::to_string(d.b) + ":" + (d.opposite ? "1" : "0");
  };
  auto ofd_key = [](const DiscoveredDependency& d) {
    return std::to_string(d.context.bits()) + ":" + std::to_string(d.a);
  };
  auto arity = [](uint64_t context_bits) {
    return __builtin_popcountll(context_bits);
  };

  for (int m : {1, 2, 3}) {
    SCOPED_TRACE("max_lhs_arity=" + std::to_string(m));
    options.max_lhs_arity = m;
    DiscoveryResult bounded = DiscoverOds(enc, options);

    std::set<std::string> bounded_ocs;
    for (const DiscoveredDependency* d : bounded.Ocs()) {
      EXPECT_LE(arity(d->context.bits()), m) << oc_key(*d);
      bounded_ocs.insert(oc_key(*d));
    }
    std::set<std::string> bounded_ofds;
    for (const DiscoveredDependency* d : bounded.Ofds()) {
      EXPECT_LE(arity(d->context.bits()), m) << ofd_key(*d);
      bounded_ofds.insert(ofd_key(*d));
    }

    size_t expected_ocs = 0;
    for (const DiscoveredDependency* d : unbounded.Ocs()) {
      if (arity(d->context.bits()) > m) continue;
      ++expected_ocs;
      EXPECT_TRUE(bounded_ocs.count(oc_key(*d)))
          << "missing below the cutoff: " << oc_key(*d);
    }
    size_t expected_ofds = 0;
    for (const DiscoveredDependency* d : unbounded.Ofds()) {
      if (arity(d->context.bits()) > m) continue;
      ++expected_ofds;
      EXPECT_TRUE(bounded_ofds.count(ofd_key(*d)))
          << "missing below the cutoff: " << ofd_key(*d);
    }
    EXPECT_EQ(bounded.Ocs().size(), expected_ocs);
    EXPECT_EQ(bounded.Ofds().size(), expected_ofds);

    // Field-exact match for the surviving prefix, removal rows included.
    for (const DiscoveredDependency* b : bounded.Ocs()) {
      for (const DiscoveredDependency* u : unbounded.Ocs()) {
        if (oc_key(*u) != oc_key(*b)) continue;
        EXPECT_EQ(b->error, u->error);
        EXPECT_EQ(b->removal_size, u->removal_size);
        EXPECT_EQ(b->level, u->level);
        EXPECT_EQ(b->interestingness, u->interestingness);
        EXPECT_EQ(b->removal_rows, u->removal_rows);
      }
    }
  }

  // The bound composes with sharding: same prefix over the wire.
  options.max_lhs_arity = 2;
  DiscoveryResult bounded = DiscoverOds(enc, options);
  options.num_shards = 2;
  DiscoveryResult sharded = DiscoverOds(enc, options);
  ASSERT_TRUE(sharded.shard_status.ok());
  EXPECT_EQ(sharded.CountOfKind(DependencyKind::kOc),
            bounded.CountOfKind(DependencyKind::kOc));
  EXPECT_EQ(sharded.CountOfKind(DependencyKind::kOfd),
            bounded.CountOfKind(DependencyKind::kOfd));
}

TEST_F(PaperDiscoveryTest, CollectRemovalSets) {
  DiscoveryOptions options;
  options.epsilon = 0.2;
  options.collect_removal_sets = true;
  DiscoveryResult result = DiscoverOds(table_, options);
  for (const DiscoveredDependency* d : result.Ocs()) {
    EXPECT_EQ(static_cast<int64_t>(d->removal_rows.size()), d->removal_size);
  }
}

// ----------------------------------------------- soundness/completeness --

struct DiscoveryPropertyParam {
  uint64_t seed;
  int64_t rows;
  int cols;
  int64_t cardinality;
  double epsilon;
};

class DiscoveryPropertyTest
    : public ::testing::TestWithParam<DiscoveryPropertyParam> {};

TEST_P(DiscoveryPropertyTest, SoundMinimalAndComplete) {
  const auto& p = GetParam();
  EncodedTable t = testing_util::RandomEncodedTable(p.rows, p.cols,
                                                    p.cardinality, p.seed);
  DiscoveryOptions options;
  options.validator = ValidatorKind::kOptimal;
  options.epsilon = p.epsilon;
  DiscoveryResult result = DiscoverOds(t, options);

  auto oc_outcome = [&](AttributeSet ctx, int a, int b) {
    StrippedPartition partition = NaivePartition(t, ctx);
    ValidatorOptions vo;
    vo.early_exit = false;
    return ValidateAocOptimal(t, partition, a, b, 1.0, t.num_rows(), vo);
  };
  auto ofd_outcome = [&](AttributeSet ctx, int a) {
    StrippedPartition partition = NaivePartition(t, ctx);
    ValidatorOptions vo;
    vo.early_exit = false;
    return ValidateOfdApprox(t, partition, a, 1.0, t.num_rows(), vo);
  };
  auto oc_factor = [&](AttributeSet ctx, int a, int b) {
    return oc_outcome(ctx, a, b).approx_factor;
  };
  auto ofd_factor = [&](AttributeSet ctx, int a) {
    return ofd_outcome(ctx, a).approx_factor;
  };

  // Soundness: every reported dependency is valid at the threshold.
  for (const DiscoveredDependency* d : result.Ocs()) {
    EXPECT_LE(d->error, p.epsilon + 1e-9) << d->Oc().ToString();
    EXPECT_NEAR(oc_factor(d->context, d->a, d->b), d->error, 1e-9)
        << d->Oc().ToString();
  }
  for (const DiscoveredDependency* d : result.Ofds()) {
    EXPECT_LE(d->error, p.epsilon + 1e-9) << d->Ofd().ToString();
    EXPECT_NEAR(ofd_factor(d->context, d->a), d->error, 1e-9)
        << d->Ofd().ToString();
  }

  // Context minimality: no reported dependency holds in a sub-context.
  const int64_t max_rm = MaxRemovals(p.epsilon, t.num_rows());
  auto oc_valid = [&](AttributeSet ctx, int a, int b) {
    return oc_outcome(ctx, a, b).removal_size <= max_rm;
  };
  auto ofd_valid = [&](AttributeSet ctx, int a) {
    return ofd_outcome(ctx, a).removal_size <= max_rm;
  };
  for (const DiscoveredDependency* d : result.Ocs()) {
    d->context.ForEach([&](int c) {
      EXPECT_FALSE(oc_valid(d->context.Without(c), d->a, d->b))
          << "non-minimal " << d->Oc().ToString();
    });
  }
  for (const DiscoveredDependency* d : result.Ofds()) {
    d->context.ForEach([&](int c) {
      EXPECT_FALSE(ofd_valid(d->context.Without(c), d->a))
          << "non-minimal " << d->Ofd().ToString();
    });
  }

  // Completeness modulo the framework's redundancy axioms: every valid
  // candidate is reported, context-minimal-redundant, or excused by a
  // constancy-based pruning rule.
  const auto result_ocs = result.Ocs();
  const auto result_ofds = result.Ofds();
  auto reported_oc = [&](AttributeSet ctx, int a, int b) {
    CanonicalOc want{ctx, a, b};
    return std::any_of(
        result_ocs.begin(), result_ocs.end(),
        [&](const DiscoveredDependency* d) { return d->Oc() == want; });
  };
  auto reported_ofd = [&](AttributeSet ctx, int a) {
    CanonicalOfd want{ctx, a};
    return std::any_of(
        result_ofds.begin(), result_ofds.end(),
        [&](const DiscoveredDependency* d) { return d->Ofd() == want; });
  };
  // A constancy excuse for candidate with context `ctx` and sides
  // `sides`: some valid OFD whose context+target fit inside ctx ∪ sides.
  auto constancy_excuse = [&](AttributeSet ctx, AttributeSet sides) {
    AttributeSet scope = ctx.Union(sides);
    bool excused = false;
    // Enumerate sub-contexts of scope and targets in scope.
    for (uint64_t bits = 0;
         bits < (uint64_t{1} << t.num_columns()) && !excused; ++bits) {
      AttributeSet sub(bits);
      if (!scope.ContainsAll(sub)) continue;
      scope.Difference(sub).ForEach([&](int target) {
        if (!excused && ofd_valid(sub, target)) excused = true;
      });
    }
    return excused;
  };

  const int k = t.num_columns();
  for (uint64_t bits = 0; bits < (uint64_t{1} << k); ++bits) {
    AttributeSet ctx(bits);
    // OFD candidates.
    for (int a = 0; a < k; ++a) {
      if (ctx.Contains(a)) continue;
      if (!ofd_valid(ctx, a)) continue;
      bool minimal = true;
      ctx.ForEach([&](int c) {
        if (ofd_valid(ctx.Without(c), a)) minimal = false;
      });
      if (!minimal) continue;
      EXPECT_TRUE(reported_ofd(ctx, a) ||
                  constancy_excuse(ctx, AttributeSet::Of({a})))
          << "missing OFD " << CanonicalOfd{ctx, a}.ToString();
    }
    // OC candidates.
    for (int a = 0; a < k; ++a) {
      for (int b = a + 1; b < k; ++b) {
        if (ctx.Contains(a) || ctx.Contains(b)) continue;
        if (!oc_valid(ctx, a, b)) continue;
        bool minimal = true;
        ctx.ForEach([&](int c) {
          if (oc_valid(ctx.Without(c), a, b)) minimal = false;
        });
        if (!minimal) continue;
        EXPECT_TRUE(reported_oc(ctx, a, b) ||
                    constancy_excuse(ctx, AttributeSet::Of({a, b})))
            << "missing OC " << CanonicalOc{ctx, a, b}.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTables, DiscoveryPropertyTest,
    ::testing::Values(
        DiscoveryPropertyParam{401, 30, 4, 3, 0.1},
        DiscoveryPropertyParam{402, 40, 4, 4, 0.15},
        DiscoveryPropertyParam{403, 25, 5, 2, 0.1},
        DiscoveryPropertyParam{404, 50, 4, 5, 0.05},
        DiscoveryPropertyParam{405, 35, 5, 3, 0.2},
        DiscoveryPropertyParam{406, 20, 4, 3, 0.0}));

// -------------------------------------------- operational behaviours --

TEST(DiscoveryTest, TimeBudgetProducesPartialResult) {
  Table t = GenerateFlightTable(4000, 10, 3);
  EncodedTable enc = EncodeTable(t);
  DiscoveryOptions options;
  options.validator = ValidatorKind::kIterative;
  options.epsilon = 0.1;
  options.time_budget_seconds = 1e-4;  // practically instant expiry
  DiscoveryResult result = DiscoverOds(enc, options);
  EXPECT_TRUE(result.timed_out);
}

TEST(DiscoveryTest, ConstantColumnFoundAtLevelOne) {
  EncodedTable t = EncodedTableFromInts(
      {"konst", "x"}, {{7, 7, 7, 7}, {1, 2, 3, 1}});
  DiscoveryOptions options;
  options.validator = ValidatorKind::kExact;
  DiscoveryResult result = DiscoverOds(t, options);
  const auto ofds = result.Ofds();
  ASSERT_EQ(ofds.size(), 1u);
  EXPECT_TRUE(ofds[0]->Ofd() == (CanonicalOfd{AttributeSet(), 0}));
  EXPECT_EQ(ofds[0]->level, 1);
  // No OC involving the constant column is reported (trivially true).
  for (const DiscoveredDependency* d : result.Ocs()) {
    EXPECT_NE(d->a, 0);
    EXPECT_NE(d->b, 0);
  }
}

TEST(DiscoveryTest, KeyColumnPrunesTrivialOcs) {
  // c0 is a key: every {c0}-context OC is vacuous and must be pruned, not
  // reported.
  EncodedTable t = EncodedTableFromInts(
      {"key", "x", "y"},
      {{0, 1, 2, 3, 4, 5}, {3, 1, 4, 1, 5, 9}, {2, 7, 1, 8, 2, 8}});
  DiscoveryOptions options;
  options.epsilon = 0.0;
  options.validator = ValidatorKind::kOptimal;
  DiscoveryResult result = DiscoverOds(t, options);
  for (const DiscoveredDependency* d : result.Ocs()) {
    EXPECT_FALSE(d->context.Contains(0)) << d->ToString(t);
  }
  EXPECT_GT(result.stats.oc_candidates_pruned, 0);
}

TEST(DiscoveryTest, EmptyAndSingleRowTables) {
  EncodedTable empty = EncodedTableFromInts({"a", "b"}, {{}, {}});
  DiscoveryResult r1 = DiscoverOds(empty);
  // Vacuously, everything holds on <= 1 rows; the framework reports the
  // trivial constants at level 1 and prunes the rest.
  EncodedTable one = EncodedTableFromInts({"a", "b"}, {{5}, {6}});
  DiscoveryResult r2 = DiscoverOds(one);
  EXPECT_FALSE(r1.timed_out);
  EXPECT_FALSE(r2.timed_out);
}

TEST(DiscoveryTest, EpsilonMonotonicity) {
  // A larger threshold can only grow the set of valid candidates; since
  // pruning interacts, we check the weaker, still meaningful property
  // that every OC reported at eps=0 (exactly valid, minimal) is also
  // reported at a larger eps unless subsumed by a lower-level AOC.
  EncodedTable t = testing_util::RandomEncodedTable(60, 4, 4, 777);
  DiscoveryOptions small;
  small.epsilon = 0.0;
  DiscoveryOptions big;
  big.epsilon = 0.3;
  DiscoveryResult rs = DiscoverOds(t, small);
  DiscoveryResult rb = DiscoverOds(t, big);
  const auto rb_ocs = rb.Ocs();
  for (const DiscoveredDependency* d : rs.Ocs()) {
    bool reported = std::any_of(
        rb_ocs.begin(), rb_ocs.end(),
        [&](const DiscoveredDependency* x) { return x->Oc() == d->Oc(); });
    bool subsumed = false;
    for (const DiscoveredDependency* x : rb_ocs) {
      if (x->a == d->a && x->b == d->b &&
          d->context.ContainsAll(x->context) && !(x->Oc() == d->Oc())) {
        subsumed = true;
      }
    }
    // Or excused by an approximate OFD that makes it trivial.
    bool constancy = false;
    for (const DiscoveredDependency* f : rb.Ofds()) {
      AttributeSet scope = d->context.Union(AttributeSet::Of({d->a, d->b}));
      if (scope.ContainsAll(f->context.With(f->a))) constancy = true;
    }
    EXPECT_TRUE(reported || subsumed || constancy) << d->ToString(t);
  }
}

TEST(DiscoveryDeathTest, RejectsBadEpsilon) {
  EncodedTable t = testing_util::RandomEncodedTable(5, 2, 2, 1);
  DiscoveryOptions options;
  options.epsilon = 1.5;
  EXPECT_DEATH(DiscoverOds(t, options), "epsilon");
}

TEST(ValidatorKindTest, Names) {
  EXPECT_STREQ(ValidatorKindToString(ValidatorKind::kExact), "OD (exact)");
  EXPECT_STREQ(ValidatorKindToString(ValidatorKind::kIterative),
               "AOD (iterative)");
  EXPECT_STREQ(ValidatorKindToString(ValidatorKind::kOptimal),
               "AOD (optimal)");
}

}  // namespace
}  // namespace aod
