// Ground truth for the FD/AFD kinds of the multi-dependency platform:
// hand-checked tables in the style of the Desbordante FD-mining guide
// (minimal, non-trivial FDs with a single attribute on the right; AFDs
// thresholded on the g1 pair error), validator-level g1 arithmetic,
// threshold monotonicity, kind independence and top-k ranking.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "od/discovery.h"
#include "od/fd_validator.h"
#include "test_util.h"

namespace aod {
namespace {

using testing_util::NaivePartition;

/// Definition-based FD check: X -> a holds iff rows agreeing on X agree
/// on a. (Identical to the exact-OFD predicate; restated here so FD
/// tests don't lean on the OFD oracle they are meant to cross-check.)
bool FdHoldsNaive(const EncodedTable& table, AttributeSet context, int a) {
  for (int64_t s = 0; s < table.num_rows(); ++s) {
    for (int64_t t = s + 1; t < table.num_rows(); ++t) {
      bool same_context = true;
      context.ForEach([&](int c) {
        if (table.ranks(c)[static_cast<size_t>(s)] !=
            table.ranks(c)[static_cast<size_t>(t)]) {
          same_context = false;
        }
      });
      if (same_context && table.ranks(a)[static_cast<size_t>(s)] !=
                              table.ranks(a)[static_cast<size_t>(t)]) {
        return false;
      }
    }
  }
  return true;
}

/// g1 straight from the definition: ordered pairs agreeing on the
/// context but not on the target, over |r|^2.
double G1Naive(const EncodedTable& table, AttributeSet context, int a) {
  const int64_t n = table.num_rows();
  if (n == 0) return 0.0;
  int64_t violations = 0;
  for (int64_t s = 0; s < n; ++s) {
    for (int64_t t = 0; t < n; ++t) {
      bool same_context = true;
      context.ForEach([&](int c) {
        if (table.ranks(c)[static_cast<size_t>(s)] !=
            table.ranks(c)[static_cast<size_t>(t)]) {
          same_context = false;
        }
      });
      if (same_context && table.ranks(a)[static_cast<size_t>(s)] !=
                              table.ranks(a)[static_cast<size_t>(t)]) {
        ++violations;
      }
    }
  }
  return static_cast<double>(violations) / static_cast<double>(n * n);
}

bool ContainsFd(const DiscoveryResult& result, AttributeSet ctx, int a) {
  const auto fds = result.Fds();
  return std::any_of(fds.begin(), fds.end(),
                     [&](const DiscoveredDependency* d) {
                       return d->context == ctx && d->a == a;
                     });
}

bool ContainsAfd(const DiscoveryResult& result, AttributeSet ctx, int a) {
  const auto afds = result.Afds();
  return std::any_of(afds.begin(), afds.end(),
                     [&](const DiscoveredDependency* d) {
                       return d->context == ctx && d->a == a;
                     });
}

DiscoveryOptions FdOnly() {
  DiscoveryOptions options;
  options.kinds = DependencyKindSet().With(DependencyKind::kFd);
  return options;
}

DiscoveryOptions AfdOnly(double afd_error) {
  DiscoveryOptions options;
  options.kinds = DependencyKindSet().With(DependencyKind::kAfd);
  options.afd_error = afd_error;
  return options;
}

// ------------------------------------------------------- exact FDs --

TEST(FdDiscoveryTest, BijectiveColumnsYieldAllSingleAttributeFds) {
  // a, b, c pairwise determine each other; the six minimal FDs are the
  // single-attribute ones, and minimality prunes every two-attribute
  // LHS (the guide's "excluding the self-evident ones ... minimizing
  // its size": AB -> C never appears once A -> C holds).
  EncodedTable t = EncodedTableFromInts(
      {"a", "b", "c"},
      {{0, 0, 1, 1, 2, 2}, {1, 1, 2, 2, 3, 3}, {5, 5, 4, 4, 3, 3}});
  DiscoveryResult result = DiscoverOds(t, FdOnly());
  EXPECT_EQ(result.CountOfKind(DependencyKind::kFd), 6);
  for (int x : {0, 1, 2}) {
    for (int y : {0, 1, 2}) {
      if (x == y) continue;
      EXPECT_TRUE(ContainsFd(result, AttributeSet::Of({x}), y))
          << "missing {c" << x << "} -> c" << y;
    }
  }
  // Only the FD kind ran; nothing else is in the result and the stats
  // say so.
  EXPECT_EQ(result.CountOfKind(DependencyKind::kOc), 0);
  EXPECT_EQ(result.CountOfKind(DependencyKind::kOfd), 0);
  EXPECT_EQ(result.CountOfKind(DependencyKind::kAfd), 0);
  EXPECT_EQ(result.stats.oc_candidates_validated, 0);
  EXPECT_EQ(result.stats.ofd_candidates_validated, 0);
  EXPECT_GT(result.stats.fd_candidates_validated, 0);
  for (const DiscoveredDependency* d : result.Fds()) {
    EXPECT_EQ(d->kind, DependencyKind::kFd);
    EXPECT_EQ(d->error, 0.0);  // exact FDs carry error 0 by definition
    EXPECT_EQ(d->b, -1);
    EXPECT_FALSE(d->opposite);
    EXPECT_EQ(d->level, 2);
  }
}

TEST(FdDiscoveryTest, ConstantColumnIsTheLevelOneFd) {
  EncodedTable t = EncodedTableFromInts(
      {"konst", "x"}, {{7, 7, 7, 7}, {1, 2, 3, 1}});
  DiscoveryResult result = DiscoverOds(t, FdOnly());
  // {} -> konst at level 1; minimality suppresses {x} -> konst.
  ASSERT_EQ(result.CountOfKind(DependencyKind::kFd), 1);
  EXPECT_TRUE(ContainsFd(result, AttributeSet(), 0));
  EXPECT_EQ(result.Fds()[0]->level, 1);
}

TEST(FdDiscoveryTest, CompositeLhsWhenNoSingletonDetermines) {
  // The guide's arity example shape: only {a, b} -> c holds (c is the
  // pair index), no single attribute determines anything.
  EncodedTable t = EncodedTableFromInts(
      {"a", "b", "c"},
      {{0, 0, 1, 1}, {0, 1, 0, 1}, {0, 1, 2, 3}});
  DiscoveryResult result = DiscoverOds(t, FdOnly());
  // c is a key: {c} -> a and {c} -> b hold; {a,b} -> c is the one
  // composite-LHS FD.
  EXPECT_TRUE(ContainsFd(result, AttributeSet::Of({0, 1}), 2));
  EXPECT_TRUE(ContainsFd(result, AttributeSet::Of({2}), 0));
  EXPECT_TRUE(ContainsFd(result, AttributeSet::Of({2}), 1));
  EXPECT_EQ(result.CountOfKind(DependencyKind::kFd), 3);

  // The guide's arity constraint: with max LHS size 1, the composite FD
  // disappears and the single-attribute ones survive unchanged.
  DiscoveryOptions bounded = FdOnly();
  bounded.max_lhs_arity = 1;
  DiscoveryResult r1 = DiscoverOds(t, bounded);
  EXPECT_FALSE(ContainsFd(r1, AttributeSet::Of({0, 1}), 2));
  EXPECT_TRUE(ContainsFd(r1, AttributeSet::Of({2}), 0));
  EXPECT_TRUE(ContainsFd(r1, AttributeSet::Of({2}), 1));
}

TEST(FdDiscoveryTest, SoundMinimalAndCompleteOnRandomTables) {
  for (uint64_t seed : {3u, 14u, 159u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EncodedTable t = testing_util::RandomEncodedTable(40, 4, 3, seed);
    DiscoveryResult result = DiscoverOds(t, FdOnly());
    // Sound and context-minimal against the definition.
    for (const DiscoveredDependency* d : result.Fds()) {
      EXPECT_TRUE(FdHoldsNaive(t, d->context, d->a)) << d->ToString(t);
      d->context.ForEach([&](int c) {
        EXPECT_FALSE(FdHoldsNaive(t, d->context.Without(c), d->a))
            << "non-minimal " << d->ToString(t);
      });
    }
    // Complete: every valid minimal FD over <= 3 LHS attributes is
    // reported (4 columns, so a candidate's LHS has at most 3).
    for (uint64_t bits = 0; bits < 16; ++bits) {
      AttributeSet ctx(bits);
      for (int a = 0; a < 4; ++a) {
        if (ctx.Contains(a)) continue;
        if (!FdHoldsNaive(t, ctx, a)) continue;
        bool minimal = true;
        ctx.ForEach([&](int c) {
          if (FdHoldsNaive(t, ctx.Without(c), a)) minimal = false;
        });
        EXPECT_EQ(ContainsFd(result, ctx, a), minimal)
            << ctx.ToString() << " -> c" << a;
      }
    }
  }
}

TEST(FdDiscoveryTest, ExactFdsMatchExactOfdsAsSets) {
  // An exact OFD X: [] -> A is the FD X -> A, so under the exact
  // validator the two kinds must mine identical (context, target) sets —
  // the cheapest cross-check that the FD plumbing agrees with code that
  // predates it.
  EncodedTable t = testing_util::RandomEncodedTable(60, 4, 4, 2718);
  DiscoveryResult fds = DiscoverOds(t, FdOnly());
  DiscoveryOptions ofd_only;
  ofd_only.kinds = DependencyKindSet().With(DependencyKind::kOfd);
  ofd_only.validator = ValidatorKind::kExact;
  DiscoveryResult ofds = DiscoverOds(t, ofd_only);
  std::set<std::pair<uint64_t, int>> fd_set, ofd_set;
  for (const DiscoveredDependency* d : fds.Fds()) {
    fd_set.emplace(d->context.bits(), d->a);
  }
  for (const DiscoveredDependency* d : ofds.Ofds()) {
    ofd_set.emplace(d->context.bits(), d->a);
  }
  EXPECT_EQ(fd_set, ofd_set);
}

// ------------------------------------------------------------ AFDs --

TEST(AfdValidatorTest, G1MatchesHandComputedCounts) {
  // Two context classes {r0,r1} and {r2,r3}; target agrees on the first
  // and splits on the second: 2 violating ordered pairs of 16 total.
  EncodedTable t = EncodedTableFromInts(
      {"x", "y"}, {{0, 0, 1, 1}, {1, 1, 2, 3}});
  StrippedPartition ctx = NaivePartition(t, AttributeSet::Of({0}));
  ValidatorOptions full;
  full.early_exit = false;
  ValidationOutcome out = ValidateAfdG1(t, ctx, 1, 1.0, 4, full);
  EXPECT_NEAR(out.approx_factor, 2.0 / 16.0, 1e-12);
  EXPECT_NEAR(out.approx_factor, G1Naive(t, AttributeSet::Of({0}), 1),
              1e-12);
  EXPECT_EQ(out.removal_size, 1);  // drop one row of the split class
  EXPECT_TRUE(out.valid);

  // The threshold is inclusive at the exact boundary and strict below.
  EXPECT_TRUE(ValidateAfdG1(t, ctx, 1, 0.125, 4, full).valid);
  EXPECT_FALSE(ValidateAfdG1(t, ctx, 1, 0.1249, 4, full).valid);
  // Early exit stays a lower bound with the invalid verdict.
  ValidatorOptions fast;
  ValidationOutcome early = ValidateAfdG1(t, ctx, 1, 0.01, 4, fast);
  EXPECT_FALSE(early.valid);
  EXPECT_LE(early.approx_factor, 2.0 / 16.0 + 1e-12);
}

TEST(AfdValidatorTest, G1MatchesDefinitionOnRandomContexts) {
  EncodedTable t = testing_util::RandomEncodedTable(30, 3, 3, 99);
  ValidatorOptions full;
  full.early_exit = false;
  for (uint64_t bits = 0; bits < 8; ++bits) {
    AttributeSet ctx(bits);
    StrippedPartition partition = NaivePartition(t, ctx);
    for (int a = 0; a < 3; ++a) {
      if (ctx.Contains(a)) continue;
      ValidationOutcome out =
          ValidateAfdG1(t, partition, a, 1.0, t.num_rows(), full);
      EXPECT_NEAR(out.approx_factor, G1Naive(t, ctx, a), 1e-12)
          << ctx.ToString() << " -> c" << a;
    }
  }
}

TEST(AfdDiscoveryTest, ThresholdSeparatesContextsAsComputed) {
  // {} -> y has g1 = 10/16 (one class, target counts 2+1+1); {x} -> y
  // has g1 = 2/16. At 0.125 exactly the level-2 AFD is reported; at 0.7
  // the level-1 AFD subsumes it.
  EncodedTable t = EncodedTableFromInts(
      {"x", "y"}, {{0, 0, 1, 1}, {1, 1, 2, 3}});
  DiscoveryResult tight = DiscoverOds(t, AfdOnly(0.125));
  EXPECT_TRUE(ContainsAfd(tight, AttributeSet::Of({0}), 1));
  EXPECT_FALSE(ContainsAfd(tight, AttributeSet(), 1));
  const auto afds = tight.Afds();
  ASSERT_FALSE(afds.empty());
  for (const DiscoveredDependency* d : afds) {
    EXPECT_EQ(d->kind, DependencyKind::kAfd);
    EXPECT_LE(d->error, 0.125 + 1e-12);
  }

  DiscoveryResult loose = DiscoverOds(t, AfdOnly(0.7));
  EXPECT_TRUE(ContainsAfd(loose, AttributeSet(), 1));
  EXPECT_FALSE(ContainsAfd(loose, AttributeSet::Of({0}), 1))
      << "minimality: the empty-context AFD must suppress its superset";
}

TEST(AfdDiscoveryTest, ReportedErrorsMatchTheDefinition) {
  EncodedTable t = testing_util::RandomEncodedTable(50, 4, 3, 1234);
  DiscoveryResult result = DiscoverOds(t, AfdOnly(0.10));
  ASSERT_GT(result.CountOfKind(DependencyKind::kAfd), 0);
  for (const DiscoveredDependency* d : result.Afds()) {
    EXPECT_LE(d->error, 0.10 + 1e-12) << d->ToString(t);
    EXPECT_NEAR(d->error, G1Naive(t, d->context, d->a), 1e-12)
        << d->ToString(t);
  }
}

TEST(AfdDiscoveryTest, ThresholdMonotonicity) {
  // Generalized containment: raising the threshold can only generalize
  // the answer. Every AFD reported at e1 < e2 is either reported at e2
  // verbatim or replaced by an LHS-subset AFD (which e2 newly admits,
  // making the e1 dependency non-minimal there).
  for (uint64_t seed : {7u, 42u, 4096u}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EncodedTable t = testing_util::RandomEncodedTable(60, 4, 4, seed);
    DiscoveryResult r1 = DiscoverOds(t, AfdOnly(0.05));
    DiscoveryResult r2 = DiscoverOds(t, AfdOnly(0.20));
    for (const DiscoveredDependency* d : r1.Afds()) {
      bool reported = ContainsAfd(r2, d->context, d->a);
      bool generalized = false;
      for (const DiscoveredDependency* g : r2.Afds()) {
        if (g->a == d->a && d->context.ContainsAll(g->context) &&
            !(g->context == d->context)) {
          generalized = true;
        }
      }
      EXPECT_TRUE(reported || generalized) << d->ToString(t);
    }
  }
}

// ----------------------------------------- kind independence / top-k --

TEST(MultiKindDiscoveryTest, KindsAreIndependent) {
  // Running all four kinds together yields, per kind, exactly what the
  // single-kind run yields — field for field. This is the platform's
  // core composition rule (per-kind lattice groups never interact).
  EncodedTable t = testing_util::RandomEncodedTable(50, 4, 3, 271828);
  DiscoveryOptions all;
  all.kinds = DependencyKindSet::All();
  all.epsilon = 0.10;
  all.afd_error = 0.08;
  DiscoveryResult combined = DiscoverOds(t, all);
  for (int k = 0; k < kNumDependencyKinds; ++k) {
    const DependencyKind kind = static_cast<DependencyKind>(k);
    SCOPED_TRACE(DependencyKindToString(kind));
    DiscoveryOptions solo = all;
    solo.kinds = DependencyKindSet().With(kind);
    DiscoveryResult single = DiscoverOds(t, solo);
    const auto got = combined.OfKind(kind);
    const auto want = single.OfKind(kind);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i]->context, want[i]->context);
      EXPECT_EQ(got[i]->a, want[i]->a);
      EXPECT_EQ(got[i]->b, want[i]->b);
      EXPECT_EQ(got[i]->opposite, want[i]->opposite);
      EXPECT_EQ(got[i]->error, want[i]->error);
      EXPECT_EQ(got[i]->level, want[i]->level);
      EXPECT_EQ(got[i]->interestingness, want[i]->interestingness);
    }
  }
}

TEST(MultiKindDiscoveryTest, DefaultKindsNeverMineFdOrAfd) {
  // Byte-compat guarantee for pre-platform callers: the default option
  // set runs zero FD/AFD work.
  EncodedTable t = testing_util::RandomEncodedTable(40, 4, 3, 5);
  DiscoveryResult result = DiscoverOds(t, {});
  EXPECT_EQ(result.CountOfKind(DependencyKind::kFd), 0);
  EXPECT_EQ(result.CountOfKind(DependencyKind::kAfd), 0);
  EXPECT_EQ(result.stats.fd_candidates_validated, 0);
  EXPECT_EQ(result.stats.afd_candidates_validated, 0);
  EXPECT_EQ(result.stats.Total(DependencyKind::kFd), 0);
  EXPECT_EQ(result.stats.Total(DependencyKind::kAfd), 0);
}

TEST(MultiKindDiscoveryTest, TopKIsARankedPrefixOfTheFullRun) {
  EncodedTable t = testing_util::RandomEncodedTable(50, 4, 3, 31337);
  DiscoveryOptions options;
  options.kinds = DependencyKindSet::All();
  options.epsilon = 0.10;
  DiscoveryResult full = DiscoverOds(t, options);
  ASSERT_GT(full.dependencies.size(), 3u);
  full.SortByInterestingness();

  DiscoveryOptions top3 = options;
  top3.top_k = 3;
  DiscoveryResult pruned = DiscoverOds(t, top3);
  ASSERT_EQ(pruned.dependencies.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const DiscoveredDependency& want = full.dependencies[i];
    const DiscoveredDependency& got = pruned.dependencies[i];
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.context, want.context);
    EXPECT_EQ(got.a, want.a);
    EXPECT_EQ(got.b, want.b);
    EXPECT_EQ(got.interestingness, want.interestingness);
  }
  // Stats still describe the full discovery, not the truncated list.
  EXPECT_EQ(pruned.stats.TotalOcs(), full.stats.TotalOcs());
  EXPECT_EQ(pruned.stats.Total(DependencyKind::kOfd),
            full.stats.Total(DependencyKind::kOfd));

  // top_k larger than the result set is a no-op.
  DiscoveryOptions huge = options;
  huge.top_k = 1 << 20;
  DiscoveryResult same = DiscoverOds(t, huge);
  EXPECT_EQ(same.dependencies.size(), full.dependencies.size());
}

TEST(MultiKindDiscoveryDeathTest, RejectsOutOfRangeOptions) {
  EncodedTable t = testing_util::RandomEncodedTable(5, 2, 2, 1);
  DiscoveryOptions bad_kinds;
  bad_kinds.kinds = DependencyKindSet();
  EXPECT_DEATH(DiscoverOds(t, bad_kinds), "kinds");
  DiscoveryOptions bad_afd;
  bad_afd.afd_error = 1.5;
  EXPECT_DEATH(DiscoverOds(t, bad_afd), "afd_error");
  DiscoveryOptions bad_top_k;
  bad_top_k.top_k = -1;
  EXPECT_DEATH(DiscoverOds(t, bad_top_k), "top_k");
}

TEST(DependencyKindSetTest, ParseAndToStringRoundTrip) {
  Result<DependencyKindSet> parsed = DependencyKindSet::Parse("oc,fd,afd");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->Contains(DependencyKind::kOc));
  EXPECT_FALSE(parsed->Contains(DependencyKind::kOfd));
  EXPECT_TRUE(parsed->Contains(DependencyKind::kFd));
  EXPECT_TRUE(parsed->Contains(DependencyKind::kAfd));
  EXPECT_EQ(parsed->ToString(), "oc,fd,afd");
  EXPECT_FALSE(DependencyKindSet::Parse("").ok());
  EXPECT_FALSE(DependencyKindSet::Parse("oc,,fd").ok());
  EXPECT_FALSE(DependencyKindSet::Parse("oc,odd").ok());
  EXPECT_EQ(DependencyKindSet::OdDefault().ToString(), "oc,ofd");
  EXPECT_TRUE(DependencyKindSet::All().IsValid());
  EXPECT_FALSE(DependencyKindSet(0x10).IsValid());
}

}  // namespace
}  // namespace aod
