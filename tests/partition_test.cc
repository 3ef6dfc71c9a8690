// Tests for src/partition: attribute sets, stripped partitions, cache.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <thread>

#include "data/encoder.h"
#include "partition/attribute_set.h"
#include "partition/partition_cache.h"
#include "partition/stripped_partition.h"
#include "test_util.h"

namespace aod {
namespace {

// --------------------------------------------------------- AttributeSet --

TEST(AttributeSetTest, BasicOps) {
  AttributeSet s = AttributeSet::Of({1, 3, 5});
  EXPECT_EQ(s.size(), 3);
  EXPECT_TRUE(s.Contains(3));
  EXPECT_FALSE(s.Contains(2));
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s.With(2).size(), 4);
  EXPECT_EQ(s.Without(3).size(), 2);
  EXPECT_EQ(s.Without(2), s);  // removing absent member is a no-op
  EXPECT_EQ(s.First(), 1);
  EXPECT_EQ(AttributeSet().First(), -1);
}

TEST(AttributeSetTest, SetAlgebra) {
  AttributeSet a = AttributeSet::Of({0, 1, 2});
  AttributeSet b = AttributeSet::Of({2, 3});
  EXPECT_EQ(a.Union(b), AttributeSet::Of({0, 1, 2, 3}));
  EXPECT_EQ(a.Intersect(b), AttributeSet::Of({2}));
  EXPECT_EQ(a.Difference(b), AttributeSet::Of({0, 1}));
  EXPECT_TRUE(a.ContainsAll(AttributeSet::Of({0, 2})));
  EXPECT_FALSE(a.ContainsAll(b));
  EXPECT_TRUE(a.ContainsAll(AttributeSet()));
}

TEST(AttributeSetTest, FullSetBoundaries) {
  EXPECT_EQ(AttributeSet::FullSet(0).size(), 0);
  EXPECT_EQ(AttributeSet::FullSet(10).size(), 10);
  EXPECT_EQ(AttributeSet::FullSet(64).size(), 64);
}

TEST(AttributeSetTest, IterationAscending) {
  AttributeSet s = AttributeSet::Of({7, 0, 63, 12});
  EXPECT_EQ(s.ToVector(), (std::vector<int>{0, 7, 12, 63}));
}

TEST(AttributeSetTest, FromVectorRoundTrip) {
  std::vector<int> attrs = {4, 9, 33};
  EXPECT_EQ(AttributeSet::FromVector(attrs).ToVector(), attrs);
}

TEST(AttributeSetTest, ToStringForms) {
  EXPECT_EQ(AttributeSet().ToString(), "{}");
  EXPECT_EQ(AttributeSet::Of({0, 2}).ToString(), "{0, 2}");
  auto named = AttributeSet::Of({1}).ToString(
      [](int) { return std::string("pos"); });
  EXPECT_EQ(named, "{pos}");
}

TEST(AttributeSetTest, HashDistinguishes) {
  AttributeSetHash h;
  EXPECT_NE(h(AttributeSet::Of({0})), h(AttributeSet::Of({1})));
  EXPECT_EQ(h(AttributeSet::Of({5, 6})), h(AttributeSet::Of({6, 5})));
}

// --------------------------------------------------- StrippedPartition --

TEST(StrippedPartitionTest, FromColumnStripsSingletons) {
  // ranks: 0 1 0 2 1 3 — classes {0,2} and {1,4}; 2 and 3 are singletons.
  EncodedColumn col;
  col.name = "c";
  col.ranks = {0, 1, 0, 2, 1, 3};
  col.cardinality = 4;
  StrippedPartition p = StrippedPartition::FromColumn(col);
  EXPECT_EQ(p.num_classes(), 2);
  EXPECT_EQ(p.rows_covered(), 4);
  EXPECT_EQ(p.error(), 2);
}

TEST(StrippedPartitionTest, WholeRelation) {
  StrippedPartition p = StrippedPartition::WholeRelation(5);
  EXPECT_EQ(p.num_classes(), 1);
  EXPECT_EQ(p.cls(0).size(), 5u);
  EXPECT_TRUE(StrippedPartition::WholeRelation(1).classes().empty());
  EXPECT_TRUE(StrippedPartition::WholeRelation(0).classes().empty());
}

TEST(StrippedPartitionTest, FromClassesStrips) {
  StrippedPartition p =
      StrippedPartition::FromClasses({{0, 1}, {2}, {3, 4, 5}});
  EXPECT_EQ(p.num_classes(), 2);
  EXPECT_EQ(p.rows_covered(), 5);
}

TEST(StrippedPartitionTest, ProductSimple) {
  // A: {0,1,2,3} all equal; B: {0,1} vs {2,3} -> product {0,1},{2,3}.
  EncodedColumn a{
      .name = "a", .ranks = {0, 0, 0, 0}, .cardinality = 1, .dictionary = {}};
  EncodedColumn b{
      .name = "b", .ranks = {0, 0, 1, 1}, .cardinality = 2, .dictionary = {}};
  auto pa = StrippedPartition::FromColumn(a);
  auto pb = StrippedPartition::FromColumn(b);
  StrippedPartition prod = pa.Product(pb, 4);
  EXPECT_EQ(prod.num_classes(), 2);
  EXPECT_EQ(prod.rows_covered(), 4);
}

TEST(StrippedPartitionTest, ProductToSingletonsIsEmpty) {
  EncodedColumn a{
      .name = "a", .ranks = {0, 0, 1, 1}, .cardinality = 2, .dictionary = {}};
  EncodedColumn b{
      .name = "b", .ranks = {0, 1, 0, 1}, .cardinality = 2, .dictionary = {}};
  auto pa = StrippedPartition::FromColumn(a);
  auto pb = StrippedPartition::FromColumn(b);
  StrippedPartition prod = pa.Product(pb, 4);
  EXPECT_EQ(prod.num_classes(), 0);
  EXPECT_EQ(prod.rows_covered(), 0);
}

TEST(StrippedPartitionTest, ProductIsCommutativeBitForBit) {
  // Canonical normal form makes commutativity exact, not just up to
  // class reordering: both operand orders emit identical CSR arrays.
  EncodedTable t = testing_util::RandomEncodedTable(100, 2, 5, 17);
  auto pa = StrippedPartition::FromColumn(t.column(0));
  auto pb = StrippedPartition::FromColumn(t.column(1));
  StrippedPartition ab = pa.Product(pb, 100);
  StrippedPartition ba = pb.Product(pa, 100);
  EXPECT_EQ(ab.ToString(), ba.ToString());
  EXPECT_EQ(ab.row_ids(), ba.row_ids());
  EXPECT_EQ(ab.class_offsets(), ba.class_offsets());
}

TEST(StrippedPartitionTest, ScratchReuseIsClean) {
  // Two products sharing one scratch must not contaminate each other.
  EncodedTable t = testing_util::RandomEncodedTable(200, 3, 4, 23);
  PartitionScratch scratch(200);
  auto p0 = StrippedPartition::FromColumn(t.column(0));
  auto p1 = StrippedPartition::FromColumn(t.column(1));
  auto p2 = StrippedPartition::FromColumn(t.column(2));
  StrippedPartition first = p0.Product(p1, 200, &scratch);
  StrippedPartition again = p0.Product(p1, 200, &scratch);
  EXPECT_EQ(first.ToString(), again.ToString());
  StrippedPartition other = p1.Product(p2, 200, &scratch);
  StrippedPartition other_fresh = p1.Product(p2, 200);
  EXPECT_EQ(other.ToString(), other_fresh.ToString());
}

// Property: product of column partitions == definition-based partition on
// the attribute pair/triple.
class PartitionProductPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int64_t, int>> {};

TEST_P(PartitionProductPropertyTest, ProductMatchesNaive) {
  auto [seed, rows, cardinality] = GetParam();
  EncodedTable t = testing_util::RandomEncodedTable(rows, 3, cardinality,
                                                    seed);
  auto normalize = [](const StrippedPartition& p) {
    std::set<std::set<int32_t>> out;
    for (const auto& cls : p.classes()) {
      out.insert(std::set<int32_t>(cls.begin(), cls.end()));
    }
    return out;
  };
  auto p0 = StrippedPartition::FromColumn(t.column(0));
  auto p1 = StrippedPartition::FromColumn(t.column(1));
  auto p2 = StrippedPartition::FromColumn(t.column(2));

  StrippedPartition p01 = p0.Product(p1, rows);
  EXPECT_EQ(normalize(p01),
            normalize(testing_util::NaivePartition(
                t, AttributeSet::Of({0, 1}))));

  StrippedPartition p012 = p01.Product(p2, rows);
  EXPECT_EQ(normalize(p012),
            normalize(testing_util::NaivePartition(
                t, AttributeSet::Of({0, 1, 2}))));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionProductPropertyTest,
    ::testing::Combine(::testing::Values<uint64_t>(3, 14, 159),
                       ::testing::Values<int64_t>(10, 100, 500),
                       ::testing::Values(2, 5, 25)));

// ------------------------------------------------------- PartitionCache --

TEST(PartitionCacheTest, SingletonsPrecomputed) {
  EncodedTable t = testing_util::RandomEncodedTable(50, 3, 4, 5);
  PartitionCache cache(&t);
  EXPECT_TRUE(cache.Contains(AttributeSet()));
  EXPECT_TRUE(cache.Contains(AttributeSet::Of({0})));
  EXPECT_TRUE(cache.Contains(AttributeSet::Of({2})));
  EXPECT_FALSE(cache.Contains(AttributeSet::Of({0, 1})));
  EXPECT_EQ(cache.products_computed(), 0);
}

TEST(PartitionCacheTest, DerivesAndMemoizes) {
  EncodedTable t = testing_util::RandomEncodedTable(80, 3, 3, 6);
  PartitionCache cache(&t);
  auto p = cache.Get(AttributeSet::Of({0, 1}));
  EXPECT_EQ(cache.products_computed(), 1);
  auto p_again = cache.Get(AttributeSet::Of({0, 1}));
  EXPECT_EQ(cache.products_computed(), 1);  // cached, no recompute
  EXPECT_EQ(p.get(), p_again.get());
}

TEST(PartitionCacheTest, GetMatchesNaive) {
  EncodedTable t = testing_util::RandomEncodedTable(120, 4, 3, 7);
  PartitionCache cache(&t);
  auto normalize = [](const StrippedPartition& p) {
    std::set<std::set<int32_t>> out;
    for (const auto& cls : p.classes()) {
      out.insert(std::set<int32_t>(cls.begin(), cls.end()));
    }
    return out;
  };
  for (uint64_t bits = 0; bits < 16; ++bits) {
    AttributeSet set(bits);
    EXPECT_EQ(normalize(*cache.Get(set)),
              normalize(testing_util::NaivePartition(t, set)))
        << set.ToString();
  }
}

TEST(PartitionCacheTest, BytesResidentTracksExactSizes) {
  EncodedTable t = testing_util::RandomEncodedTable(100, 3, 3, 9);
  PartitionCache cache(&t);
  // Preloaded: the empty-set partition plus one per column.
  int64_t base = cache.bytes_resident();
  int64_t expect = StrippedPartition::WholeRelation(100).bytes();
  for (int a = 0; a < 3; ++a) {
    expect += StrippedPartition::FromColumn(t.column(a)).bytes();
  }
  EXPECT_EQ(base, expect);

  auto p = cache.Get(AttributeSet::Of({0, 1}));
  EXPECT_EQ(cache.bytes_resident(), base + p->bytes());
  // Eviction returns exactly what it releases.
  int64_t freed = cache.EnforceBudget(base);
  EXPECT_EQ(freed, p->bytes());
  EXPECT_EQ(cache.bytes_resident(), base);
}

TEST(PartitionCacheTest, EvictionKeepsBaseLevels) {
  EncodedTable t = testing_util::RandomEncodedTable(60, 4, 3, 8);
  PartitionCache cache(&t);
  auto level2 = cache.Get(AttributeSet::Of({0, 1}));
  cache.Get(AttributeSet::Of({0, 1, 2}));
  // Room for everything but the level-2 partition: the coldest level goes.
  cache.EnforceBudget(cache.bytes_resident() - level2->bytes());
  EXPECT_FALSE(cache.Contains(AttributeSet::Of({0, 1})));
  EXPECT_TRUE(cache.Contains(AttributeSet::Of({0, 1, 2})));
  EXPECT_TRUE(cache.Contains(AttributeSet::Of({0})));  // level 1 retained
  EXPECT_TRUE(cache.Contains(AttributeSet()));
  // Re-deriving after eviction still works.
  auto p = cache.Get(AttributeSet::Of({0, 1}));
  EXPECT_GT(p->num_classes() + 1, 0);
}

TEST(PartitionCacheTest, BudgetEvictionRestoresExactBaseFootprint) {
  EncodedTable t = testing_util::RandomEncodedTable(150, 4, 3, 12);
  PartitionCache cache(&t);
  const int64_t base = cache.bytes_resident();

  cache.Get(AttributeSet::Of({0, 1}));
  cache.Get(AttributeSet::Of({1, 2}));
  cache.Get(AttributeSet::Of({0, 1, 2}));
  cache.Get(AttributeSet::Of({0, 1, 2, 3}));
  const int64_t resident = cache.bytes_resident();
  EXPECT_GT(resident, base);

  // A budget below the base floor evicts every derived partition — and
  // the byte accounting returns to the exact level-0/1 footprint.
  int64_t freed = cache.EnforceBudget(1);
  EXPECT_EQ(freed, resident - base);
  EXPECT_EQ(cache.bytes_resident(), base);
  EXPECT_EQ(cache.partitions_evicted(), 4);
  EXPECT_FALSE(cache.Contains(AttributeSet::Of({0, 1})));
  EXPECT_TRUE(cache.Contains(AttributeSet::Of({0})));
  EXPECT_TRUE(cache.Contains(AttributeSet()));

  // Unlimited budget (<= 0) is a no-op.
  cache.Get(AttributeSet::Of({0, 1}));
  EXPECT_EQ(cache.EnforceBudget(0), 0);

  // Re-derivation after eviction yields the same canonical value.
  auto rederived = cache.Get(AttributeSet::Of({0, 1, 2}));
  PartitionScratch scratch(150);
  auto expected = StrippedPartition::FromColumn(t.column(0))
                      .Product(StrippedPartition::FromColumn(t.column(1)),
                               150, &scratch)
                      .Product(StrippedPartition::FromColumn(t.column(2)),
                               150, &scratch);
  EXPECT_EQ(rederived->row_ids(), expected.row_ids());
  EXPECT_EQ(rederived->class_offsets(), expected.class_offsets());
}

TEST(PartitionCacheTest, BudgetEvictionIsColdestFirst) {
  EncodedTable t = testing_util::RandomEncodedTable(200, 4, 2, 13);
  PartitionCache cache(&t);
  const int64_t base = cache.bytes_resident();
  auto level2 = cache.Get(AttributeSet::Of({0, 1}));
  auto level3 = cache.Get(AttributeSet::Of({0, 1, 2}));
  // A budget with room for exactly one derived partition evicts the
  // lower level first: once the traversal has passed it, it is never a
  // context again.
  cache.EnforceBudget(base + level2->bytes() + level3->bytes() - 1);
  EXPECT_FALSE(cache.Contains(AttributeSet::Of({0, 1})));
  EXPECT_TRUE(cache.Contains(AttributeSet::Of({0, 1, 2})));
}

TEST(PartitionCacheTest, PlannerPicksCheapBaseAndMatchesProductChain) {
  // Column 2 is low-cardinality (expensive, rows_covered ~ n); columns
  // 0/1 are near-distinct (cheap). The planner derives Π_{012} from a
  // published pair containing the expensive attribute, never re-scanning
  // it. The result must be byte-identical to the plain product chain
  // Π_0 · Π_1 · Π_2, which does scan it.
  const int64_t rows = 400;
  std::vector<int64_t> s1, s2, k;
  for (int64_t i = 0; i < rows; ++i) {
    s1.push_back((i * 37) % 200);
    s2.push_back((i * 53) % 200);
    k.push_back(i % 3);
  }
  EncodedTable enc = EncodedTableFromInts({"s1", "s2", "k"}, {s1, s2, k});

  PartitionCache planned(&enc);
  planned.Get(AttributeSet::Of({0, 2}));
  planned.Get(AttributeSet::Of({1, 2}));
  planned.PublishCost(AttributeSet::Of({0, 2}));
  planned.PublishCost(AttributeSet::Of({1, 2}));
  DerivationPlan plan = planned.PlanDerivation(AttributeSet::Of({0, 1, 2}));
  EXPECT_TRUE(plan.base == AttributeSet::Of({0, 2}) ||
              plan.base == AttributeSet::Of({1, 2}))
      << plan.base.ToString();
  const int64_t before = planned.planner_derivations();
  auto via_plan = planned.Get(AttributeSet::Of({0, 1, 2}));
  EXPECT_EQ(planned.planner_derivations(), before + 1);

  PartitionScratch scratch(rows);
  StrippedPartition chain =
      StrippedPartition::FromColumn(enc.column(0))
          .Product(StrippedPartition::FromColumn(enc.column(1)), rows,
                   &scratch)
          .Product(StrippedPartition::FromColumn(enc.column(2)), rows,
                   &scratch);

  EXPECT_EQ(via_plan->row_ids(), chain.row_ids());
  EXPECT_EQ(via_plan->class_offsets(), chain.class_offsets());
}

TEST(PartitionCacheTest, PlannerHandlesDeepMisses) {
  // With only the singletons catalogued, a deep miss is one plan: a
  // single base extended by the other seven singles in a loop, so |X|
  // cannot grow the stack. Intermediates are not memoized.
  EncodedTable t = testing_util::RandomEncodedTable(80, 8, 2, 14);
  PartitionCache cache(&t);
  AttributeSet deep = AttributeSet::FullSet(8);
  auto p = cache.Get(deep);
  EXPECT_EQ(cache.products_computed(), 7);
  EXPECT_EQ(cache.planner_derivations(), 1);
  EXPECT_FALSE(cache.Contains(AttributeSet::Of({0, 1, 2})));
  PartitionCache reference(&t);
  AttributeSet prefix;
  for (int a = 0; a < 8; ++a) {
    prefix = prefix.With(a);
    if (a > 0) reference.PublishCost(prefix);
  }
  EXPECT_EQ(p->Serialize(), reference.Get(deep)->Serialize());
}

TEST(PartitionCacheTest, WaiterOnPendingKeyDoesNotBlockItsProducer) {
  // A producer claims X and, mid-derivation, needs Y from the same lock
  // stripe; a waiter asks for X while it is still pending. A waiter that
  // blocked on X with the stripe locked would starve the producer of Y
  // forever. The hooks force exactly that interleaving: the producer
  // parks before fetching Y until the waiter is about to block on X.
  constexpr int kCols = 10;
  AttributeSet x, y;
  bool found = false;
  for (int a = 0; a < kCols && !found; ++a) {
    for (int b = a + 1; b < kCols && !found; ++b) {
      for (int c = b + 1; c < kCols && !found; ++c) {
        x = AttributeSet::Of({a, b, c});
        y = AttributeSet::Of({a, b});
        found = PartitionCache::StripeOf(x) == PartitionCache::StripeOf(y);
      }
    }
  }
  ASSERT_TRUE(found) << "no same-stripe (X, X minus max) pair";

  // Shared with the threads by ownership: if the cache deadlocks, the
  // threads are detached and this state must outlive the test.
  struct State {
    explicit State(EncodedTable t) : table(std::move(t)), cache(&table) {}
    EncodedTable table;
    PartitionCache cache;
    std::promise<void> producer_parked, waiter_blocking;
    std::promise<void> producer_done, waiter_done;
    std::atomic<bool> parked_once{false}, blocking_once{false};
  };
  auto state = std::make_shared<State>(
      testing_util::RandomEncodedTable(300, kCols, 3, 21));
  std::future<void> waiter_blocking = state->waiter_blocking.get_future();
  State* raw = state.get();
  state->cache.set_get_hook_for_testing(
      [raw, x, y, blocking = waiter_blocking.share()](
          PartitionCache::GetEvent event, AttributeSet set) {
        using Event = PartitionCache::GetEvent;
        if (event == Event::kEnter && set == y &&
            !raw->parked_once.exchange(true)) {
          raw->producer_parked.set_value();
          blocking.wait_for(std::chrono::seconds(10));
        } else if (event == Event::kWaitPending && set == x &&
                   !raw->blocking_once.exchange(true)) {
          raw->waiter_blocking.set_value();
        }
      });

  DerivationPlan plan;
  plan.base = y;
  plan.singles = {x.Last()};
  std::future<void> parked = state->producer_parked.get_future();
  std::future<void> producer_done = state->producer_done.get_future();
  std::future<void> waiter_done = state->waiter_done.get_future();
  std::thread producer([state, x, plan] {
    state->cache.Get(x, &plan);
    state->producer_done.set_value();
  });
  ASSERT_EQ(parked.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  std::thread waiter([state, x] {
    state->cache.Get(x);
    state->waiter_done.set_value();
  });

  const bool finished =
      producer_done.wait_for(std::chrono::seconds(10)) ==
          std::future_status::ready &&
      waiter_done.wait_for(std::chrono::seconds(10)) ==
          std::future_status::ready;
  if (!finished) {
    producer.detach();
    waiter.detach();
    FAIL() << "Get deadlocked: the waiter on a pending key held the stripe "
              "its producer needed";
  }
  producer.join();
  waiter.join();
  PartitionCache reference(&state->table);
  EXPECT_EQ(state->cache.Get(x)->row_ids(), reference.Get(x)->row_ids());
  EXPECT_EQ(state->cache.Get(x)->class_offsets(),
            reference.Get(x)->class_offsets());
}

}  // namespace
}  // namespace aod
