// Equivalence of the CSR partition product with the classic
// vector-of-vectors TANE STRIPPED_PRODUCT, modulo the canonical normal
// form.
//
// The determinism contract (ARCHITECTURE.md) requires every materialized
// partition to be *canonical* — classes ordered by smallest contained row
// id, rows ascending within a class — so that the partition value is
// independent of the derivation path (the cache's cost-based planner
// depends on this). These tests pin both entry points of the product
// kernel — the rank-column probe (ProductWithColumn, and through it
// PartitionCache::Get) and the partition wrapper Product(other) — against
// a reference implementation of the old per-class bucket algorithm
// followed by normalization, assert the canonical invariants directly,
// and check path independence across operand orders and derivation
// chains.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "data/column.h"
#include "data/encoder.h"
#include "partition/attribute_set.h"
#include "partition/partition_cache.h"
#include "partition/stripped_partition.h"
#include "test_util.h"

namespace aod {
namespace {

std::vector<std::vector<int32_t>> ToClasses(const StrippedPartition& p) {
  std::vector<std::vector<int32_t>> out;
  for (StrippedPartition::ClassSpan cls : p.classes()) {
    out.emplace_back(cls.begin(), cls.end());
  }
  return out;
}

/// The pre-CSR product, verbatim — translate tuples of `left` into class
/// ids, slice each class of `right` into per-class buckets, emit a bucket
/// (in first-touch order) when its class completes with >= 2 rows —
/// followed by normalization into the canonical form Product guarantees.
StrippedPartition ReferenceProduct(const StrippedPartition& left,
                                   const StrippedPartition& right,
                                   int64_t num_rows) {
  std::vector<std::vector<int32_t>> left_classes = ToClasses(left);
  std::vector<std::vector<int32_t>> right_classes = ToClasses(right);

  std::vector<int32_t> class_of(static_cast<size_t>(num_rows), -1);
  for (size_t i = 0; i < left_classes.size(); ++i) {
    for (int32_t t : left_classes[i]) {
      class_of[static_cast<size_t>(t)] = static_cast<int32_t>(i);
    }
  }
  std::vector<std::vector<int32_t>> out_classes;
  std::vector<std::vector<int32_t>> buckets(left_classes.size());
  for (const auto& cls : right_classes) {
    for (int32_t t : cls) {
      int32_t c = class_of[static_cast<size_t>(t)];
      if (c >= 0) buckets[static_cast<size_t>(c)].push_back(t);
    }
    for (int32_t t : cls) {
      int32_t c = class_of[static_cast<size_t>(t)];
      if (c < 0) continue;
      auto& bucket = buckets[static_cast<size_t>(c)];
      if (bucket.size() >= 2) out_classes.push_back(std::move(bucket));
      bucket.clear();
    }
  }
  StrippedPartition out = StrippedPartition::FromClasses(std::move(out_classes));
  out.Normalize();
  return out;
}

void ExpectIdentical(const StrippedPartition& got,
                     const StrippedPartition& want) {
  EXPECT_EQ(got.num_classes(), want.num_classes());
  EXPECT_EQ(got.rows_covered(), want.rows_covered());
  EXPECT_EQ(got.error(), want.error());
  // ToString captures class order AND within-class row order.
  EXPECT_EQ(got.ToString(), want.ToString());
  EXPECT_TRUE(got.IsCanonical()) << got.ToString();
}

TEST(PartitionCsrTest, LayoutInvariants) {
  EncodedTable t = testing_util::RandomEncodedTable(300, 2, 7, 11);
  auto p = StrippedPartition::FromColumn(t.column(0));
  ASSERT_GT(p.num_classes(), 0);
  EXPECT_EQ(static_cast<int64_t>(p.class_offsets().size()),
            p.num_classes() + 1);
  EXPECT_EQ(p.class_offsets().front(), 0);
  EXPECT_EQ(static_cast<int64_t>(p.class_offsets().back()),
            p.rows_covered());
  EXPECT_EQ(static_cast<int64_t>(p.row_ids().size()), p.rows_covered());
  int64_t total = 0;
  for (StrippedPartition::ClassSpan cls : p.classes()) {
    EXPECT_GE(cls.size(), 2u);
    total += static_cast<int64_t>(cls.size());
  }
  EXPECT_EQ(total, p.rows_covered());
  // Empty partitions report zero without a materialized offsets array.
  StrippedPartition empty;
  EXPECT_EQ(empty.num_classes(), 0);
  EXPECT_EQ(empty.rows_covered(), 0);
  EXPECT_TRUE(empty.classes().empty());
  EXPECT_EQ(empty.ToString(), "{}");
}

TEST(PartitionCsrTest, BytesAccountsForBothArrays) {
  auto p = StrippedPartition::FromClasses({{0, 1}, {2, 3, 4}});
  int64_t payload = p.bytes() - static_cast<int64_t>(sizeof(StrippedPartition));
  // 5 row ids + 3 offsets, 4 bytes each; exactly sized on construction.
  EXPECT_EQ(payload, (5 + 3) * static_cast<int64_t>(sizeof(int32_t)));
}

class CsrProductPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int64_t, int>> {};

TEST_P(CsrProductPropertyTest, MatchesReferenceBitForBit) {
  auto [seed, rows, cardinality] = GetParam();
  EncodedTable t = testing_util::RandomEncodedTable(rows, 3, cardinality,
                                                    seed);
  PartitionScratch scratch(rows);
  auto p0 = StrippedPartition::FromColumn(t.column(0));
  auto p1 = StrippedPartition::FromColumn(t.column(1));
  auto p2 = StrippedPartition::FromColumn(t.column(2));

  StrippedPartition p01 = p0.Product(p1, rows, &scratch);
  ExpectIdentical(p01, ReferenceProduct(p0, p1, rows));
  StrippedPartition p10 = p1.Product(p0, rows, &scratch);
  ExpectIdentical(p10, ReferenceProduct(p1, p0, rows));

  // Chained product (level-3 context), reusing the same scratch.
  StrippedPartition p012 = p01.Product(p2, rows, &scratch);
  ExpectIdentical(p012, ReferenceProduct(p01, p2, rows));

  // And without scratch (temporary scratch path).
  ExpectIdentical(p0.Product(p1, rows), p01);

  // The rank-column probe, directly and through the cache's planned
  // derivations of a 2- and a 3-attribute set.
  ExpectIdentical(p0.ProductWithColumn(t.column(1), &scratch), p01);
  ExpectIdentical(p01.ProductWithColumn(t.column(2), &scratch), p012);
  PartitionCache cache(&t);
  ExpectIdentical(*cache.Get(AttributeSet::Of({0, 1})),
                  ReferenceProduct(p0, p1, rows));
  ExpectIdentical(*cache.Get(AttributeSet::Of({0, 1, 2})),
                  ReferenceProduct(p01, p2, rows));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CsrProductPropertyTest,
    ::testing::Combine(
        ::testing::Values<uint64_t>(1, 97, 2024),
        ::testing::Values<int64_t>(2, 10, 100, 700),
        // cardinality 1: one whole-relation class. Large cardinalities
        // make almost every class a singleton (the stripped regime).
        ::testing::Values(1, 2, 5, 25, 400)));

/// Every product route over the first three columns of `t` — the
/// wrapper, the probe, the cache on {0,1} and {0,1,2}, and a
/// whole-relation base — against the reference.
void ExpectAllRoutesMatchReference(const EncodedTable& t) {
  const int64_t rows = t.num_rows();
  PartitionScratch scratch(rows);
  auto p0 = StrippedPartition::FromColumn(t.column(0));
  auto p1 = StrippedPartition::FromColumn(t.column(1));
  auto p2 = StrippedPartition::FromColumn(t.column(2));
  const StrippedPartition want01 = ReferenceProduct(p0, p1, rows);
  const StrippedPartition want012 = ReferenceProduct(want01, p2, rows);
  ExpectIdentical(p0.Product(p1, rows, &scratch), want01);
  ExpectIdentical(p0.ProductWithColumn(t.column(1), &scratch), want01);
  ExpectIdentical(p1.ProductWithColumn(t.column(0), &scratch), want01);
  ExpectIdentical(want01.ProductWithColumn(t.column(2), &scratch), want012);
  PartitionCache cache(&t);
  ExpectIdentical(*cache.Get(AttributeSet::Of({0, 1})), want01);
  ExpectIdentical(*cache.Get(AttributeSet::Of({0, 1, 2})), want012);
  const auto whole = StrippedPartition::WholeRelation(rows);
  for (int a = 0; a < 3; ++a) {
    const auto single = StrippedPartition::FromColumn(t.column(a));
    ExpectIdentical(whole.ProductWithColumn(t.column(a), &scratch), single);
    ExpectIdentical(whole.Product(single, rows, &scratch),
                    ReferenceProduct(whole, single, rows));
  }
}

/// An int column; -1 entries become nulls (rank 0).
EncodedColumn IntColumn(const std::string& name,
                        const std::vector<int64_t>& values) {
  Column col(name, DataType::kInt64);
  for (int64_t v : values) {
    if (v < 0) {
      col.AppendNull();
    } else {
      col.AppendInt(v);
    }
  }
  return EncodeColumn(col);
}

TEST(PartitionCsrTest, NearKeyColumnMatchesReference) {
  // Column 0 is a key (cardinality = rows, every bucket a singleton) and
  // column 1 a key but for one duplicated value.
  const int64_t rows = 600;
  std::vector<int64_t> key, near_key, low;
  for (int64_t i = 0; i < rows; ++i) {
    key.push_back((i * 7919) % rows);
    near_key.push_back(i == 17 ? 400 : (i * 31) % rows);
    low.push_back(i % 5);
  }
  EncodedTable t({IntColumn("key", key), IntColumn("near", near_key),
                  IntColumn("low", low)},
                 rows);
  ASSERT_EQ(t.column(0).cardinality, rows);
  ExpectAllRoutesMatchReference(t);
}

TEST(PartitionCsrTest, SingletonHeavyProductStripsToNothing) {
  // (i % 20, i / 20) is unique per row, while each column alone has
  // classes of 20+ rows: the product keeps no class.
  const int64_t rows = 400;
  std::vector<int64_t> lo, hi, mid;
  for (int64_t i = 0; i < rows; ++i) {
    lo.push_back(i % 20);
    hi.push_back(i / 20);
    mid.push_back(i % 7);
  }
  EncodedTable t(
      {IntColumn("lo", lo), IntColumn("hi", hi), IntColumn("mid", mid)},
      rows);
  ExpectAllRoutesMatchReference(t);
  PartitionCache cache(&t);
  EXPECT_EQ(cache.Get(AttributeSet::Of({0, 1}))->num_classes(), 0);
}

TEST(PartitionCsrTest, NullColumnsMatchReference) {
  // Nulls share rank 0; a mostly-null column and a sparse one.
  const int64_t rows = 500;
  std::vector<int64_t> sparse, dense, mixed;
  for (int64_t i = 0; i < rows; ++i) {
    sparse.push_back(i % 4 == 0 ? (i * 13) % 9 : -1);
    dense.push_back(i % 11 == 0 ? -1 : (i * 17) % 23);
    mixed.push_back(i % 3 == 0 ? -1 : i % 6);
  }
  EncodedTable t({IntColumn("sparse", sparse), IntColumn("dense", dense),
                  IntColumn("mixed", mixed)},
                 rows);
  ExpectAllRoutesMatchReference(t);
}

TEST(PartitionCsrTest, EpochWrapMatchesReference) {
  // A first product by a key column leaves a count-epoch stamp on every
  // rank, each under the epoch of the base class holding that rank's row.
  // The clock is then pushed three epochs short of its limit, so the next
  // product (two epochs per base class) crosses the wrap and reuses those
  // epoch numbers: only the wrap's reset keeps the stale stamps from
  // reading as live buckets.
  const int64_t rows = 300;
  std::vector<int64_t> base, key, low;
  for (int64_t i = 0; i < rows; ++i) {
    base.push_back(i % 6);
    key.push_back((i * 7919) % rows);
    low.push_back((i / 7) % 6);
  }
  EncodedTable t(
      {IntColumn("base", base), IntColumn("key", key), IntColumn("low", low)},
      rows);
  PartitionScratch scratch(rows);
  auto p0 = StrippedPartition::FromColumn(t.column(0));
  auto p1 = StrippedPartition::FromColumn(t.column(1));
  auto p2 = StrippedPartition::FromColumn(t.column(2));
  ExpectIdentical(p0.ProductWithColumn(t.column(1), &scratch),
                  ReferenceProduct(p0, p1, rows));
  ASSERT_GE(p0.num_classes(), 2);
  // The clock stands at 1 + 2C; this leaves it at INT32_MAX - 3.
  scratch.ReserveEpochs(std::numeric_limits<int32_t>::max() - 4 -
                        2 * p0.num_classes());
  ExpectIdentical(p0.ProductWithColumn(t.column(2), &scratch),
                  ReferenceProduct(p0, p2, rows));
  // The clock restarted: fresh epochs are small again.
  EXPECT_LE(scratch.ReserveEpochs(1), 2 * p0.num_classes() + 1);
  ExpectIdentical(p2.Product(p0, rows, &scratch),
                  ReferenceProduct(p2, p0, rows));
}

TEST(PartitionCsrTest, SingletonHeavyProductIsEmpty) {
  // Distinct keys on both sides: every bucket is a singleton.
  EncodedColumn a;
  a.name = "a";
  a.ranks = {0, 1, 2, 3, 4, 5};
  a.cardinality = 6;
  auto pa = StrippedPartition::FromColumn(a);
  EXPECT_EQ(pa.num_classes(), 0);
  auto whole = StrippedPartition::WholeRelation(6);
  StrippedPartition prod = whole.Product(pa, 6);
  ExpectIdentical(prod, ReferenceProduct(whole, pa, 6));
  EXPECT_EQ(prod.num_classes(), 0);
}

TEST(PartitionCsrTest, FromClassesKeepsGivenOrder) {
  // FromClasses must preserve both class order and row order (tests and
  // the reference product depend on it); Normalize() restores the
  // canonical form explicitly.
  auto p = StrippedPartition::FromClasses({{5, 3, 9}, {7}, {2, 0}});
  EXPECT_EQ(p.ToString(), "{{5,3,9},{2,0}}");
  EXPECT_FALSE(p.IsCanonical());
  p.Normalize();
  EXPECT_EQ(p.ToString(), "{{0,2},{3,5,9}}");
  EXPECT_TRUE(p.IsCanonical());
}

TEST(PartitionCsrTest, FromColumnIsCanonical) {
  // Classes must come in smallest-row order even when rank order says
  // otherwise: rank 2 appears first in the data here.
  EncodedColumn col;
  col.name = "c";
  col.ranks = {2, 0, 2, 1, 0, 1};
  col.cardinality = 3;
  StrippedPartition p = StrippedPartition::FromColumn(col);
  EXPECT_EQ(p.ToString(), "{{0,2},{1,4},{3,5}}");
  EXPECT_TRUE(p.IsCanonical());
}

TEST(PartitionCsrTest, ProductValueIsDerivationPathIndependent) {
  // The planner's freedom rests on this: Π_{XY} has identical CSR bytes
  // no matter the operand order or the chain that produced it.
  EncodedTable t = testing_util::RandomEncodedTable(500, 3, 6, 77);
  PartitionScratch scratch(500);
  auto p0 = StrippedPartition::FromColumn(t.column(0));
  auto p1 = StrippedPartition::FromColumn(t.column(1));
  auto p2 = StrippedPartition::FromColumn(t.column(2));

  StrippedPartition ab = p0.Product(p1, 500, &scratch);
  StrippedPartition ba = p1.Product(p0, 500, &scratch);
  EXPECT_EQ(ab.row_ids(), ba.row_ids());
  EXPECT_EQ(ab.class_offsets(), ba.class_offsets());

  // All chains to Π_{012} land on the same arrays.
  StrippedPartition via_ab = ab.Product(p2, 500, &scratch);
  StrippedPartition via_bc = p1.Product(p2, 500, &scratch)
                                 .Product(p0, 500, &scratch);
  StrippedPartition via_ac = p0.Product(p2, 500, &scratch)
                                 .Product(p1, 500, &scratch);
  EXPECT_EQ(via_ab.row_ids(), via_bc.row_ids());
  EXPECT_EQ(via_ab.class_offsets(), via_bc.class_offsets());
  EXPECT_EQ(via_ab.row_ids(), via_ac.row_ids());
  EXPECT_EQ(via_ab.class_offsets(), via_ac.class_offsets());
  EXPECT_TRUE(via_ab.IsCanonical());
}

TEST(PartitionCsrTest, ScratchSurvivesShapeChanges) {
  // Alternating products with very different class counts through one
  // scratch must not leak state (counts are restored to zero, class_of
  // to -1).
  EncodedTable wide = testing_util::RandomEncodedTable(400, 2, 180, 31);
  EncodedTable narrow = testing_util::RandomEncodedTable(400, 2, 2, 32);
  PartitionScratch scratch(400);
  auto w0 = StrippedPartition::FromColumn(wide.column(0));
  auto w1 = StrippedPartition::FromColumn(wide.column(1));
  auto n0 = StrippedPartition::FromColumn(narrow.column(0));
  auto n1 = StrippedPartition::FromColumn(narrow.column(1));
  for (int round = 0; round < 3; ++round) {
    ExpectIdentical(w0.Product(w1, 400, &scratch),
                    ReferenceProduct(w0, w1, 400));
    ExpectIdentical(n0.Product(n1, 400, &scratch),
                    ReferenceProduct(n0, n1, 400));
    ExpectIdentical(n0.Product(w1, 400, &scratch),
                    ReferenceProduct(n0, w1, 400));
  }
}

}  // namespace
}  // namespace aod
