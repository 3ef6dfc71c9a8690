// Row-space sharding's reducer: per-range partition fragments and the
// class-stitching merge. The load-bearing pin is bit-identity — for any
// contiguous tiling of the rows, StitchPartitions over the per-range
// fragments must reproduce StrippedPartition::FromColumn on the full
// column byte for byte, because that equality is what carries the
// determinism contract across the row-shard seam.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/encoder.h"
#include "gen/random.h"
#include "partition/partition_stitch.h"
#include "partition/stripped_partition.h"
#include "shard/row_sharding.h"
#include "test_util.h"

namespace aod {
namespace {

// ------------------------------------------------- range assignment --

TEST(RowShardingTest, AssignRowRangesTilesExactlyAndBalanced) {
  for (int64_t rows : {0, 1, 7, 64, 1000}) {
    for (int shards : {1, 2, 3, 4, 7, 16}) {
      const std::vector<shard::RowRange> ranges =
          shard::AssignRowRanges(rows, shards);
      ASSERT_EQ(ranges.size(), static_cast<size_t>(shards));
      int64_t expect = 0;
      int64_t min_len = rows + 1;
      int64_t max_len = -1;
      for (const shard::RowRange& r : ranges) {
        EXPECT_EQ(r.begin, expect);
        EXPECT_GE(r.end, r.begin);
        min_len = std::min(min_len, r.end - r.begin);
        max_len = std::max(max_len, r.end - r.begin);
        expect = r.end;
      }
      EXPECT_EQ(expect, rows);
      EXPECT_LE(max_len - min_len, 1) << rows << " rows / " << shards;
    }
  }
}

// ------------------------------------------------ fragment building --

TEST(PartitionStitchTest, FragmentFromColumnKnownValues) {
  // ranks: rows 0..5 -> 1 0 1 2 0 1 (cardinality 3)
  EncodedColumn col;
  col.ranks = {1, 0, 1, 2, 0, 1};
  col.cardinality = 3;
  const PartitionFragment f = FragmentFromColumn(col, 0, 6, /*attribute=*/2);
  EXPECT_EQ(f.attribute, 2);
  EXPECT_EQ(f.row_begin, 0);
  EXPECT_EQ(f.row_end, 6);
  // Classes keyed and ordered by rank, singletons kept, rows ascending.
  EXPECT_EQ(f.class_ranks, (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(f.class_offsets, (std::vector<int32_t>{0, 2, 5, 6}));
  EXPECT_EQ(f.row_ids, (std::vector<int32_t>{1, 4, 0, 2, 5, 3}));

  // A sub-range sees only its own rows, with global ids.
  const PartitionFragment mid = FragmentFromColumn(col, 2, 5, 2);
  EXPECT_EQ(mid.class_ranks, (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(mid.class_offsets, (std::vector<int32_t>{0, 1, 2, 3}));
  EXPECT_EQ(mid.row_ids, (std::vector<int32_t>{4, 2, 3}));

  // The empty range is a valid fragment: no classes, no rows.
  const PartitionFragment empty = FragmentFromColumn(col, 3, 3, 2);
  EXPECT_EQ(empty.num_classes(), 0);
  EXPECT_EQ(empty.num_rows(), 0);
  EXPECT_EQ(empty.class_offsets, (std::vector<int32_t>{0}));
}

TEST(PartitionStitchTest, FragmentFromSliceMatchesFromColumn) {
  EncodedTable t = testing_util::RandomEncodedTable(97, 3, 6, 11);
  for (int a = 0; a < t.num_columns(); ++a) {
    const EncodedColumn& full = t.column(a);
    for (const auto& [lo, hi] :
         std::vector<std::pair<int64_t, int64_t>>{{0, 97}, {13, 55}, {55, 97},
                                                  {40, 40}}) {
      // A slice column holds only the range's ranks but the GLOBAL
      // cardinality — exactly what DecodeTableSlice hands the runner.
      EncodedColumn slice;
      slice.cardinality = full.cardinality;
      slice.ranks.assign(full.ranks.begin() + lo, full.ranks.begin() + hi);
      const PartitionFragment from_slice = FragmentFromSlice(slice, lo, a);
      const PartitionFragment from_column = FragmentFromColumn(full, lo, hi, a);
      EXPECT_EQ(from_slice.class_ranks, from_column.class_ranks);
      EXPECT_EQ(from_slice.class_offsets, from_column.class_offsets);
      EXPECT_EQ(from_slice.row_ids, from_column.row_ids);
      EXPECT_EQ(from_slice.row_begin, from_column.row_begin);
      EXPECT_EQ(from_slice.row_end, from_column.row_end);
    }
  }
}

// ------------------------------------------------- stitch bit-identity --

void ExpectStitchMatchesFromColumn(const EncodedTable& t, int row_shards) {
  const std::vector<shard::RowRange> ranges =
      shard::AssignRowRanges(t.num_rows(), row_shards);
  for (int a = 0; a < t.num_columns(); ++a) {
    std::vector<PartitionFragment> fragments;
    for (const shard::RowRange& r : ranges) {
      fragments.push_back(FragmentFromColumn(t.column(a), r.begin, r.end, a));
    }
    Result<StrippedPartition> stitched =
        StitchPartitions(fragments, t.num_rows());
    ASSERT_TRUE(stitched.ok()) << stitched.status().ToString();
    const StrippedPartition direct = StrippedPartition::FromColumn(t.column(a));
    // Byte-for-byte, not merely equivalent: the stitched bases feed the
    // same frames / fingerprints the unsharded bases do.
    EXPECT_EQ(stitched->Serialize(), direct.Serialize())
        << "attribute " << a << ", " << row_shards << " row shards";
    if (stitched->num_classes() > 0) {
      EXPECT_TRUE(stitched->IsCanonical());
    }
  }
}

class StitchPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StitchPropertyTest, StitchIsBitIdenticalToFromColumn) {
  Rng rng(GetParam());
  const int64_t rows = 30 + static_cast<int64_t>(rng.UniformInt(0, 170));
  const int64_t cardinality = 1 + rng.UniformInt(1, 10);
  EncodedTable t = testing_util::RandomEncodedTable(
      rows, 4, cardinality, GetParam() * 7919 + 3);
  for (int shards : {1, 2, 3, 4, 7}) {
    ExpectStitchMatchesFromColumn(t, shards);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StitchPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(PartitionStitchTest, StitchEdgeCases) {
  // More shards than rows: empty ranges are legal tiles.
  EncodedTable tiny = testing_util::RandomEncodedTable(3, 2, 2, 17);
  ExpectStitchMatchesFromColumn(tiny, 8);

  // All-distinct column: every class is a cross-range singleton, the
  // stitched partition is empty.
  EncodedColumn distinct;
  distinct.cardinality = 6;
  distinct.ranks = {5, 3, 0, 4, 1, 2};
  std::vector<PartitionFragment> fragments = {
      FragmentFromColumn(distinct, 0, 3, 0),
      FragmentFromColumn(distinct, 3, 6, 0)};
  Result<StrippedPartition> stitched = StitchPartitions(fragments, 6);
  ASSERT_TRUE(stitched.ok());
  EXPECT_EQ(stitched->num_classes(), 0);

  // A value that is a singleton in BOTH ranges must survive the stitch
  // as one class of two — the case plain per-range stripping would lose.
  EncodedColumn split;
  split.cardinality = 3;
  split.ranks = {0, 1, 2, 1, 0, 2};
  fragments = {FragmentFromColumn(split, 0, 3, 0),
               FragmentFromColumn(split, 3, 6, 0)};
  stitched = StitchPartitions(fragments, 6);
  ASSERT_TRUE(stitched.ok());
  EXPECT_EQ(stitched->Serialize(),
            StrippedPartition::FromColumn(split).Serialize());
  EXPECT_EQ(stitched->num_classes(), 3);

  // Zero-row table.
  stitched = StitchPartitions({}, 0);
  ASSERT_TRUE(stitched.ok());
  EXPECT_EQ(stitched->num_classes(), 0);
}

TEST(PartitionStitchTest, StitchRejectsBadTilings) {
  EncodedColumn col;
  col.cardinality = 2;
  col.ranks = {0, 1, 0, 1};
  const PartitionFragment lo = FragmentFromColumn(col, 0, 2, 0);
  const PartitionFragment hi = FragmentFromColumn(col, 2, 4, 0);
  PartitionFragment other = hi;
  other.attribute = 1;

  // Gap (missing middle), overlap (range repeated), wrong order,
  // short coverage, attribute disagreement.
  EXPECT_FALSE(StitchPartitions({lo}, 4).ok());
  EXPECT_FALSE(StitchPartitions({lo, lo}, 4).ok());
  EXPECT_FALSE(StitchPartitions({hi, lo}, 4).ok());
  EXPECT_FALSE(StitchPartitions({lo, hi}, 5).ok());
  EXPECT_FALSE(StitchPartitions({lo, other}, 4).ok());
  EXPECT_TRUE(StitchPartitions({lo, hi}, 4).ok());
}

// ------------------------------------------------ fragment wire body --

TEST(PartitionStitchTest, FragmentSerializeDeserializeRoundTrip) {
  EncodedTable t = testing_util::RandomEncodedTable(60, 2, 5, 23);
  const PartitionFragment f = FragmentFromColumn(t.column(1), 10, 45, 1);
  const std::vector<uint8_t> bytes = f.Serialize();
  size_t consumed = 0;
  Result<PartitionFragment> back = PartitionFragment::Deserialize(
      bytes.data(), bytes.size(), f.attribute, f.row_begin, f.row_end,
      &consumed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(back->class_ranks, f.class_ranks);
  EXPECT_EQ(back->class_offsets, f.class_offsets);
  EXPECT_EQ(back->row_ids, f.row_ids);
  EXPECT_EQ(back->Serialize(), bytes);

  // Truncation rejected at every prefix length.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(PartitionFragment::Deserialize(bytes.data(), len, 1, 10, 45)
                     .ok())
        << "prefix " << len;
  }
  // The same bytes against a different range: coverage is pinned.
  EXPECT_FALSE(
      PartitionFragment::Deserialize(bytes.data(), bytes.size(), 1, 10, 46)
          .ok());
  EXPECT_FALSE(
      PartitionFragment::Deserialize(bytes.data(), bytes.size(), 1, 9, 44)
          .ok());
}

TEST(PartitionStitchTest, StructurallyInvalidFragmentsRejected) {
  auto encode = [](const std::vector<int32_t>& ranks,
                   const std::vector<int32_t>& offsets,
                   const std::vector<int32_t>& rows) {
    PartitionFragment f;
    f.class_ranks = ranks;
    f.class_offsets = offsets;
    f.row_ids = rows;
    return f.Serialize();
  };
  auto expect_reject = [](const std::vector<uint8_t>& bytes, int64_t begin,
                          int64_t end, const char* what) {
    EXPECT_FALSE(
        PartitionFragment::Deserialize(bytes.data(), bytes.size(), 0, begin,
                                       end)
            .ok())
        << what;
  };
  // Valid shape over [4, 8): ranks {1, 3}, rows {4,6 | 5,7}.
  const std::vector<uint8_t> good =
      encode({1, 3}, {0, 2, 4}, {4, 6, 5, 7});
  ASSERT_TRUE(
      PartitionFragment::Deserialize(good.data(), good.size(), 0, 4, 8).ok());

  expect_reject(encode({3, 1}, {0, 2, 4}, {4, 6, 5, 7}), 4, 8,
                "ranks not ascending");
  expect_reject(encode({1, 1}, {0, 2, 4}, {4, 6, 5, 7}), 4, 8,
                "duplicate rank");
  expect_reject(encode({-1, 3}, {0, 2, 4}, {4, 6, 5, 7}), 4, 8,
                "negative rank");
  expect_reject(encode({1, 3}, {1, 2, 4}, {4, 6, 5, 7}), 4, 8,
                "offset base != 0");
  expect_reject(encode({1, 3}, {0, 2, 2}, {4, 6, 5, 7}), 4, 8,
                "empty class");
  expect_reject(encode({1, 3}, {0, 2, 4}, {4, 6, 5, 9}), 4, 8,
                "row outside range");
  expect_reject(encode({1, 3}, {0, 2, 4}, {6, 4, 5, 7}), 4, 8,
                "rows descending in class");
  expect_reject(encode({1, 3}, {0, 2, 4}, {4, 6, 5, 6}), 4, 8,
                "row in two classes");
  // Not total coverage: 3 rows over a 4-row range.
  expect_reject(encode({1, 3}, {0, 2, 3}, {4, 6, 5}), 4, 8,
                "partial coverage");
}

// ---------------------------------------- the whole phase, in process --

TEST(RowShardingTest, ComputeRowShardedBasesMatchesFromColumn) {
  EncodedTable t = testing_util::RandomEncodedTable(150, 3, 5, 41);
  shard::ShardTransportOptions topts;
  topts.transport = ShardTransport::kInProcess;
  for (int shards : {1, 2, 4, 9}) {
    shard::RowShardStats stats;
    Result<std::vector<StrippedPartition>> bases =
        shard::ComputeRowShardedBases(t, shards, topts, &stats);
    ASSERT_TRUE(bases.ok()) << bases.status().ToString();
    ASSERT_EQ(bases->size(), static_cast<size_t>(t.num_columns()));
    for (int a = 0; a < t.num_columns(); ++a) {
      EXPECT_EQ((*bases)[static_cast<size_t>(a)].Serialize(),
                StrippedPartition::FromColumn(t.column(a)).Serialize());
    }
    EXPECT_EQ(stats.row_shards, shards);
    ASSERT_EQ(stats.table_bytes_per_shard.size(),
              static_cast<size_t>(shards));
    EXPECT_GT(stats.bytes_shipped_total, 0);
  }

  // The point of the axis: per-shard table bytes shrink as O(rows/N).
  shard::RowShardStats one;
  shard::RowShardStats four;
  ASSERT_TRUE(shard::ComputeRowShardedBases(t, 1, topts, &one).ok());
  ASSERT_TRUE(shard::ComputeRowShardedBases(t, 4, topts, &four).ok());
  for (int64_t per_shard : four.table_bytes_per_shard) {
    // A quarter of the rows plus fixed per-column framing overhead.
    EXPECT_LT(per_shard, one.table_bytes_per_shard[0] / 2);
  }
}

}  // namespace
}  // namespace aod
