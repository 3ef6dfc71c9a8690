// The shard wire format: lossless canonical round-trip of partitions,
// candidate batches and result batches, plus rejection of anything
// corrupted, truncated, misversioned or structurally invalid — the
// cross-shard determinism contract is only as strong as the decoder's
// refusal to accept a partition a local derivation could never produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "data/encoder.h"
#include "exec/thread_pool.h"
#include "gen/random.h"
#include "partition/partition_cache.h"
#include "partition/partition_stitch.h"
#include "partition/stripped_partition.h"
#include "shard/channel.h"
#include "shard/coordinator.h"
#include "shard/shard_runner.h"
#include "shard/wire.h"
#include "test_util.h"

namespace aod {
namespace {

using shard::DecodedFrame;
using shard::DecodeFrame;

/// DecodeFrame returns a view that aliases its input buffer, so the
/// bytes must outlive the view — this holder pins that rule for tests
/// that decode a just-encoded temporary (ASan caught the dangling
/// variant of this pattern).
struct HeldFrame {
  std::vector<uint8_t> bytes;
  Result<DecodedFrame> decoded;
  explicit HeldFrame(std::vector<uint8_t> b)
      : bytes(std::move(b)), decoded(DecodeFrame(bytes)) {}
  bool ok() const { return decoded.ok(); }
  const DecodedFrame& operator*() const { return *decoded; }
};
using shard::FrameType;
using shard::WireCandidate;
using shard::WireOutcome;

void ExpectRoundTrip(const StrippedPartition& p, int64_t num_rows) {
  std::vector<uint8_t> bytes = p.Serialize();
  size_t consumed = 0;
  Result<StrippedPartition> back =
      StrippedPartition::Deserialize(bytes.data(), bytes.size(), num_rows,
                                     &consumed);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(back->row_ids(), p.row_ids());
  EXPECT_EQ(back->class_offsets(), p.class_offsets());
  EXPECT_EQ(back->rows_covered(), p.rows_covered());
  if (back->num_classes() > 0) {
    EXPECT_TRUE(back->IsCanonical());
  }
  // Re-encoding the decoded partition reproduces the original bytes —
  // the property a cross-shard reducer hashes on.
  EXPECT_EQ(back->Serialize(), bytes);
}

// ------------------------------------------------- partition round trip --

TEST(ShardWireTest, EmptyAndWholeRelationRoundTrip) {
  ExpectRoundTrip(StrippedPartition(), 10);
  ExpectRoundTrip(StrippedPartition::WholeRelation(6), 6);
}

// Property: FromColumn and arbitrary Product chains survive the wire
// bit-exactly, across random tables.
class ShardWirePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardWirePropertyTest, RandomPartitionsRoundTrip) {
  Rng rng(GetParam());
  const int64_t rows = 40 + static_cast<int64_t>(rng.UniformInt(0, 160));
  const int cols = 4;
  const int64_t cardinality = 1 + rng.UniformInt(1, 8);
  EncodedTable t = testing_util::RandomEncodedTable(
      rows, cols, cardinality, GetParam() * 977 + 13);

  std::vector<StrippedPartition> singles;
  for (int c = 0; c < cols; ++c) {
    singles.push_back(StrippedPartition::FromColumn(t.column(c)));
    ExpectRoundTrip(singles.back(), rows);
  }
  PartitionScratch scratch(rows);
  for (int a = 0; a < cols; ++a) {
    for (int b = a + 1; b < cols; ++b) {
      StrippedPartition pair =
          singles[static_cast<size_t>(a)].Product(
              singles[static_cast<size_t>(b)], rows, &scratch);
      ExpectRoundTrip(pair, rows);
      for (int c = 0; c < cols; ++c) {
        if (c == a || c == b) continue;
        ExpectRoundTrip(
            pair.Product(singles[static_cast<size_t>(c)], rows, &scratch),
            rows);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardWirePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ------------------------------------------------- partition rejection --

TEST(ShardWireTest, TruncatedPartitionRejectedAtEveryLength) {
  EncodedTable t = testing_util::RandomEncodedTable(30, 2, 3, 5);
  StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
  ASSERT_GT(p.num_classes(), 0);
  std::vector<uint8_t> bytes = p.Serialize();
  for (size_t len = 0; len < bytes.size(); ++len) {
    Result<StrippedPartition> r =
        StrippedPartition::Deserialize(bytes.data(), len, 30);
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  }
}

// Little-endian append helpers for hand-crafting invalid payloads.
void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}
void PutI32(std::vector<uint8_t>* out, int32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(
        (static_cast<uint32_t>(v) >> (8 * i)) & 0xff));
  }
}
std::vector<uint8_t> EncodeRaw(const std::vector<int32_t>& offsets,
                               const std::vector<int32_t>& rows,
                               uint64_t classes, uint64_t covered) {
  std::vector<uint8_t> out;
  PutU64(&out, classes);
  PutU64(&out, covered);
  for (int32_t v : offsets) PutI32(&out, v);
  for (int32_t v : rows) PutI32(&out, v);
  return out;
}

TEST(ShardWireTest, StructurallyInvalidPartitionsRejected) {
  auto expect_reject = [](const std::vector<uint8_t>& bytes, int64_t rows,
                          const char* what) {
    Result<StrippedPartition> r =
        StrippedPartition::Deserialize(bytes.data(), bytes.size(), rows);
    EXPECT_FALSE(r.ok()) << what;
  };
  // Singleton class: offsets ascend by 1.
  expect_reject(EncodeRaw({0, 1}, {0}, 1, 1), 10, "singleton class");
  // Offsets not starting at zero.
  expect_reject(EncodeRaw({1, 3}, {0, 1}, 1, 2), 10, "offset base != 0");
  // Offsets not covering the row arena.
  expect_reject(EncodeRaw({0, 2}, {0, 1, 2}, 1, 3), 10, "offset/row gap");
  // Row id out of table range.
  expect_reject(EncodeRaw({0, 2}, {0, 11}, 1, 2), 10, "row out of range");
  // Negative row id.
  expect_reject(EncodeRaw({0, 2}, {-1, 3}, 1, 2), 10, "negative row");
  // Row in two classes.
  expect_reject(EncodeRaw({0, 2, 4}, {0, 1, 1, 2}, 2, 4), 10,
                "overlapping classes");
  // Rows descending within a class (not canonical).
  expect_reject(EncodeRaw({0, 2}, {3, 1}, 1, 2), 10, "rows descending");
  // Classes not ordered by smallest row id (not canonical).
  expect_reject(EncodeRaw({0, 2, 4}, {4, 5, 0, 1}, 2, 4), 10,
                "class order not canonical");
  // More covered rows than the table holds.
  expect_reject(EncodeRaw({0, 2}, {0, 1}, 1, 2), 1, "covers > table");
  // Class/row counts inconsistent.
  expect_reject(EncodeRaw({}, {}, 0, 4), 10, "rows without classes");
}

TEST(ShardWireTest, NonCanonicalLocalPartitionIsRejectedOnDecode) {
  // FromClasses keeps the given (non-canonical) order; the wire decoder
  // must refuse it even though encoding it succeeds.
  StrippedPartition p =
      StrippedPartition::FromClasses({{4, 5}, {0, 1}});
  ASSERT_FALSE(p.IsCanonical());
  std::vector<uint8_t> bytes = p.Serialize();
  EXPECT_FALSE(
      StrippedPartition::Deserialize(bytes.data(), bytes.size(), 10).ok());
  p.Normalize();
  ExpectRoundTrip(p, 10);
}

// ------------------------------------------------------ frame layer --

TEST(ShardWireTest, FrameCorruptionDetectedAtEveryByte) {
  EncodedTable t = testing_util::RandomEncodedTable(20, 2, 3, 9);
  StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
  const std::vector<uint8_t> frame =
      shard::EncodePartitionBlock(AttributeSet::Of({0}), p);

  // The pristine frame decodes.
  Result<DecodedFrame> good = DecodeFrame(frame);
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(shard::DecodePartitionBlock(*good, 20).ok());

  // Any single corrupted byte — header or payload — must be caught by
  // magic/version/size/checksum validation or by payload validation.
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x5a;
    Result<DecodedFrame> decoded = DecodeFrame(bad);
    if (!decoded.ok()) continue;
    EXPECT_FALSE(shard::DecodePartitionBlock(*decoded, 20).ok())
        << "corrupted byte " << i << " accepted";
  }
}

TEST(ShardWireTest, TruncatedFrameRejected) {
  const std::vector<uint8_t> frame =
      shard::EncodeCandidateBatch({WireCandidate{}});
  for (size_t len = 0; len < frame.size(); ++len) {
    std::vector<uint8_t> prefix(frame.begin(),
                                frame.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(DecodeFrame(prefix).ok()) << "prefix " << len;
  }
}

TEST(ShardWireTest, UnsupportedVersionRejected) {
  std::vector<uint8_t> frame = shard::EncodeCandidateBatch({});
  frame[4] ^= 0xff;  // version field, little-endian at offset 4
  Result<DecodedFrame> r = DecodeFrame(frame);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("version"), std::string::npos);
}

TEST(ShardWireTest, FrameTypeMismatchRejectedByMessageDecoders) {
  std::vector<uint8_t> frame = shard::EncodeCandidateBatch({});
  Result<DecodedFrame> decoded = DecodeFrame(frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(shard::DecodeResultBatch(*decoded).ok());
  EXPECT_FALSE(shard::DecodePartitionBlock(*decoded, 10).ok());
}

// --------------------------------------------------- message payloads --

TEST(ShardWireTest, CandidateBatchRoundTrip) {
  std::vector<WireCandidate> batch;
  WireCandidate ofd;
  ofd.slot = 3;
  ofd.context_bits = 0b1011;
  ofd.kind = DependencyKind::kOfd;
  ofd.target = 2;
  batch.push_back(ofd);
  WireCandidate oc;
  oc.slot = 7;
  oc.context_bits = 0b100;
  oc.pair_a = 0;
  oc.pair_b = 5;
  oc.opposite = true;
  batch.push_back(oc);

  HeldFrame frame(shard::EncodeCandidateBatch(batch));
  ASSERT_TRUE(frame.ok());
  Result<std::vector<WireCandidate>> back =
      shard::DecodeCandidateBatch(*frame);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0].slot, 3u);
  EXPECT_EQ((*back)[0].context_bits, 0b1011u);
  EXPECT_EQ((*back)[0].kind, DependencyKind::kOfd);
  EXPECT_EQ((*back)[0].target, 2);
  EXPECT_EQ((*back)[1].slot, 7u);
  EXPECT_EQ((*back)[1].pair_a, 0);
  EXPECT_EQ((*back)[1].pair_b, 5);
  EXPECT_TRUE((*back)[1].opposite);

  HeldFrame empty(shard::EncodeCandidateBatch({}));
  ASSERT_TRUE(empty.ok());
  Result<std::vector<WireCandidate>> none =
      shard::DecodeCandidateBatch(*empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST(ShardWireTest, ResultBatchRoundTripIsBitExact) {
  std::vector<WireOutcome> outcomes;
  WireOutcome o;
  o.slot = 12;
  o.valid = true;
  o.early_exit = true;
  o.removal_size = 41;
  // Values chosen to be unrepresentable in short decimal form: only a
  // bit-pattern encoding reproduces them exactly.
  o.approx_factor = 0.1 + 1e-17;
  o.interestingness = 1.0 / 3.0;
  o.seconds = 2.5e-7;
  o.removal_rows = {5, 9, 2};
  outcomes.push_back(o);
  outcomes.push_back(WireOutcome{});

  HeldFrame frame(shard::EncodeResultBatch(outcomes, /*final_chunk=*/true));
  ASSERT_TRUE(frame.ok());
  Result<shard::WireResultChunk> back = shard::DecodeResultBatch(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->final_chunk);
  ASSERT_EQ(back->outcomes.size(), 2u);
  const WireOutcome& b = back->outcomes[0];
  EXPECT_EQ(b.slot, 12u);
  EXPECT_TRUE(b.valid);
  EXPECT_TRUE(b.early_exit);
  EXPECT_EQ(b.removal_size, 41);
  EXPECT_EQ(b.approx_factor, o.approx_factor);
  EXPECT_EQ(b.interestingness, o.interestingness);
  EXPECT_EQ(b.seconds, o.seconds);
  EXPECT_EQ(b.removal_rows, o.removal_rows);
  EXPECT_FALSE(back->outcomes[1].valid);

  // A non-final chunk keeps its flag through the round trip too — the
  // coordinator's stream reassembly depends on it.
  HeldFrame open_chunk(
      shard::EncodeResultBatch(outcomes, /*final_chunk=*/false));
  ASSERT_TRUE(open_chunk.ok());
  Result<shard::WireResultChunk> open = shard::DecodeResultBatch(*open_chunk);
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(open->final_chunk);
  ASSERT_EQ(open->outcomes.size(), 2u);
  EXPECT_EQ(open->outcomes[0].approx_factor, o.approx_factor);

  // An empty final chunk is how a runner answers a level it had no
  // outcomes for.
  HeldFrame empty(shard::EncodeResultBatch({}, /*final_chunk=*/true));
  ASSERT_TRUE(empty.ok());
  Result<shard::WireResultChunk> none = shard::DecodeResultBatch(*empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->final_chunk);
  EXPECT_TRUE(none->outcomes.empty());
}

TEST(ShardWireTest, ConfigBlockRoundTripAndRejection) {
  shard::WireRunnerConfig config;
  config.shard_id = 3;
  config.validator = 1;
  config.epsilon = 0.1 + 1e-17;  // bit-exact or bust
  config.collect_removal_sets = true;
  config.partition_memory_budget_bytes = 1 << 20;
  config.num_threads = 4;

  HeldFrame frame(shard::EncodeConfigBlock(config));
  ASSERT_TRUE(frame.ok());
  Result<shard::WireRunnerConfig> back = shard::DecodeConfigBlock(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shard_id, 3u);
  EXPECT_EQ(back->validator, 1);
  EXPECT_EQ(back->epsilon, config.epsilon);
  EXPECT_TRUE(back->collect_removal_sets);
  EXPECT_EQ(back->partition_memory_budget_bytes, 1 << 20);
  EXPECT_EQ(back->num_threads, 4u);

  // Structural rejection: a validator kind that does not exist and an
  // epsilon outside [0, 1] decode as ParseError, not as garbage config.
  config.validator = 9;
  HeldFrame bad_validator(shard::EncodeConfigBlock(config));
  ASSERT_TRUE(bad_validator.ok());
  EXPECT_FALSE(shard::DecodeConfigBlock(*bad_validator).ok());
  config.validator = 1;
  config.epsilon = 1.5;
  HeldFrame bad_epsilon(shard::EncodeConfigBlock(config));
  EXPECT_FALSE(shard::DecodeConfigBlock(*bad_epsilon).ok());
}

TEST(ShardWireTest, TableBlockRoundTripsRanksExactly) {
  EncodedTable t = testing_util::RandomEncodedTable(120, 4, 7, 21);
  HeldFrame frame(shard::EncodeTableBlock(t));
  ASSERT_TRUE(frame.ok());
  Result<EncodedTable> back = shard::DecodeTableBlock(*frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->num_columns(), t.num_columns());
  ASSERT_EQ(back->num_rows(), t.num_rows());
  for (int c = 0; c < t.num_columns(); ++c) {
    EXPECT_EQ(back->name(c), t.name(c));
    EXPECT_EQ(back->ranks(c), t.ranks(c));
    EXPECT_EQ(back->column(c).cardinality, t.column(c).cardinality);
    // Dictionaries never cross the seam (validators are rank-only).
    EXPECT_TRUE(back->column(c).dictionary.empty());
  }
}

TEST(ShardWireTest, TableBlockCorruptionDetectedAtEveryByte) {
  EncodedTable t = testing_util::RandomEncodedTable(20, 2, 3, 5);
  const std::vector<uint8_t> frame = shard::EncodeTableBlock(t);
  for (size_t i = 0; i < frame.size(); ++i) {
    std::vector<uint8_t> bad = frame;
    bad[i] ^= 0x5a;
    Result<DecodedFrame> decoded = DecodeFrame(bad);
    if (!decoded.ok()) continue;
    EXPECT_FALSE(shard::DecodeTableBlock(*decoded).ok())
        << "corrupted byte " << i << " accepted";
  }
}

/// Flips payload byte `i` and re-seals the frame checksum, so the
/// corruption reaches the payload decoder instead of being absorbed by
/// checksum validation (same methodology as shard_codec_test).
std::vector<uint8_t> CorruptPayloadResealed(const std::vector<uint8_t>& frame,
                                            size_t i) {
  std::vector<uint8_t> bad = frame;
  bad[shard::kFrameHeaderBytes + i] ^= 0x5a;
  const uint64_t checksum = shard::WireChecksum(
      bad.data() + shard::kFrameHeaderBytes,
      bad.size() - shard::kFrameHeaderBytes);
  for (int b = 0; b < 8; ++b) {
    bad[16 + static_cast<size_t>(b)] =
        static_cast<uint8_t>((checksum >> (8 * b)) & 0xff);
  }
  return bad;
}

TEST(ShardWireTest, TableSliceRoundTripsWithGlobalOffset) {
  EncodedTable t = testing_util::RandomEncodedTable(120, 4, 7, 29);
  for (const auto& [lo, hi] :
       std::vector<std::pair<int64_t, int64_t>>{{0, 120}, {0, 40}, {40, 90},
                                                {90, 120}, {60, 60}}) {
    for (bool compress : {false, true}) {
      HeldFrame frame(shard::EncodeTableSlice(t, lo, hi, compress));
      ASSERT_TRUE(frame.ok());
      Result<shard::WireTableSlice> back = shard::DecodeTableSlice(*frame);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(back->row_offset, lo);
      EXPECT_EQ(back->total_rows, 120);
      ASSERT_EQ(back->table.num_rows(), hi - lo);
      ASSERT_EQ(back->table.num_columns(), t.num_columns());
      for (int c = 0; c < t.num_columns(); ++c) {
        EXPECT_EQ(back->table.name(c), t.name(c));
        // Cardinality stays table-global even though only a slice of
        // ranks shipped — the property that keeps fragments stitchable.
        EXPECT_EQ(back->table.column(c).cardinality, t.column(c).cardinality);
        EXPECT_EQ(back->table.ranks(c),
                  std::vector<int32_t>(t.ranks(c).begin() + lo,
                                       t.ranks(c).begin() + hi));
      }
    }
  }

  // The whole-table slice is byte-identical to EncodeTableBlock — v5
  // made every table block a slice.
  EXPECT_EQ(shard::EncodeTableSlice(t, 0, 120), shard::EncodeTableBlock(t));
}

TEST(ShardWireTest, TableBlockDecoderRejectsSlices) {
  EncodedTable t = testing_util::RandomEncodedTable(50, 2, 4, 31);
  HeldFrame slice(shard::EncodeTableSlice(t, 10, 30));
  ASSERT_TRUE(slice.ok());
  // The slice decodes as a slice but NOT as a whole table: a partial
  // table silently accepted whole would corrupt every downstream
  // partition.
  EXPECT_TRUE(shard::DecodeTableSlice(*slice).ok());
  Result<EncodedTable> as_block = shard::DecodeTableBlock(*slice);
  ASSERT_FALSE(as_block.ok());
  EXPECT_NE(as_block.status().message().find("slice"), std::string::npos);
}

TEST(ShardWireTest, TableSliceCorruptionDetectedAtEveryPayloadByte) {
  EncodedTable t = testing_util::RandomEncodedTable(24, 2, 3, 7);
  for (bool compress : {false, true}) {
    const std::vector<uint8_t> frame = shard::EncodeTableSlice(
        t, 4, 20, compress);
    const std::vector<int32_t> want(t.ranks(0).begin() + 4,
                                    t.ranks(0).begin() + 20);
    for (size_t i = 0; i < frame.size() - shard::kFrameHeaderBytes; ++i) {
      HeldFrame bad(CorruptPayloadResealed(frame, i));
      if (!bad.ok()) continue;
      Result<shard::WireTableSlice> decoded = shard::DecodeTableSlice(*bad);
      if (!decoded.ok()) continue;
      // A flip the structural validation cannot catch (e.g. inside a
      // rank array) must still decode to *different* content, never
      // silently to the original — checksummed frames make reaching
      // here require an adversary who re-sealed, and even then the
      // decode is structurally valid or visibly different.
      EXPECT_FALSE(decoded->row_offset == 4 && decoded->total_rows == 24 &&
                   decoded->table.num_rows() == 16 &&
                   decoded->table.ranks(0) == want &&
                   decoded->table.ranks(1) ==
                       std::vector<int32_t>(t.ranks(1).begin() + 4,
                                            t.ranks(1).begin() + 20) &&
                   decoded->table.name(0) == t.name(0) &&
                   decoded->table.name(1) == t.name(1))
          << "corrupted payload byte " << i
          << " decoded back to the original slice";
    }
  }
}

TEST(ShardWireTest, PartitionFragmentFrameRoundTripBothCodecs) {
  EncodedTable t = testing_util::RandomEncodedTable(80, 2, 4, 37);
  const PartitionFragment f = FragmentFromColumn(t.column(0), 20, 65, 0);
  for (bool compress : {false, true}) {
    shard::CodecByteCounts enc;
    HeldFrame frame(shard::EncodePartitionFragment(f, compress, &enc));
    ASSERT_TRUE(frame.ok());
    EXPECT_EQ((*frame).type, FrameType::kPartitionFragment);
    shard::CodecByteCounts dec;
    Result<PartitionFragment> back =
        shard::DecodePartitionFragment(*frame, 80, &dec);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->attribute, 0);
    EXPECT_EQ(back->row_begin, 20);
    EXPECT_EQ(back->row_end, 65);
    EXPECT_EQ(back->class_ranks, f.class_ranks);
    EXPECT_EQ(back->class_offsets, f.class_offsets);
    EXPECT_EQ(back->row_ids, f.row_ids);
    // Raw accounting is codec-independent; wire reflects what shipped.
    EXPECT_EQ(enc.raw, dec.raw);
    EXPECT_EQ(enc.wire, static_cast<int64_t>(frame.bytes.size()));
  }
  // Economy: the delta codec never ships more than raw (budget bail).
  EXPECT_LE(shard::EncodePartitionFragment(f, true).size(),
            shard::EncodePartitionFragment(f, false).size());

  // A fragment whose range exceeds the table is rejected.
  HeldFrame frame(shard::EncodePartitionFragment(f, false));
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(shard::DecodePartitionFragment(*frame, 64).ok());
  // Wrong frame type refused.
  HeldFrame shutdown(shard::EncodeShutdown());
  ASSERT_TRUE(shutdown.ok());
  EXPECT_FALSE(shard::DecodePartitionFragment(*shutdown, 80).ok());
}

// Property: fragment frames of random slices round-trip bit-exactly
// under both codecs, across random tables (the fuzz analogue of the
// targeted pins above).
TEST_P(ShardWirePropertyTest, RandomFragmentFramesRoundTrip) {
  Rng rng(GetParam() * 131 + 7);
  const int64_t rows = 20 + static_cast<int64_t>(rng.UniformInt(0, 200));
  EncodedTable t = testing_util::RandomEncodedTable(
      rows, 3, 1 + rng.UniformInt(1, 12), GetParam() * 277 + 5);
  for (int trial = 0; trial < 8; ++trial) {
    int64_t lo = rng.UniformInt(0, rows);
    int64_t hi = rng.UniformInt(0, rows);
    if (lo > hi) std::swap(lo, hi);
    const int a = static_cast<int>(rng.UniformInt(0, 2));
    const PartitionFragment f = FragmentFromColumn(t.column(a), lo, hi, a);
    for (bool compress : {false, true}) {
      HeldFrame frame(shard::EncodePartitionFragment(f, compress));
      ASSERT_TRUE(frame.ok());
      Result<PartitionFragment> back =
          shard::DecodePartitionFragment(*frame, rows);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      EXPECT_EQ(back->class_ranks, f.class_ranks);
      EXPECT_EQ(back->class_offsets, f.class_offsets);
      EXPECT_EQ(back->row_ids, f.row_ids);
      EXPECT_EQ(back->Serialize(), f.Serialize());
    }
  }
}

TEST(ShardWireTest, FragmentCorruptionDetectedAtEveryPayloadByte) {
  EncodedTable t = testing_util::RandomEncodedTable(30, 2, 3, 43);
  const PartitionFragment f = FragmentFromColumn(t.column(0), 5, 25, 0);
  const std::vector<uint8_t> good = f.Serialize();
  for (bool compress : {false, true}) {
    const std::vector<uint8_t> frame =
        shard::EncodePartitionFragment(f, compress);
    for (size_t i = 0; i < frame.size() - shard::kFrameHeaderBytes; ++i) {
      HeldFrame bad(CorruptPayloadResealed(frame, i));
      if (!bad.ok()) continue;
      Result<PartitionFragment> decoded =
          shard::DecodePartitionFragment(*bad, 30);
      if (!decoded.ok()) continue;
      // Survivors must differ visibly (attribute/range/content) — the
      // shared Deserialize gate upholds every fragment invariant, so a
      // byte flip can never smuggle in a same-looking fragment.
      EXPECT_FALSE(decoded->attribute == 0 && decoded->row_begin == 5 &&
                   decoded->row_end == 25 && decoded->Serialize() == good)
          << "corrupted payload byte " << i
          << " decoded back to the original fragment (compress="
          << compress << ")";
    }
  }
}

TEST(ShardWireTest, ConfigRowRangeRoundTripAndRejection) {
  shard::WireRunnerConfig config;
  config.shard_id = 1;
  config.row_begin = 100;
  config.row_end = 250;
  HeldFrame frame(shard::EncodeConfigBlock(config));
  ASSERT_TRUE(frame.ok());
  Result<shard::WireRunnerConfig> back = shard::DecodeConfigBlock(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->row_begin, 100);
  EXPECT_EQ(back->row_end, 250);

  // An inverted or negative range decodes as ParseError.
  config.row_begin = 10;
  config.row_end = 5;
  HeldFrame inverted(shard::EncodeConfigBlock(config));
  ASSERT_TRUE(inverted.ok());
  EXPECT_FALSE(shard::DecodeConfigBlock(*inverted).ok());
  config.row_begin = -1;
  config.row_end = 5;
  HeldFrame negative(shard::EncodeConfigBlock(config));
  ASSERT_TRUE(negative.ok());
  EXPECT_FALSE(shard::DecodeConfigBlock(*negative).ok());
}

TEST(ShardWireTest, StatsFooterRoundTripAndShutdownFrame) {
  shard::ShardStatsFooter footer;
  footer.shard_id = 7;
  footer.frames_served = 12;
  footer.products_computed = 34;
  footer.planner_derivations = 21;
  footer.planner_cost_estimated = 5000;
  footer.planner_cost_realized = 4800;
  footer.partitions_evicted = 2;
  footer.partition_bytes_evicted = 4096;
  footer.partition_bytes_final = 123;
  footer.partition_bytes_peak = 456;
  footer.partition_seconds = 1.0 / 3.0;

  HeldFrame frame(shard::EncodeStatsFooter(footer));
  ASSERT_TRUE(frame.ok());
  Result<shard::ShardStatsFooter> back = shard::DecodeStatsFooter(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->shard_id, 7u);
  EXPECT_EQ(back->frames_served, 12);
  EXPECT_EQ(back->products_computed, 34);
  EXPECT_EQ(back->planner_derivations, 21);
  EXPECT_EQ(back->planner_cost_estimated, 5000);
  EXPECT_EQ(back->planner_cost_realized, 4800);
  EXPECT_EQ(back->partitions_evicted, 2);
  EXPECT_EQ(back->partition_bytes_evicted, 4096);
  EXPECT_EQ(back->partition_bytes_final, 123);
  EXPECT_EQ(back->partition_bytes_peak, 456);
  EXPECT_EQ(back->partition_seconds, footer.partition_seconds);

  // Negative counters are structurally impossible outputs; reject them.
  footer.products_computed = -1;
  HeldFrame bad(shard::EncodeStatsFooter(footer));
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(shard::DecodeStatsFooter(*bad).ok());
  footer.products_computed = 34;
  footer.partition_bytes_peak = -5;
  HeldFrame bad_peak(shard::EncodeStatsFooter(footer));
  ASSERT_TRUE(bad_peak.ok());
  EXPECT_FALSE(shard::DecodeStatsFooter(*bad_peak).ok());

  // The shutdown frame is a bare, checksummed header.
  HeldFrame shutdown(shard::EncodeShutdown());
  ASSERT_TRUE(shutdown.ok());
  EXPECT_EQ((*shutdown).type, FrameType::kShutdown);
  EXPECT_EQ((*shutdown).size, 0u);
  // And like every frame, a footer decoder refuses it.
  EXPECT_FALSE(shard::DecodeStatsFooter(*shutdown).ok());
}

// ------------------------------------------- wire-seeded cache parity --

TEST(ShardWireTest, WireSeededCacheDerivesIdenticalPartitions) {
  EncodedTable t = testing_util::RandomEncodedTable(200, 4, 3, 33);
  PartitionCache local(&t);
  PartitionCache seeded(&t, PartitionCache::DeferBasePartitions{});
  for (int a = 0; a < t.num_columns(); ++a) {
    // Through the full frame path, as a shard runner receives them.
    HeldFrame frame(shard::EncodePartitionBlock(
        AttributeSet::Of({a}),
        StrippedPartition::FromColumn(t.column(a))));
    ASSERT_TRUE(frame.ok());
    auto block = shard::DecodePartitionBlock(*frame, t.num_rows());
    ASSERT_TRUE(block.ok());
    seeded.Preload(block->first, std::move(block->second));
  }
  for (uint64_t bits = 0; bits < 16; ++bits) {
    AttributeSet set(bits);
    EXPECT_EQ(seeded.Get(set)->Serialize(), local.Get(set)->Serialize())
        << set.ToString();
  }
}

TEST(ShardWireTest, RunnerPublishesBatchContextsBetweenBatches) {
  // Once a batch is done its contexts join the runner's planner catalog,
  // so the next batch derives Π_{012} from Π_{01} in one product instead
  // of extending a single in two.
  EncodedTable t = testing_util::RandomEncodedTable(200, 4, 3, 33);
  shard::ChannelOptions copts;
  copts.receive_timeout_seconds = 10.0;
  testing_util::ChannelPair link = testing_util::SocketChannelPair(copts);
  shard::ShardRunner runner(0, &t, shard::ShardRunnerOptions{},
                            /*pool=*/nullptr);
  shard::ShardServeLoop loop(&runner, link.far.get());
  for (int a = 0; a < t.num_columns(); ++a) {
    ASSERT_TRUE(link.near
                    ->Send(shard::EncodePartitionBlock(
                        AttributeSet::Of({a}),
                        StrippedPartition::FromColumn(t.column(a))))
                    .ok());
    ASSERT_TRUE(loop.ServeOne().ok());
  }
  auto serve_batch = [&](AttributeSet context) {
    WireCandidate c;
    c.context_bits = context.bits();
    c.kind = DependencyKind::kOfd;
    c.target = 3;
    ASSERT_TRUE(link.near->Send(shard::EncodeCandidateBatch({c})).ok());
    ASSERT_TRUE(loop.ServeOne().ok());
    // The reply is one final-flagged result chunk carrying the outcome.
    Result<std::vector<uint8_t>> reply = link.near->Receive();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    HeldFrame frame(*reply);
    ASSERT_TRUE(frame.ok());
    auto chunk = shard::DecodeResultBatch(*frame);
    ASSERT_TRUE(chunk.ok());
    EXPECT_TRUE(chunk->final_chunk);
    EXPECT_EQ(chunk->outcomes.size(), 1u);
  };
  serve_batch(AttributeSet::Of({0, 1}));
  EXPECT_EQ(runner.FooterStats().products_computed, 1);
  serve_batch(AttributeSet::Of({0, 1, 2}));
  const shard::ShardStatsFooter footer = runner.FooterStats();
  EXPECT_EQ(footer.products_computed, 2);
  EXPECT_EQ(footer.planner_derivations, 2);
  EXPECT_LE(footer.planner_cost_realized, footer.planner_cost_estimated);
}

TEST(ShardWireTest, RunnerDerivesSharedContextOnce) {
  // Two candidates of one batch name the same missing context: the
  // batch's derive step builds it once, with the units on 4 workers.
  EncodedTable t = testing_util::RandomEncodedTable(200, 4, 3, 35);
  exec::ThreadPool pool(4);
  shard::ShardRunner runner(0, &t, shard::ShardRunnerOptions{}, &pool);
  for (int a = 0; a < t.num_columns(); ++a) {
    HeldFrame frame(shard::EncodePartitionBlock(
        AttributeSet::Of({a}), StrippedPartition::FromColumn(t.column(a))));
    ASSERT_TRUE(frame.ok() && runner.PreloadBlock(*frame).ok());
  }
  std::vector<WireCandidate> batch(2);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i] = {.slot = i, .context_bits = AttributeSet::Of({0, 1}).bits(),
                .kind = DependencyKind::kOfd, .target = 2 + static_cast<int>(i)};
  }
  EXPECT_EQ(runner.ValidateBatch(batch).size(), 2u);
  runner.FinishBatch();
  EXPECT_EQ(runner.FooterStats().products_computed, 1);
  EXPECT_EQ(runner.FooterStats().planner_derivations, 1);
}

TEST(ShardWireTest, ShardAssignmentIsStableAndInRange) {
  for (int shards : {1, 2, 4, 8}) {
    for (uint64_t bits = 0; bits < 64; ++bits) {
      const int s = shard::ShardCoordinator::ShardOf(bits, shards);
      EXPECT_GE(s, 0);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, shard::ShardCoordinator::ShardOf(bits, shards));
    }
  }
}

}  // namespace
}  // namespace aod
