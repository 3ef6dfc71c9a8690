// The payload codecs: raw and delta-varint partition bodies,
// dictionary-packed table ranks, raw candidate and result batches,
// kBatch envelopes and the batching sender/receiver pair.
//
// The contract under test has three legs. (1) Losslessness: for every
// message and every codec choice, compressed and raw frames decode to
// identical objects — compression may never change what a shard
// computes. (2) Economy: a compressed frame is never larger than its
// raw sibling (the encoder's bail-out threshold). (3) Hostility: a
// corrupted, truncated or structurally invalid payload — and any codec
// id or flag bit the format does not define — is a typed ParseError:
// never an out-of-bounds read (the suite runs under ASan/UBSan in CI),
// a crash, or a silently wrong decode.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "data/encoder.h"
#include "flaky_channel.h"
#include "gen/random.h"
#include "od/dependency_kind.h"
#include "partition/stripped_partition.h"
#include "shard/channel.h"
#include "shard/wire.h"
#include "test_util.h"

namespace aod {
namespace {

using shard::BatchingFrameSender;
using shard::CodecByteCounts;
using shard::DecodedFrame;
using shard::DecodeFrame;
using shard::FrameType;
using shard::LogicalFrameReceiver;
using shard::WireCandidate;
using shard::WireOutcome;
using testing_util::FlakyChannel;

/// Bytes must outlive the DecodedFrame view (see shard_wire_test.cc).
struct HeldFrame {
  std::vector<uint8_t> bytes;
  Result<DecodedFrame> decoded;
  explicit HeldFrame(std::vector<uint8_t> b)
      : bytes(std::move(b)), decoded(DecodeFrame(bytes)) {}
  bool ok() const { return decoded.ok(); }
  const DecodedFrame& operator*() const { return *decoded; }
};

/// Flips payload byte `i` and re-seals the checksum, so the corruption
/// reaches the *payload* decoder instead of being absorbed by the frame
/// checksum — the adversary this models controls the whole frame.
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

// ------------------------------------------------ partition codecs --

void ExpectPartitionCodecEquivalence(const StrippedPartition& p,
                                     int64_t num_rows) {
  const AttributeSet set = AttributeSet::Of({0, 2});
  CodecByteCounts compressed_counts;
  CodecByteCounts raw_counts;
  HeldFrame compressed(shard::EncodePartitionBlock(
      set, p, /*compress=*/true, &compressed_counts));
  HeldFrame raw(shard::EncodePartitionBlock(set, p, /*compress=*/false,
                                            &raw_counts));
  ASSERT_TRUE(compressed.ok());
  ASSERT_TRUE(raw.ok());

  // Economy: the encoder's bail-out keeps compressed <= raw, always.
  EXPECT_LE(compressed.bytes.size(), raw.bytes.size());
  // Both sides agree on the raw baseline; wire reflects what shipped.
  EXPECT_EQ(compressed_counts.raw, raw_counts.raw);
  EXPECT_EQ(compressed_counts.wire,
            static_cast<int64_t>(compressed.bytes.size()));
  EXPECT_EQ(raw_counts.wire, static_cast<int64_t>(raw.bytes.size()));

  // Losslessness: both decode to the same set and bit-identical CSR.
  auto from_compressed = shard::DecodePartitionBlock(*compressed, num_rows);
  auto from_raw = shard::DecodePartitionBlock(*raw, num_rows);
  ASSERT_TRUE(from_compressed.ok()) << from_compressed.status().ToString();
  ASSERT_TRUE(from_raw.ok()) << from_raw.status().ToString();
  EXPECT_EQ(from_compressed->first.bits(), set.bits());
  EXPECT_EQ(from_compressed->second.Serialize(), p.Serialize());
  EXPECT_EQ(from_raw->second.Serialize(), p.Serialize());

  // The decoder reports the same raw/wire split the encoder did.
  CodecByteCounts decode_counts;
  ASSERT_TRUE(
      shard::DecodePartitionBlock(*compressed, num_rows, &decode_counts)
          .ok());
  EXPECT_EQ(decode_counts.raw, compressed_counts.raw);
  EXPECT_EQ(decode_counts.wire, compressed_counts.wire);
}

TEST(ShardCodecTest, PartitionEdgeShapesRoundTripBothCodecs) {
  // Empty partition (no classes), the degenerate single-row table, and
  // the whole-relation partition (one class covering everything).
  ExpectPartitionCodecEquivalence(StrippedPartition(), 1);
  ExpectPartitionCodecEquivalence(StrippedPartition(), 100);
  ExpectPartitionCodecEquivalence(StrippedPartition::WholeRelation(2), 2);
  ExpectPartitionCodecEquivalence(StrippedPartition::WholeRelation(257), 257);
  // Many two-row classes: the adversarial shape for delta coding (no
  // long runs, maximal per-class overhead).
  std::vector<std::vector<int32_t>> classes;
  for (int32_t r = 0; r < 64; r += 2) classes.push_back({r, r + 1});
  StrippedPartition pairs = StrippedPartition::FromClasses(classes);
  pairs.Normalize();
  ExpectPartitionCodecEquivalence(pairs, 64);
  // Interleaved classes: large within-class deltas.
  StrippedPartition striped = StrippedPartition::FromClasses(
      {{0, 100, 200, 300}, {1, 101, 201, 301}, {2, 102, 202}});
  striped.Normalize();
  ExpectPartitionCodecEquivalence(striped, 302);
}

class ShardCodecFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardCodecFuzzTest, RandomPartitionsRoundTripBothCodecs) {
  Rng rng(GetParam() * 7919 + 1);
  const int64_t rows = 1 + static_cast<int64_t>(rng.UniformInt(0, 400));
  // Half the seeds stay low-cardinality (delta-codec territory), half
  // push to mid cardinality, where in-class gaps grow and the delta
  // attempt may bail to raw.
  const int64_t cardinality =
      1 + rng.UniformInt(0, GetParam() % 2 == 0 ? 12 : 160);
  EncodedTable t = testing_util::RandomEncodedTable(
      rows, 3, cardinality, GetParam() * 131 + 7);
  PartitionScratch scratch(rows);
  StrippedPartition a = StrippedPartition::FromColumn(t.column(0));
  StrippedPartition b = StrippedPartition::FromColumn(t.column(1));
  ExpectPartitionCodecEquivalence(a, rows);
  ExpectPartitionCodecEquivalence(a.Product(b, rows, &scratch), rows);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardCodecFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(ShardCodecTest, CompressedPartitionShrinksTypicalCsr) {
  // The headline property: a low-cardinality column over many rows —
  // long ascending runs, the canonical normal form at work — compresses
  // well. This is the shape base partitions actually have.
  EncodedTable t = testing_util::RandomEncodedTable(20000, 1, 8, 42);
  StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
  const std::vector<uint8_t> compressed =
      shard::EncodePartitionBlock(AttributeSet::Of({0}), p);
  const std::vector<uint8_t> raw = shard::EncodePartitionBlock(
      AttributeSet::Of({0}), p, /*compress=*/false);
  EXPECT_LT(compressed.size() * 3, raw.size())
      << "expected >= 3x on a dense ascending CSR, got "
      << raw.size() << " -> " << compressed.size();
}

TEST(ShardCodecTest, CorruptedCompressedPartitionIsTypedAtEveryByte) {
  EncodedTable t = testing_util::RandomEncodedTable(300, 2, 4, 17);
  StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
  const std::vector<uint8_t> frame =
      shard::EncodePartitionBlock(AttributeSet::Of({0}), p);
  HeldFrame pristine(frame);
  ASSERT_TRUE(pristine.ok());
  ASSERT_TRUE(shard::DecodePartitionBlock(*pristine, 300).ok());
  const size_t payload = frame.size() - shard::kFrameHeaderBytes;
  for (size_t i = 0; i < payload; ++i) {
    HeldFrame bad(CorruptPayloadResealed(frame, i));
    // The re-sealed checksum always passes the frame layer; the payload
    // decoder must reject the mutation or decode something canonical —
    // never read out of bounds (ASan/UBSan enforce that part).
    ASSERT_TRUE(bad.ok()) << "reseal failed at byte " << i;
    auto decoded = shard::DecodePartitionBlock(*bad, 300);
    if (!decoded.ok()) continue;
    EXPECT_TRUE(decoded->second.IsCanonical()) << "byte " << i;
  }
}

// ----------------------------------------- candidate + result batches --

std::vector<WireCandidate> RandomCandidates(Rng* rng, size_t n) {
  std::vector<WireCandidate> out;
  uint64_t slot = 0;
  for (size_t i = 0; i < n; ++i) {
    WireCandidate c;
    slot += static_cast<uint64_t>(rng->UniformInt(0, 9));
    c.slot = slot;
    c.context_bits = static_cast<uint64_t>(rng->UniformInt(0, 1 << 20));
    c.kind = static_cast<DependencyKind>(rng->UniformInt(0, 3));
    if (c.kind == DependencyKind::kOc) {
      c.pair_a = static_cast<int32_t>(rng->UniformInt(0, 62));
      c.pair_b = c.pair_a + 1;
      c.opposite = rng->UniformInt(0, 1) == 0;
    } else {
      c.target = static_cast<int32_t>(rng->UniformInt(0, 63));
    }
    out.push_back(c);
  }
  return out;
}

std::vector<WireOutcome> RandomOutcomes(Rng* rng, size_t n, bool rows) {
  std::vector<WireOutcome> out;
  uint64_t slot = 0;
  for (size_t i = 0; i < n; ++i) {
    WireOutcome o;
    slot += static_cast<uint64_t>(rng->UniformInt(0, 5));
    o.slot = slot;
    o.kind = static_cast<DependencyKind>(rng->UniformInt(0, 3));
    o.valid = rng->UniformInt(0, 1) == 0;
    o.early_exit = rng->UniformInt(0, 1) == 0;
    o.removal_size = rng->UniformInt(0, 1000);
    o.approx_factor = 0.1 + static_cast<double>(rng->UniformInt(0, 97)) / 970;
    o.interestingness = 1.0 / (1.0 + static_cast<double>(i));
    o.seconds = 3e-7 * static_cast<double>(rng->UniformInt(0, 100));
    if (rows) {
      int32_t row = 0;
      for (int r = 0; r < rng->UniformInt(0, 20); ++r) {
        row += static_cast<int32_t>(rng->UniformInt(0, 40));
        o.removal_rows.push_back(row);
      }
    }
    out.push_back(o);
  }
  return out;
}

TEST(ShardCodecTest, CorruptedBatchesAreTypedAtEveryByte) {
  Rng rng(555);
  const std::vector<WireCandidate> candidates = RandomCandidates(&rng, 40);
  const std::vector<WireOutcome> outcomes = RandomOutcomes(&rng, 30, true);
  const std::vector<uint8_t> candidate_frame =
      shard::EncodeCandidateBatch(candidates);
  const std::vector<uint8_t> result_frame = shard::EncodeResultBatch(outcomes);

  // The pristine frames round-trip every field, doubles bit-exactly.
  HeldFrame candidate_pristine(candidate_frame);
  ASSERT_TRUE(candidate_pristine.ok());
  auto candidates_back = shard::DecodeCandidateBatch(*candidate_pristine);
  ASSERT_TRUE(candidates_back.ok()) << candidates_back.status().ToString();
  ASSERT_EQ(candidates_back->size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const WireCandidate& c = (*candidates_back)[i];
    EXPECT_EQ(c.slot, candidates[i].slot);
    EXPECT_EQ(c.context_bits, candidates[i].context_bits);
    EXPECT_EQ(c.kind, candidates[i].kind);
    EXPECT_EQ(c.target, candidates[i].target);
    EXPECT_EQ(c.pair_a, candidates[i].pair_a);
    EXPECT_EQ(c.pair_b, candidates[i].pair_b);
    EXPECT_EQ(c.opposite, candidates[i].opposite);
  }
  HeldFrame result_pristine(result_frame);
  ASSERT_TRUE(result_pristine.ok());
  auto outcomes_back = shard::DecodeResultBatch(*result_pristine);
  ASSERT_TRUE(outcomes_back.ok()) << outcomes_back.status().ToString();
  ASSERT_EQ(outcomes_back->outcomes.size(), outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const WireOutcome& o = outcomes_back->outcomes[i];
    EXPECT_EQ(o.slot, outcomes[i].slot);
    EXPECT_EQ(o.kind, outcomes[i].kind);
    EXPECT_EQ(o.valid, outcomes[i].valid);
    EXPECT_EQ(o.early_exit, outcomes[i].early_exit);
    EXPECT_EQ(o.removal_size, outcomes[i].removal_size);
    EXPECT_EQ(o.approx_factor, outcomes[i].approx_factor);
    EXPECT_EQ(o.interestingness, outcomes[i].interestingness);
    EXPECT_EQ(o.seconds, outcomes[i].seconds);
    EXPECT_EQ(o.removal_rows, outcomes[i].removal_rows);
  }

  // Every 1-byte mutation is a typed rejection or changes only field
  // values: a damaged count or removal-row length misaligns the
  // fixed-width body, which then no longer ends where the payload does.
  // Never OOB, never a crash.
  for (size_t i = 0;
       i < candidate_frame.size() - shard::kFrameHeaderBytes; ++i) {
    HeldFrame bad(CorruptPayloadResealed(candidate_frame, i));
    ASSERT_TRUE(bad.ok());
    auto decoded = shard::DecodeCandidateBatch(*bad);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
      continue;
    }
    EXPECT_EQ(decoded->size(), candidates.size()) << "byte " << i;
  }
  for (size_t i = 0; i < result_frame.size() - shard::kFrameHeaderBytes;
       ++i) {
    HeldFrame bad(CorruptPayloadResealed(result_frame, i));
    ASSERT_TRUE(bad.ok());
    auto decoded = shard::DecodeResultBatch(*bad);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
      continue;
    }
    ASSERT_EQ(decoded->outcomes.size(), outcomes.size()) << "byte " << i;
    for (size_t k = 0; k < outcomes.size(); ++k) {
      EXPECT_EQ(decoded->outcomes[k].removal_rows.size(),
                outcomes[k].removal_rows.size())
          << "byte " << i;
    }
  }
}

/// Sets payload byte `i` to an exact value and re-seals the checksum —
/// the targeted sibling of CorruptPayloadResealed's random flip.
std::vector<uint8_t> SetPayloadByteResealed(const std::vector<uint8_t>& frame,
                                            size_t i, uint8_t value) {
  std::vector<uint8_t> bad = frame;
  bad[shard::kFrameHeaderBytes + i] = value;
  const uint64_t checksum = shard::WireChecksum(
      bad.data() + shard::kFrameHeaderBytes,
      bad.size() - shard::kFrameHeaderBytes);
  for (int b = 0; b < 8; ++b) {
    bad[16 + static_cast<size_t>(b)] =
        static_cast<uint8_t>((checksum >> (8 * b)) & 0xff);
  }
  return bad;
}

TEST(ShardCodecTest, UnknownKindIdsAreTypedInCandidateAndResultBatches) {
  // Candidate body: u64 count, then 30-byte records with the kind byte 16
  // bytes in (after slot + context). Every id outside the four known
  // kinds must be a typed rejection naming the id.
  Rng rng(808);
  const std::vector<uint8_t> candidates =
      shard::EncodeCandidateBatch(RandomCandidates(&rng, 3));
  const size_t candidate_kind_at = 8 + 16;
  for (uint8_t id : {uint8_t{4}, uint8_t{17}, uint8_t{255}}) {
    HeldFrame bad(SetPayloadByteResealed(candidates, candidate_kind_at, id));
    ASSERT_TRUE(bad.ok());
    auto r = shard::DecodeCandidateBatch(*bad);
    ASSERT_FALSE(r.ok()) << "kind id " << static_cast<int>(id) << " parsed";
    EXPECT_NE(r.status().message().find("unknown dependency kind id " +
                                        std::to_string(id)),
              std::string::npos)
        << r.status().ToString();
  }

  // Outcome body: u8 flags, u64 count, then slot + the kind byte.
  const std::vector<uint8_t> outcomes = shard::EncodeResultBatch(
      RandomOutcomes(&rng, 2, false), /*final_chunk=*/true);
  const size_t outcome_kind_at = 1 + 8 + 8;
  for (uint8_t id : {uint8_t{4}, uint8_t{9}}) {
    HeldFrame bad(SetPayloadByteResealed(outcomes, outcome_kind_at, id));
    ASSERT_TRUE(bad.ok());
    auto r = shard::DecodeResultBatch(*bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unknown dependency kind id"),
              std::string::npos)
        << r.status().ToString();
  }
}

TEST(ShardCodecTest, RetiredCodecIdsAreTypedErrors) {
  // Each frame below is well formed under a codec an earlier wire version
  // defined, sealed at the current version: the decoders must reject the
  // retired id or flag bit by name, not misparse the body.
  auto expect_rejected = [](const Status& status, const std::string& want) {
    ASSERT_FALSE(status.ok()) << "decoded despite " << want;
    EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
    EXPECT_NE(status.message().find(want), std::string::npos)
        << status.ToString();
  };

  // Partition codec 2 (class labels): classes {0, 2} and {1, 3} as a
  // coverage bitmap over rows 0..3 and one label bit per covered row.
  {
    shard::WireWriter w;
    w.PutU64(AttributeSet::Of({0}).bits());
    w.PutU8(2);
    w.PutVarint(2);  // classes
    w.PutVarint(4);  // covered rows
    w.PutVarint(4);  // bitmap bits
    w.PutU8(0x0f);   // rows 0..3 covered
    w.PutU8(0x0a);   // labels 0, 1, 0, 1
    HeldFrame frame(w.SealFrame(FrameType::kPartitionBlock));
    ASSERT_TRUE(frame.ok());
    expect_rejected(shard::DecodePartitionBlock(*frame, 4).status(),
                    "unknown partition codec 2");
  }

  // Result flag bit 0x02 (compressed body): one outcome as slot delta,
  // packed flags, removal size, three raw doubles, no removal rows.
  {
    shard::WireWriter w;
    w.PutU8(shard::kResultFlagFinalChunk | 0x02);
    w.PutVarint(1);       // count
    w.PutVarintI64(0);    // slot delta
    w.PutU8(0x01);        // valid, kOc
    w.PutVarintI64(0);    // removal size
    w.PutDouble(0.0);     // approx factor
    w.PutDouble(1.0);     // interestingness
    w.PutDouble(0.0);     // seconds
    w.PutVarint(0);       // removal rows
    HeldFrame frame(w.SealFrame(FrameType::kResultBatch));
    ASSERT_TRUE(frame.ok());
    expect_rejected(shard::DecodeResultBatch(*frame).status(),
                    "unknown result batch flags");
  }

  // Rank codec 3 (varints): a two-row, one-column table.
  {
    shard::WireWriter w;
    w.PutI64(2);  // total rows
    w.PutU32(1);  // columns
    w.PutI64(0);  // row offset
    w.PutI64(2);  // slice rows
    w.PutString("c0");
    w.PutI32(2);  // cardinality
    w.PutU8(3);
    w.PutU64(2);
    w.PutVarint(0);
    w.PutVarint(1);
    HeldFrame frame(w.SealFrame(FrameType::kTableBlock));
    ASSERT_TRUE(frame.ok());
    expect_rejected(shard::DecodeTableBlock(*frame).status(),
                    "unknown rank codec 3");
  }

  // A version-7 frame fails the version check before any payload decode.
  std::vector<uint8_t> v7 = shard::EncodeCandidateBatch({});
  v7[4] = 7;
  v7[5] = 0;
  expect_rejected(DecodeFrame(v7).status(), "unsupported wire version 7");
}

TEST(ShardCodecTest, ConfigBlockRejectsBadKindSetsAndThresholds) {
  shard::WireRunnerConfig config;
  config.kinds = DependencyKindSet::All().bits();
  config.afd_error = 0.25;

  // The well-formed block round-trips its wire-v4 fields.
  {
    HeldFrame good(shard::EncodeConfigBlock(config));
    ASSERT_TRUE(good.ok());
    auto back = shard::DecodeConfigBlock(*good);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->kinds, DependencyKindSet::All().bits());
    EXPECT_EQ(back->afd_error, 0.25);
  }

  auto expect_rejected = [](const shard::WireRunnerConfig& bad_config,
                            const std::string& want) {
    HeldFrame frame(shard::EncodeConfigBlock(bad_config));
    ASSERT_TRUE(frame.ok());
    auto r = shard::DecodeConfigBlock(*frame);
    ASSERT_FALSE(r.ok()) << "decoded despite " << want;
    EXPECT_NE(r.status().message().find(want), std::string::npos)
        << r.status().ToString();
  };

  // An empty kind set asks the runner to validate nothing — a protocol
  // error, not a degenerate no-op.
  {
    shard::WireRunnerConfig bad = config;
    bad.kinds = 0;
    expect_rejected(bad, "config dependency-kind set invalid (bits 0)");
  }
  // Bits above the known kinds come from a newer (or corrupted) peer.
  {
    shard::WireRunnerConfig bad = config;
    bad.kinds = DependencyKindSet::All().bits() | 0x10;
    expect_rejected(bad, "config dependency-kind set invalid");
  }
  // The AFD threshold is a g1 fraction; anything outside [0, 1] — NaN
  // included — is meaningless and must not reach a validator.
  for (double e : {1.5, -0.25, std::numeric_limits<double>::quiet_NaN()}) {
    shard::WireRunnerConfig bad = config;
    bad.afd_error = e;
    expect_rejected(bad, "config afd_error outside [0, 1]");
  }
}

// ------------------------------------------------------ table codecs --

TEST(ShardCodecTest, TableRankCodecTiersRoundTripExactly) {
  // Cardinalities straddling the byte/short tier boundaries; a
  // single-row table pins the smallest shape.
  for (int64_t cardinality : {1, 2, 255, 256, 257, 65535, 65536}) {
    const int64_t rows = cardinality > 1000 ? cardinality + 10 : 400;
    EncodedTable t = testing_util::RandomEncodedTable(
        rows, 2, cardinality, static_cast<uint64_t>(cardinality) * 3 + 1);
    HeldFrame compressed(shard::EncodeTableBlock(t));
    HeldFrame raw(shard::EncodeTableBlock(t, /*compress=*/false));
    ASSERT_TRUE(compressed.ok());
    ASSERT_TRUE(raw.ok());
    EXPECT_LE(compressed.bytes.size(), raw.bytes.size());
    for (const HeldFrame* frame : {&compressed, &raw}) {
      Result<EncodedTable> back = shard::DecodeTableBlock(**frame);
      ASSERT_TRUE(back.ok()) << back.status().ToString();
      ASSERT_EQ(back->num_columns(), t.num_columns());
      for (int c = 0; c < t.num_columns(); ++c) {
        EXPECT_EQ(back->ranks(c), t.ranks(c)) << "cardinality "
                                              << cardinality;
        EXPECT_EQ(back->column(c).cardinality, t.column(c).cardinality);
      }
    }
  }

  // One value past the short tier ships as raw i32 even with compression
  // on: the frame is exactly the raw frame, and it round-trips.
  std::vector<int64_t> wide;
  for (int64_t v = 0; v < 65537; ++v) wide.push_back((v * 7919) % 65537);
  EncodedTable t = EncodedTableFromInts({"c0"}, {wide});
  ASSERT_EQ(t.column(0).cardinality, 65537);
  const std::vector<uint8_t> compressed = shard::EncodeTableBlock(t);
  EXPECT_EQ(compressed, shard::EncodeTableBlock(t, /*compress=*/false));
  // Payload: 28 bytes of row framing, then the name (u64 length + "c0")
  // and the i32 cardinality ahead of the codec byte.
  EXPECT_EQ(compressed[shard::kFrameHeaderBytes + 28 + 8 + 2 + 4],
            shard::kRankCodecRaw);
  HeldFrame frame(compressed);
  ASSERT_TRUE(frame.ok());
  Result<EncodedTable> back = shard::DecodeTableBlock(*frame);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->ranks(0), t.ranks(0));

  EncodedTable single = testing_util::RandomEncodedTable(1, 3, 1, 9);
  HeldFrame single_frame(shard::EncodeTableBlock(single));
  ASSERT_TRUE(single_frame.ok());
  Result<EncodedTable> single_back = shard::DecodeTableBlock(*single_frame);
  ASSERT_TRUE(single_back.ok());
  EXPECT_EQ(single_back->num_rows(), 1);
}

TEST(ShardCodecTest, CorruptedCompressedTableIsTypedAtEveryByte) {
  EncodedTable t = testing_util::RandomEncodedTable(150, 3, 5, 77);
  const std::vector<uint8_t> frame = shard::EncodeTableBlock(t);
  for (size_t i = 0; i < frame.size() - shard::kFrameHeaderBytes; ++i) {
    HeldFrame bad(CorruptPayloadResealed(frame, i));
    ASSERT_TRUE(bad.ok());
    // Ranks are validated against cardinality and num_rows, so most
    // mutations are typed rejections; the rest only moved rank values
    // within their declared domain. Never OOB, never a crash.
    shard::DecodeTableBlock(*bad).status();
  }
}

// -------------------------------------------------- batch envelopes --

TEST(ShardCodecTest, BatchEnvelopeRoundTripsInnerFramesByteExactly) {
  Rng rng(31);
  std::vector<std::vector<uint8_t>> inner;
  inner.push_back(shard::EncodeCandidateBatch(RandomCandidates(&rng, 5)));
  inner.push_back(shard::EncodeShutdown());
  inner.push_back(shard::EncodeResultBatch(RandomOutcomes(&rng, 3, false)));
  HeldFrame envelope(shard::EncodeBatchEnvelope(inner));
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ((*envelope).type, FrameType::kBatch);
  auto unpacked = shard::UnpackBatchEnvelope(*envelope);
  ASSERT_TRUE(unpacked.ok()) << unpacked.status().ToString();
  ASSERT_EQ(unpacked->size(), inner.size());
  for (size_t i = 0; i < inner.size(); ++i) {
    EXPECT_EQ((*unpacked)[i], inner[i]) << "inner frame " << i;
    EXPECT_TRUE(DecodeFrame((*unpacked)[i]).ok());
  }
}

TEST(ShardCodecTest, MalformedEnvelopesAreTypedErrors) {
  Rng rng(32);
  const std::vector<uint8_t> ok_inner =
      shard::EncodeCandidateBatch(RandomCandidates(&rng, 2));

  // An empty envelope is unrepresentable through BatchingFrameSender
  // (zero frames -> no send) and rejected on decode.
  shard::WireWriter empty;
  empty.PutU32(0);
  HeldFrame zero(empty.SealFrame(FrameType::kBatch));
  ASSERT_TRUE(zero.ok());
  EXPECT_FALSE(shard::UnpackBatchEnvelope(*zero).ok());

  // Nested envelopes are rejected (one level of wrapping only).
  HeldFrame nested(shard::EncodeBatchEnvelope(
      {shard::EncodeBatchEnvelope({ok_inner})}));
  ASSERT_TRUE(nested.ok());
  EXPECT_FALSE(shard::UnpackBatchEnvelope(*nested).ok());

  // A hostile count with no bytes behind it must be rejected from the
  // declared sizes, not by attempting the allocation.
  shard::WireWriter hostile;
  hostile.PutU32(0xffffffff);
  HeldFrame bomb(hostile.SealFrame(FrameType::kBatch));
  ASSERT_TRUE(bomb.ok());
  EXPECT_FALSE(shard::UnpackBatchEnvelope(*bomb).ok());

  // Truncated segment: a declared inner length running past the end.
  shard::WireWriter torn;
  torn.PutU32(1);
  torn.PutU64(ok_inner.size() + 50);
  torn.PutBytes(ok_inner.data(), ok_inner.size());
  HeldFrame truncated(torn.SealFrame(FrameType::kBatch));
  ASSERT_TRUE(truncated.ok());
  EXPECT_FALSE(shard::UnpackBatchEnvelope(*truncated).ok());

  // An inner segment shorter than a frame header.
  shard::WireWriter runt;
  runt.PutU32(1);
  runt.PutU64(4);
  runt.PutU32(0xdeadbeef);
  HeldFrame tiny(runt.SealFrame(FrameType::kBatch));
  ASSERT_TRUE(tiny.ok());
  EXPECT_FALSE(shard::UnpackBatchEnvelope(*tiny).ok());

  // Per-byte payload corruption: typed, never OOB.
  const std::vector<uint8_t> envelope =
      shard::EncodeBatchEnvelope({ok_inner, ok_inner});
  for (size_t i = 0; i < envelope.size() - shard::kFrameHeaderBytes; ++i) {
    HeldFrame bad(CorruptPayloadResealed(envelope, i));
    ASSERT_TRUE(bad.ok());
    auto unpacked = shard::UnpackBatchEnvelope(*bad);
    if (!unpacked.ok()) continue;
    // Structure survived; the inner checksums then catch value damage.
    for (const std::vector<uint8_t>& f : *unpacked) {
      shard::DecodeFrame(f).status();
    }
  }
}

// ------------------------------------- batching sender + receiver --

/// A socket link with a receive bound, so a broken test fails instead of
/// hanging.
testing_util::ChannelPair TestLink() {
  shard::ChannelOptions copts;
  copts.receive_timeout_seconds = 10.0;
  return testing_util::SocketChannelPair(copts);
}

TEST(ShardCodecTest, BatchingSenderCoalescesAndReceiverUnwraps) {
  Rng rng(71);
  testing_util::ChannelPair link = TestLink();
  BatchingFrameSender sender(link.near.get());
  std::vector<std::vector<uint8_t>> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(shard::EncodeCandidateBatch(
        RandomCandidates(&rng, 1 + static_cast<size_t>(i))));
    ASSERT_TRUE(sender.Add(sent.back()).ok());
  }
  EXPECT_EQ(sender.pending_frames(), 5u);  // small frames: no auto-flush
  ASSERT_TRUE(sender.Flush().ok());
  EXPECT_EQ(sender.pending_frames(), 0u);

  // Exactly ONE physical frame crossed the channel...
  Result<std::vector<uint8_t>> physical = link.far->Receive();
  ASSERT_TRUE(physical.ok());
  HeldFrame envelope(*physical);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ((*envelope).type, FrameType::kBatch);

  // ...which the logical receiver yields as the original sequence.
  ASSERT_TRUE(link.near->Send(std::move(*physical)).ok());
  LogicalFrameReceiver receiver(link.far.get());
  for (size_t i = 0; i < sent.size(); ++i) {
    Result<std::vector<uint8_t>> logical = receiver.Receive();
    ASSERT_TRUE(logical.ok()) << i;
    EXPECT_EQ(*logical, sent[i]) << "logical frame " << i;
  }
}

TEST(ShardCodecTest, BatchingSenderSingleFrameGoesUnwrapped) {
  testing_util::ChannelPair link = TestLink();
  BatchingFrameSender sender(link.near.get());
  const std::vector<uint8_t> frame = shard::EncodeShutdown();
  ASSERT_TRUE(sender.Add(frame).ok());
  ASSERT_TRUE(sender.Flush().ok());
  ASSERT_TRUE(sender.Flush().ok());  // empty flush is a no-op
  Result<std::vector<uint8_t>> got = link.far->Receive();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, frame);  // no envelope around a lone frame
}

TEST(ShardCodecTest, BatchingSenderAutoFlushesAtThreshold) {
  testing_util::ChannelPair link = TestLink();
  BatchingFrameSender sender(link.near.get(), /*flush_threshold_bytes=*/256);
  std::vector<uint8_t> big(300, 0x7f);
  shard::WireWriter writer;
  writer.PutBytes(big.data(), big.size());
  ASSERT_TRUE(sender.Add(writer.SealFrame(FrameType::kCandidateBatch)).ok());
  // Crossing the threshold flushed eagerly — nothing left pending.
  EXPECT_EQ(sender.pending_frames(), 0u);
  EXPECT_TRUE(link.far->Receive().ok());
}

TEST(ShardCodecTest, FlakyChannelFaultsOverBatchedFramesAreTyped) {
  Rng rng(88);
  std::vector<std::vector<uint8_t>> inner;
  for (int i = 0; i < 4; ++i) {
    inner.push_back(shard::EncodeResultBatch(RandomOutcomes(&rng, 10, true)));
  }

  for (FlakyChannel::Fault fault :
       {FlakyChannel::Fault::kCorruptByte, FlakyChannel::Fault::kShortRead}) {
    testing_util::ChannelPair link = TestLink();
    FlakyChannel::Plan plan;
    plan.fault = fault;
    plan.trigger_after = 0;
    FlakyChannel receiving_end(std::move(link.far), plan);
    BatchingFrameSender sender(link.near.get());
    for (const std::vector<uint8_t>& f : inner) {
      ASSERT_TRUE(sender.Add(f).ok());
    }
    ASSERT_TRUE(sender.Flush().ok());
    // The mangled envelope must surface as a typed error from the
    // logical receiver (its checksum validation precedes unwrapping),
    // never as a hang or a half-unwrapped sequence.
    LogicalFrameReceiver receiver(&receiving_end);
    Result<std::vector<uint8_t>> got = receiver.Receive();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kParseError)
        << got.status().ToString();
  }
}

// ----------------------------------------------- varint primitives --

TEST(ShardCodecTest, VarintRoundTripsAndRejectsOverlong) {
  shard::WireWriter writer;
  const uint64_t values[] = {0,    1,      127,        128,
                             300,  16383,  16384,      (1ull << 32) - 1,
                             1ull << 32,   UINT64_MAX, UINT64_MAX - 1};
  for (uint64_t v : values) writer.PutVarint(v);
  const int64_t signed_values[] = {0, -1, 1, -64, 64, INT64_MIN, INT64_MAX};
  for (int64_t v : signed_values) writer.PutVarintI64(v);

  shard::WireReader reader(writer.payload().data(), writer.payload().size());
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(reader.GetVarint(&got).ok());
    EXPECT_EQ(got, v);
  }
  for (int64_t v : signed_values) {
    int64_t got = 0;
    ASSERT_TRUE(reader.GetVarintI64(&got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(reader.AtEnd());

  // Truncated: continuation bit set on the final byte.
  const uint8_t truncated[] = {0x80};
  shard::WireReader r1(truncated, 1);
  uint64_t out = 0;
  EXPECT_FALSE(r1.GetVarint(&out).ok());

  // Overlong: 10 continuation bytes and an 11th that would be needed.
  std::vector<uint8_t> overlong(11, 0x80);
  overlong.back() = 0x01;
  shard::WireReader r2(overlong.data(), overlong.size());
  EXPECT_FALSE(r2.GetVarint(&out).ok());

  // 65-bit value: the 10th byte carries more than the one legal bit.
  std::vector<uint8_t> wide(9, 0xff);
  wide.push_back(0x02);
  shard::WireReader r3(wide.data(), wide.size());
  EXPECT_FALSE(r3.GetVarint(&out).ok());
}

}  // namespace
}  // namespace aod
