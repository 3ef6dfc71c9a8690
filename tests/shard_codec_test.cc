// The version-2 payload codecs: delta/varint partition and batch
// bodies, dictionary-packed table ranks, kBatch envelopes and the
// batching sender/receiver pair.
//
// The contract under test has three legs. (1) Losslessness: for every
// message and every codec choice, compressed and raw frames decode to
// identical objects — compression may never change what a shard
// computes. (2) Economy: a compressed frame is never larger than its
// raw sibling (the encoder's bail-out threshold). (3) Hostility: a
// corrupted, truncated or structurally invalid compressed payload is a
// typed ParseError — never an out-of-bounds read (the suite runs under
// ASan/UBSan in CI), a crash, or a silently wrong decode.
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
  // push into the label codec's regime.
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

TEST(ShardCodecTest, MidCardinalityPartitionUsesLabelCodec) {
  // Cardinality ~1000 means in-class gaps average ~1000 — two varint
  // bytes per row for the delta codec — while a bit-packed class label
  // needs only 10 bits plus the coverage bitmap. The encoder must pick
  // the label body and still beat raw by well over 2x.
  EncodedTable t = testing_util::RandomEncodedTable(20000, 1, 1000, 7);
  StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
  const std::vector<uint8_t> compressed =
      shard::EncodePartitionBlock(AttributeSet::Of({0}), p);
  const std::vector<uint8_t> raw = shard::EncodePartitionBlock(
      AttributeSet::Of({0}), p, /*compress=*/false);
  // flags byte: frame header (24) + attribute set (8), then the codec.
  ASSERT_GT(compressed.size(), 33u);
  EXPECT_EQ(compressed[32], shard::kCodecClassLabel);
  EXPECT_LT(compressed.size() * 2, raw.size())
      << "expected > 2x via bit-packed labels, got " << raw.size() << " -> "
      << compressed.size();
  ExpectPartitionCodecEquivalence(p, 20000);
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

TEST(ShardCodecTest, CorruptedLabelPartitionIsTypedAtEveryByte) {
  // Cardinality 100 over 400 rows selects the class-label codec, so this
  // sweep drives the bitmap/label decoder with every 1-byte mutation.
  EncodedTable t = testing_util::RandomEncodedTable(400, 1, 100, 23);
  StrippedPartition p = StrippedPartition::FromColumn(t.column(0));
  const std::vector<uint8_t> frame =
      shard::EncodePartitionBlock(AttributeSet::Of({0}), p);
  ASSERT_EQ(frame[32], shard::kCodecClassLabel);
  HeldFrame pristine(frame);
  ASSERT_TRUE(pristine.ok());
  ASSERT_TRUE(shard::DecodePartitionBlock(*pristine, 400).ok());
  const size_t payload = frame.size() - shard::kFrameHeaderBytes;
  for (size_t i = 0; i < payload; ++i) {
    HeldFrame bad(CorruptPayloadResealed(frame, i));
    ASSERT_TRUE(bad.ok()) << "reseal failed at byte " << i;
    auto decoded = shard::DecodePartitionBlock(*bad, 400);
    if (!decoded.ok()) continue;
    EXPECT_TRUE(decoded->second.IsCanonical()) << "byte " << i;
  }
}

// ---------------------------------------- candidate + result codecs --

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

TEST(ShardCodecTest, CandidateBatchCodecsAreEquivalent) {
  Rng rng(99);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{300}}) {
    const std::vector<WireCandidate> batch = RandomCandidates(&rng, n);
    HeldFrame compressed(shard::EncodeCandidateBatch(batch));
    HeldFrame raw(shard::EncodeCandidateBatch(batch, /*compress=*/false));
    ASSERT_TRUE(compressed.ok());
    ASSERT_TRUE(raw.ok());
    EXPECT_LE(compressed.bytes.size(), raw.bytes.size());
    auto back_c = shard::DecodeCandidateBatch(*compressed);
    auto back_r = shard::DecodeCandidateBatch(*raw);
    ASSERT_TRUE(back_c.ok()) << back_c.status().ToString();
    ASSERT_TRUE(back_r.ok());
    ASSERT_EQ(back_c->size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ((*back_c)[i].slot, batch[i].slot);
      EXPECT_EQ((*back_c)[i].context_bits, batch[i].context_bits);
      EXPECT_EQ((*back_c)[i].kind, batch[i].kind);
      EXPECT_EQ((*back_c)[i].target, batch[i].target);
      EXPECT_EQ((*back_c)[i].pair_a, batch[i].pair_a);
      EXPECT_EQ((*back_c)[i].pair_b, batch[i].pair_b);
      EXPECT_EQ((*back_c)[i].opposite, batch[i].opposite);
      EXPECT_EQ((*back_r)[i].slot, batch[i].slot);
    }
  }
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

TEST(ShardCodecTest, ResultBatchCodecsAreBitExactEquivalent) {
  Rng rng(1234);
  for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{200}}) {
    for (bool rows : {false, true}) {
      const std::vector<WireOutcome> outcomes = RandomOutcomes(&rng, n, rows);
      HeldFrame compressed(
          shard::EncodeResultBatch(outcomes, /*final_chunk=*/false));
      HeldFrame raw(shard::EncodeResultBatch(outcomes, /*final_chunk=*/false,
                                             /*compress=*/false));
      ASSERT_TRUE(compressed.ok());
      ASSERT_TRUE(raw.ok());
      EXPECT_LE(compressed.bytes.size(), raw.bytes.size());
      auto back_c = shard::DecodeResultBatch(*compressed);
      auto back_r = shard::DecodeResultBatch(*raw);
      ASSERT_TRUE(back_c.ok()) << back_c.status().ToString();
      ASSERT_TRUE(back_r.ok());
      EXPECT_FALSE(back_c->final_chunk);
      EXPECT_FALSE(back_r->final_chunk);
      ASSERT_EQ(back_c->outcomes.size(), n);
      for (size_t i = 0; i < n; ++i) {
        const WireOutcome& c = back_c->outcomes[i];
        const WireOutcome& r = back_r->outcomes[i];
        EXPECT_EQ(c.slot, outcomes[i].slot);
        EXPECT_EQ(c.kind, outcomes[i].kind);
        EXPECT_EQ(c.valid, outcomes[i].valid);
        EXPECT_EQ(c.early_exit, outcomes[i].early_exit);
        EXPECT_EQ(r.kind, outcomes[i].kind);
        EXPECT_EQ(c.removal_size, outcomes[i].removal_size);
        // Doubles must survive bit-exactly through *both* codecs.
        EXPECT_EQ(c.approx_factor, outcomes[i].approx_factor);
        EXPECT_EQ(c.interestingness, outcomes[i].interestingness);
        EXPECT_EQ(c.seconds, outcomes[i].seconds);
        EXPECT_EQ(c.removal_rows, outcomes[i].removal_rows);
        EXPECT_EQ(r.approx_factor, outcomes[i].approx_factor);
        EXPECT_EQ(r.removal_rows, outcomes[i].removal_rows);
      }
    }
  }
}

TEST(ShardCodecTest, CorruptedCompressedBatchesAreTypedAtEveryByte) {
  Rng rng(555);
  const std::vector<uint8_t> candidate_frame =
      shard::EncodeCandidateBatch(RandomCandidates(&rng, 40));
  const std::vector<uint8_t> result_frame =
      shard::EncodeResultBatch(RandomOutcomes(&rng, 30, true));
  for (size_t i = 0;
       i < candidate_frame.size() - shard::kFrameHeaderBytes; ++i) {
    HeldFrame bad(CorruptPayloadResealed(candidate_frame, i));
    ASSERT_TRUE(bad.ok());
    // Either a typed rejection or a structurally plausible batch — the
    // point is no OOB and no crash; accepted mutations are the ones
    // that only changed candidate field values.
    shard::DecodeCandidateBatch(*bad).status();
  }
  for (size_t i = 0; i < result_frame.size() - shard::kFrameHeaderBytes;
       ++i) {
    HeldFrame bad(CorruptPayloadResealed(result_frame, i));
    ASSERT_TRUE(bad.ok());
    shard::DecodeResultBatch(*bad).status();
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

TEST(ShardCodecTest, UnknownKindIdsAreTypedInBothBatchCodecs) {
  // Raw candidate body: u8 flags, u64 count, then 30-byte records with
  // the kind byte 16 bytes in (after slot + context). Every id outside
  // the four known kinds must be a typed rejection naming the id.
  Rng rng(808);
  const std::vector<uint8_t> raw_candidates = shard::EncodeCandidateBatch(
      RandomCandidates(&rng, 3), /*compress=*/false);
  const size_t candidate_kind_at = 1 + 8 + 16;
  for (uint8_t id : {uint8_t{4}, uint8_t{17}, uint8_t{255}}) {
    HeldFrame bad(SetPayloadByteResealed(raw_candidates, candidate_kind_at,
                                         id));
    ASSERT_TRUE(bad.ok());
    auto r = shard::DecodeCandidateBatch(*bad);
    ASSERT_FALSE(r.ok()) << "kind id " << static_cast<int>(id) << " parsed";
    EXPECT_NE(r.status().message().find("unknown dependency kind id " +
                                        std::to_string(id)),
              std::string::npos)
        << r.status().ToString();
  }

  // Raw outcome body: u8 flags, u64 count, then slot + the kind byte.
  const std::vector<uint8_t> raw_outcomes = shard::EncodeResultBatch(
      RandomOutcomes(&rng, 2, false), /*final_chunk=*/true,
      /*compress=*/false);
  const size_t outcome_kind_at = 1 + 8 + 8;
  for (uint8_t id : {uint8_t{4}, uint8_t{9}}) {
    HeldFrame bad(SetPayloadByteResealed(raw_outcomes, outcome_kind_at, id));
    ASSERT_TRUE(bad.ok());
    auto r = shard::DecodeResultBatch(*bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unknown dependency kind id"),
              std::string::npos)
        << r.status().ToString();
  }

  // The compressed codecs pack the kind into two bits, so an unknown id
  // is structurally unrepresentable there — what CAN go wrong is a set
  // bit above the defined ones, and that too must be a typed error.
  WireCandidate c;
  c.slot = 0;
  c.context_bits = 1;
  c.kind = DependencyKind::kOc;
  c.target = -1;
  c.pair_a = 0;
  c.pair_b = 2;
  const std::vector<uint8_t> packed_candidates =
      shard::EncodeCandidateBatch({c});
  ASSERT_EQ(packed_candidates[shard::kFrameHeaderBytes],
            shard::kCandidateFlagCompressed);
  // Payload: flags, count varint, slot-delta varint, context varint,
  // then the kind|polarity byte at offset 4.
  {
    HeldFrame bad(SetPayloadByteResealed(packed_candidates, 4, 0x08));
    ASSERT_TRUE(bad.ok());
    auto r = shard::DecodeCandidateBatch(*bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unknown candidate flag bits"),
              std::string::npos)
        << r.status().ToString();
  }

  WireOutcome o;
  o.slot = 0;
  o.kind = DependencyKind::kAfd;
  o.valid = true;
  o.removal_size = 2;
  o.approx_factor = 0.125;
  o.interestingness = 0.5;
  const std::vector<uint8_t> packed_outcomes =
      shard::EncodeResultBatch({o}, /*final_chunk=*/false);
  ASSERT_EQ(packed_outcomes[shard::kFrameHeaderBytes],
            shard::kResultFlagCompressed);
  // Payload: flags, count varint, slot-delta varint, then the packed
  // valid|early_exit|kind byte at offset 3.
  {
    HeldFrame bad(SetPayloadByteResealed(packed_outcomes, 3, 0x10));
    ASSERT_TRUE(bad.ok());
    auto r = shard::DecodeResultBatch(*bad);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("unknown outcome flag bits"),
              std::string::npos)
        << r.status().ToString();
  }
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
  // Cardinalities straddling the byte/short/varint tier boundaries; a
  // single-row table pins the smallest shape.
  for (int64_t cardinality : {1, 2, 255, 256, 257, 65535, 65536, 70000}) {
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
  EncodedTable single = testing_util::RandomEncodedTable(1, 3, 1, 9);
  HeldFrame frame(shard::EncodeTableBlock(single));
  ASSERT_TRUE(frame.ok());
  Result<EncodedTable> back = shard::DecodeTableBlock(*frame);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_rows(), 1);
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
