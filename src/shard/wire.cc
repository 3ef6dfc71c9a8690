#include "shard/wire.h"

#include <cstring>
#include <limits>

#include "common/endian.h"
#include "common/macros.h"

namespace aod {
namespace shard {

using endian::LoadU16;
using endian::LoadU32;
using endian::LoadU64;
using endian::StoreU16;
using endian::StoreU32;
using endian::StoreU64;

uint64_t WireChecksum(const uint8_t* data, size_t size) {
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

void WireWriter::PutU16(uint16_t v) { endian::AppendU16(&payload_, v); }

void WireWriter::PutU32(uint32_t v) { endian::AppendU32(&payload_, v); }

void WireWriter::PutU64(uint64_t v) { endian::AppendU64(&payload_, v); }

void WireWriter::PutDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    payload_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  payload_.push_back(static_cast<uint8_t>(v));
}

void WireWriter::PutVarintI64(int64_t v) {
  PutVarint((static_cast<uint64_t>(v) << 1) ^
            static_cast<uint64_t>(v >> 63));
}

void WireWriter::PutI32Array(const std::vector<int32_t>& values) {
  PutU64(values.size());
  for (int32_t v : values) PutI32(v);
}

void WireWriter::PutString(const std::string& s) {
  PutU64(s.size());
  PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

void WireWriter::PutBytes(const uint8_t* data, size_t size) {
  payload_.insert(payload_.end(), data, data + size);
}

std::vector<uint8_t> WireWriter::SealFrame(FrameType type) {
  std::vector<uint8_t> frame(kFrameHeaderBytes + payload_.size());
  StoreU32(frame.data(), kWireMagic);
  StoreU16(frame.data() + 4, kWireVersion);
  StoreU16(frame.data() + 6, static_cast<uint16_t>(type));
  StoreU64(frame.data() + 8, payload_.size());
  StoreU64(frame.data() + 16, WireChecksum(payload_.data(), payload_.size()));
  if (!payload_.empty()) {
    // memcpy's pointer arguments must be non-null even for size 0, and
    // an empty vector's data() may be null (the kShutdown frame).
    std::memcpy(frame.data() + kFrameHeaderBytes, payload_.data(),
                payload_.size());
  }
  payload_.clear();
  return frame;
}

Status WireReader::GetU8(uint8_t* v) {
  if (remaining() < 1) return Status::ParseError("wire payload truncated");
  *v = data_[pos_++];
  return Status::OK();
}

Status WireReader::GetU16(uint16_t* v) {
  if (remaining() < 2) return Status::ParseError("wire payload truncated");
  *v = LoadU16(data_ + pos_);
  pos_ += 2;
  return Status::OK();
}

Status WireReader::GetU32(uint32_t* v) {
  if (remaining() < 4) return Status::ParseError("wire payload truncated");
  *v = LoadU32(data_ + pos_);
  pos_ += 4;
  return Status::OK();
}

Status WireReader::GetU64(uint64_t* v) {
  if (remaining() < 8) return Status::ParseError("wire payload truncated");
  *v = LoadU64(data_ + pos_);
  pos_ += 8;
  return Status::OK();
}

Status WireReader::GetI32(int32_t* v) {
  uint32_t u = 0;
  AOD_RETURN_NOT_OK(GetU32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status WireReader::GetI64(int64_t* v) {
  uint64_t u = 0;
  AOD_RETURN_NOT_OK(GetU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status WireReader::GetDouble(double* v) {
  uint64_t bits = 0;
  AOD_RETURN_NOT_OK(GetU64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status WireReader::GetVarint(uint64_t* v) {
  uint64_t out = 0;
  for (int i = 0; i < 10; ++i) {
    if (remaining() < 1) return Status::ParseError("wire varint truncated");
    const uint8_t b = data_[pos_++];
    // The 10th byte holds bits 63..69 of which only bit 63 exists.
    if (i == 9 && b > 1) {
      return Status::ParseError("wire varint overflows 64 bits");
    }
    out |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      *v = out;
      return Status::OK();
    }
  }
  return Status::ParseError("wire varint longer than 10 bytes");
}

Status WireReader::GetVarintI64(int64_t* v) {
  uint64_t u = 0;
  AOD_RETURN_NOT_OK(GetVarint(&u));
  *v = static_cast<int64_t>(u >> 1) ^ -static_cast<int64_t>(u & 1);
  return Status::OK();
}

Status WireReader::GetI32Array(std::vector<int32_t>* values) {
  uint64_t count = 0;
  AOD_RETURN_NOT_OK(GetU64(&count));
  if (count > remaining() / 4) {
    return Status::ParseError("wire array longer than its payload");
  }
  values->clear();
  values->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    int32_t v = 0;
    AOD_RETURN_NOT_OK(GetI32(&v));
    values->push_back(v);
  }
  return Status::OK();
}

Status WireReader::GetString(std::string* s) {
  uint64_t len = 0;
  AOD_RETURN_NOT_OK(GetU64(&len));
  if (len > remaining()) {
    return Status::ParseError("wire string longer than its payload");
  }
  s->assign(reinterpret_cast<const char*>(data_ + pos_),
            static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

Status WireReader::ExpectEnd() const {
  if (!AtEnd()) {
    return Status::ParseError("wire payload has trailing bytes");
  }
  return Status::OK();
}

Result<DecodedFrame> DecodeFrame(const uint8_t* data, size_t size) {
  if (size < kFrameHeaderBytes) {
    return Status::ParseError("wire frame shorter than its header");
  }
  if (LoadU32(data) != kWireMagic) {
    return Status::ParseError("wire frame magic mismatch");
  }
  const uint16_t version = LoadU16(data + 4);
  if (version != kWireVersion) {
    return Status::ParseError("unsupported wire version " +
                              std::to_string(version));
  }
  const uint16_t raw_type = LoadU16(data + 6);
  if (raw_type < static_cast<uint16_t>(FrameType::kPartitionBlock) ||
      raw_type > static_cast<uint16_t>(FrameType::kPartitionFragment)) {
    return Status::ParseError("unknown wire frame type " +
                              std::to_string(raw_type));
  }
  const uint64_t declared = LoadU64(data + 8);
  if (declared != size - kFrameHeaderBytes) {
    return Status::ParseError("wire frame size mismatch");
  }
  const uint64_t checksum = LoadU64(data + 16);
  const uint8_t* payload = data + kFrameHeaderBytes;
  if (checksum != WireChecksum(payload, static_cast<size_t>(declared))) {
    return Status::ParseError("wire frame checksum mismatch");
  }
  DecodedFrame out;
  out.type = static_cast<FrameType>(raw_type);
  out.payload = payload;
  out.size = static_cast<size_t>(declared);
  return out;
}

Result<DecodedFrame> DecodeFrame(const std::vector<uint8_t>& frame) {
  return DecodeFrame(frame.data(), frame.size());
}

namespace {

/// Appends the delta-varint body of a canonical partition: class sizes
/// (offset deltas, each >= 2), then per class the first row id (class 0
/// absolute, later classes as the delta from the previous class's first
/// row — canonical order makes those strictly positive) followed by the
/// in-class ascending deltas. Returns false — the cost threshold — as
/// soon as the body reaches `budget` (the raw CSR size): incompressible
/// payloads fall back to raw without ever finishing the attempt.
bool TryCompressPartitionBody(const StrippedPartition& p, size_t budget,
                              WireWriter* body) {
  const std::vector<int32_t>& offsets = p.class_offsets();
  const std::vector<int32_t>& rows = p.row_ids();
  const int64_t num_classes = p.num_classes();
  body->PutVarint(static_cast<uint64_t>(num_classes));
  body->PutVarint(rows.size());
  for (int64_t c = 0; c < num_classes; ++c) {
    body->PutVarint(static_cast<uint64_t>(
        offsets[static_cast<size_t>(c) + 1] - offsets[static_cast<size_t>(c)]));
    if (body->payload().size() >= budget) return false;
  }
  int32_t prev_first = 0;
  for (int64_t c = 0; c < num_classes; ++c) {
    const size_t lo = static_cast<size_t>(offsets[static_cast<size_t>(c)]);
    const size_t hi = static_cast<size_t>(offsets[static_cast<size_t>(c) + 1]);
    body->PutVarint(static_cast<uint64_t>(
        rows[lo] - (c == 0 ? 0 : prev_first)));
    for (size_t i = lo + 1; i < hi; ++i) {
      body->PutVarint(static_cast<uint64_t>(rows[i] - rows[i - 1]));
    }
    prev_first = rows[lo];
    if (body->payload().size() >= budget) return false;
  }
  return true;
}

/// Expands a delta-varint partition body back into the exact raw CSR
/// bytes SerializeTo would emit, bounds- and overflow-checked, so the
/// caller can delegate all structural validation to
/// StrippedPartition::Deserialize — compressed and raw frames pass
/// through one gate.
Status ExpandCompressedCsr(WireReader* reader, int64_t num_rows,
                           std::vector<uint8_t>* csr) {
  uint64_t classes = 0;
  uint64_t rows = 0;
  AOD_RETURN_NOT_OK(reader->GetVarint(&classes));
  AOD_RETURN_NOT_OK(reader->GetVarint(&rows));
  // The same pre-allocation sanity Deserialize applies, so a hostile
  // header cannot make this function allocate unbounded memory.
  if (num_rows < 0 || rows > static_cast<uint64_t>(num_rows)) {
    return Status::ParseError("partition claims more covered rows than the "
                              "table holds");
  }
  if (classes > rows / 2) {
    return Status::ParseError("partition claims more classes than 2-row "
                              "classes fit in its rows");
  }
  csr->clear();
  csr->reserve(16 + (classes > 0 ? (static_cast<size_t>(classes) + 1) * 4 : 0) +
               static_cast<size_t>(rows) * 4);
  endian::AppendU64(csr, classes);
  endian::AppendU64(csr, rows);
  std::vector<int64_t> sizes;
  sizes.reserve(static_cast<size_t>(classes));
  if (classes > 0) {
    endian::AppendI32(csr, 0);
    int64_t offset = 0;
    for (uint64_t c = 0; c < classes; ++c) {
      uint64_t size = 0;
      AOD_RETURN_NOT_OK(reader->GetVarint(&size));
      offset += static_cast<int64_t>(size);
      if (size > rows || offset > static_cast<int64_t>(rows)) {
        return Status::ParseError("partition offsets do not cover its rows");
      }
      sizes.push_back(static_cast<int64_t>(size));
      endian::AppendI32(csr, static_cast<int32_t>(offset));
    }
  }
  int64_t prev_first = 0;
  for (uint64_t c = 0; c < classes; ++c) {
    int64_t row = 0;
    for (int64_t i = 0; i < sizes[static_cast<size_t>(c)]; ++i) {
      uint64_t delta = 0;
      AOD_RETURN_NOT_OK(reader->GetVarint(&delta));
      if (delta > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
        return Status::ParseError("partition row delta out of range");
      }
      row = (i == 0 ? (c == 0 ? 0 : prev_first) : row) +
            static_cast<int64_t>(delta);
      if (row > std::numeric_limits<int32_t>::max()) {
        return Status::ParseError("partition row id out of range");
      }
      endian::AppendI32(csr, static_cast<int32_t>(row));
      if (i == 0) prev_first = row;
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodePartitionBlock(AttributeSet set,
                                          const StrippedPartition& partition,
                                          bool compress,
                                          CodecByteCounts* counts) {
  const std::vector<uint8_t> csr = partition.Serialize();
  WireWriter writer;
  writer.PutU64(set.bits());
  WireWriter body;
  if (compress && TryCompressPartitionBody(partition, csr.size(), &body)) {
    writer.PutU8(kCodecDeltaVarint);
    writer.PutBytes(body.payload().data(), body.payload().size());
  } else {
    writer.PutU8(kCodecRaw);
    writer.PutBytes(csr.data(), csr.size());
  }
  std::vector<uint8_t> frame = writer.SealFrame(FrameType::kPartitionBlock);
  if (counts != nullptr) {
    counts->raw +=
        static_cast<int64_t>(kFrameHeaderBytes + 8 + 1 + csr.size());
    counts->wire += static_cast<int64_t>(frame.size());
  }
  return frame;
}

Result<std::pair<AttributeSet, StrippedPartition>> DecodePartitionBlock(
    const DecodedFrame& frame, int64_t num_rows, CodecByteCounts* counts) {
  if (frame.type != FrameType::kPartitionBlock) {
    return Status::ParseError("frame is not a partition block");
  }
  WireReader reader(frame.payload, frame.size);
  uint64_t bits = 0;
  AOD_RETURN_NOT_OK(reader.GetU64(&bits));
  uint8_t codec = 0;
  AOD_RETURN_NOT_OK(reader.GetU8(&codec));
  StrippedPartition partition;
  size_t raw_csr_bytes = 0;
  if (codec == kCodecRaw) {
    size_t consumed = 0;
    AOD_ASSIGN_OR_RETURN(
        partition,
        StrippedPartition::Deserialize(reader.cursor(), reader.remaining(),
                                       num_rows, &consumed));
    reader.Skip(consumed);
    raw_csr_bytes = consumed;
  } else if (codec == kCodecDeltaVarint) {
    std::vector<uint8_t> csr;
    AOD_RETURN_NOT_OK(ExpandCompressedCsr(&reader, num_rows, &csr));
    size_t consumed = 0;
    AOD_ASSIGN_OR_RETURN(
        partition,
        StrippedPartition::Deserialize(csr.data(), csr.size(), num_rows,
                                       &consumed));
    if (consumed != csr.size()) {
      return Status::ParseError("partition body has trailing bytes");
    }
    raw_csr_bytes = csr.size();
  } else {
    return Status::ParseError("unknown partition codec " +
                              std::to_string(codec));
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  if (counts != nullptr) {
    counts->raw +=
        static_cast<int64_t>(kFrameHeaderBytes + 8 + 1 + raw_csr_bytes);
    counts->wire += static_cast<int64_t>(kFrameHeaderBytes + frame.size);
  }
  return std::make_pair(AttributeSet(bits), std::move(partition));
}

namespace {

Status CheckedKind(uint8_t v, DependencyKind* out) {
  if (v >= kNumDependencyKinds) {
    return Status::ParseError("unknown dependency kind id " +
                              std::to_string(static_cast<int>(v)));
  }
  *out = static_cast<DependencyKind>(v);
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeCandidateBatch(
    const std::vector<WireCandidate>& candidates, CodecByteCounts* counts) {
  WireWriter writer;
  writer.PutU64(candidates.size());
  for (const WireCandidate& c : candidates) {
    writer.PutU64(c.slot);
    writer.PutU64(c.context_bits);
    writer.PutU8(static_cast<uint8_t>(c.kind));
    writer.PutI32(c.target);
    writer.PutI32(c.pair_a);
    writer.PutI32(c.pair_b);
    writer.PutU8(c.opposite ? 1 : 0);
  }
  std::vector<uint8_t> frame = writer.SealFrame(FrameType::kCandidateBatch);
  if (counts != nullptr) {
    counts->raw += static_cast<int64_t>(frame.size());
    counts->wire += static_cast<int64_t>(frame.size());
  }
  return frame;
}

Result<std::vector<WireCandidate>> DecodeCandidateBatch(
    const DecodedFrame& frame, CodecByteCounts* counts) {
  if (frame.type != FrameType::kCandidateBatch) {
    return Status::ParseError("frame is not a candidate batch");
  }
  WireReader reader(frame.payload, frame.size);
  uint64_t count = 0;
  AOD_RETURN_NOT_OK(reader.GetU64(&count));
  // Per-candidate encoding is 30 bytes (2 u64 + 3 i32 + 2 u8).
  if (count > reader.remaining() / 30) {
    return Status::ParseError("candidate batch longer than its payload");
  }
  std::vector<WireCandidate> out;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    WireCandidate c;
    uint8_t kind = 0;
    uint8_t opposite = 0;
    AOD_RETURN_NOT_OK(reader.GetU64(&c.slot));
    AOD_RETURN_NOT_OK(reader.GetU64(&c.context_bits));
    AOD_RETURN_NOT_OK(reader.GetU8(&kind));
    AOD_RETURN_NOT_OK(reader.GetI32(&c.target));
    AOD_RETURN_NOT_OK(reader.GetI32(&c.pair_a));
    AOD_RETURN_NOT_OK(reader.GetI32(&c.pair_b));
    AOD_RETURN_NOT_OK(reader.GetU8(&opposite));
    AOD_RETURN_NOT_OK(CheckedKind(kind, &c.kind));
    c.opposite = opposite != 0;
    out.push_back(c);
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  if (counts != nullptr) {
    const int64_t bytes = static_cast<int64_t>(kFrameHeaderBytes + frame.size);
    counts->raw += bytes;
    counts->wire += bytes;
  }
  return out;
}

std::vector<uint8_t> EncodeResultBatch(const std::vector<WireOutcome>& outcomes,
                                       bool final_chunk,
                                       CodecByteCounts* counts) {
  WireWriter writer;
  writer.PutU8(final_chunk ? kResultFlagFinalChunk : 0);
  writer.PutU64(outcomes.size());
  for (const WireOutcome& o : outcomes) {
    writer.PutU64(o.slot);
    writer.PutU8(static_cast<uint8_t>(o.kind));
    writer.PutU8(o.valid ? 1 : 0);
    writer.PutU8(o.early_exit ? 1 : 0);
    writer.PutI64(o.removal_size);
    writer.PutDouble(o.approx_factor);
    writer.PutDouble(o.interestingness);
    writer.PutDouble(o.seconds);
    writer.PutI32Array(o.removal_rows);
  }
  std::vector<uint8_t> frame = writer.SealFrame(FrameType::kResultBatch);
  if (counts != nullptr) {
    counts->raw += static_cast<int64_t>(frame.size());
    counts->wire += static_cast<int64_t>(frame.size());
  }
  return frame;
}

Result<WireResultChunk> DecodeResultBatch(const DecodedFrame& frame,
                                          CodecByteCounts* counts) {
  if (frame.type != FrameType::kResultBatch) {
    return Status::ParseError("frame is not a result batch");
  }
  WireReader reader(frame.payload, frame.size);
  uint8_t flags = 0;
  AOD_RETURN_NOT_OK(reader.GetU8(&flags));
  if ((flags & ~kResultFlagFinalChunk) != 0) {
    return Status::ParseError("unknown result batch flags");
  }
  WireResultChunk chunk;
  chunk.final_chunk = (flags & kResultFlagFinalChunk) != 0;
  uint64_t count = 0;
  AOD_RETURN_NOT_OK(reader.GetU64(&count));
  // 51 bytes per outcome before its (possibly empty) removal-row array.
  if (count > reader.remaining() / 51) {
    return Status::ParseError("result batch longer than its payload");
  }
  std::vector<WireOutcome>& out = chunk.outcomes;
  out.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    WireOutcome o;
    uint8_t kind = 0;
    uint8_t valid = 0;
    uint8_t early_exit = 0;
    AOD_RETURN_NOT_OK(reader.GetU64(&o.slot));
    AOD_RETURN_NOT_OK(reader.GetU8(&kind));
    AOD_RETURN_NOT_OK(CheckedKind(kind, &o.kind));
    AOD_RETURN_NOT_OK(reader.GetU8(&valid));
    AOD_RETURN_NOT_OK(reader.GetU8(&early_exit));
    AOD_RETURN_NOT_OK(reader.GetI64(&o.removal_size));
    AOD_RETURN_NOT_OK(reader.GetDouble(&o.approx_factor));
    AOD_RETURN_NOT_OK(reader.GetDouble(&o.interestingness));
    AOD_RETURN_NOT_OK(reader.GetDouble(&o.seconds));
    AOD_RETURN_NOT_OK(reader.GetI32Array(&o.removal_rows));
    o.valid = valid != 0;
    o.early_exit = early_exit != 0;
    out.push_back(std::move(o));
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  if (counts != nullptr) {
    const int64_t bytes = static_cast<int64_t>(kFrameHeaderBytes + frame.size);
    counts->raw += bytes;
    counts->wire += bytes;
  }
  return chunk;
}

std::vector<uint8_t> EncodeConfigBlock(const WireRunnerConfig& config) {
  WireWriter writer;
  writer.PutU32(config.shard_id);
  writer.PutU32(config.attempt_id);
  writer.PutU8(config.validator);
  writer.PutDouble(config.epsilon);
  writer.PutU8(config.collect_removal_sets ? 1 : 0);
  writer.PutU8(config.enable_sampling_filter ? 1 : 0);
  writer.PutI64(config.sampler_sample_size);
  writer.PutDouble(config.sampler_reject_margin);
  writer.PutU64(config.sampler_seed);
  writer.PutI64(config.partition_memory_budget_bytes);
  writer.PutU32(config.num_threads);
  writer.PutU32(config.kinds);
  writer.PutDouble(config.afd_error);
  writer.PutI64(config.row_begin);
  writer.PutI64(config.row_end);
  return writer.SealFrame(FrameType::kConfigBlock);
}

Result<WireRunnerConfig> DecodeConfigBlock(const DecodedFrame& frame) {
  if (frame.type != FrameType::kConfigBlock) {
    return Status::ParseError("frame is not a config block");
  }
  WireReader reader(frame.payload, frame.size);
  WireRunnerConfig config;
  uint8_t removal = 0;
  uint8_t sampling = 0;
  AOD_RETURN_NOT_OK(reader.GetU32(&config.shard_id));
  AOD_RETURN_NOT_OK(reader.GetU32(&config.attempt_id));
  AOD_RETURN_NOT_OK(reader.GetU8(&config.validator));
  AOD_RETURN_NOT_OK(reader.GetDouble(&config.epsilon));
  AOD_RETURN_NOT_OK(reader.GetU8(&removal));
  AOD_RETURN_NOT_OK(reader.GetU8(&sampling));
  AOD_RETURN_NOT_OK(reader.GetI64(&config.sampler_sample_size));
  AOD_RETURN_NOT_OK(reader.GetDouble(&config.sampler_reject_margin));
  AOD_RETURN_NOT_OK(reader.GetU64(&config.sampler_seed));
  AOD_RETURN_NOT_OK(reader.GetI64(&config.partition_memory_budget_bytes));
  AOD_RETURN_NOT_OK(reader.GetU32(&config.num_threads));
  AOD_RETURN_NOT_OK(reader.GetU32(&config.kinds));
  AOD_RETURN_NOT_OK(reader.GetDouble(&config.afd_error));
  AOD_RETURN_NOT_OK(reader.GetI64(&config.row_begin));
  AOD_RETURN_NOT_OK(reader.GetI64(&config.row_end));
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  config.collect_removal_sets = removal != 0;
  config.enable_sampling_filter = sampling != 0;
  if (config.validator > 2) {
    return Status::ParseError("unknown validator kind " +
                              std::to_string(config.validator));
  }
  if (!(config.epsilon >= 0.0 && config.epsilon <= 1.0)) {
    return Status::ParseError("config epsilon outside [0, 1]");
  }
  if (config.kinds == 0 || !DependencyKindSet(config.kinds).IsValid()) {
    return Status::ParseError("config dependency-kind set invalid (bits " +
                              std::to_string(config.kinds) + ")");
  }
  if (!(config.afd_error >= 0.0 && config.afd_error <= 1.0)) {
    return Status::ParseError("config afd_error outside [0, 1]");
  }
  if (config.row_begin < 0 || config.row_end < config.row_begin) {
    return Status::ParseError("config row range invalid");
  }
  return config;
}

namespace {

/// Rank codec selection: a pure function of the column's cardinality
/// (and the compress switch), so both sides of the seam can predict it.
/// Ranks are dense dictionary codes in [0, cardinality): domains that
/// fit one or two bytes pack at fixed narrow width; anything larger
/// ships raw i32.
uint8_t SelectRankCodec(int32_t cardinality, bool compress) {
  if (!compress) return kRankCodecRaw;
  if (cardinality <= (1 << 8)) return kRankCodecByte;
  if (cardinality <= (1 << 16)) return kRankCodecShort;
  return kRankCodecRaw;
}

}  // namespace

std::vector<uint8_t> EncodeTableSlice(const EncodedTable& table,
                                      int64_t row_begin, int64_t row_end,
                                      bool compress, CodecByteCounts* counts) {
  AOD_CHECK_MSG(row_begin >= 0 && row_begin <= row_end &&
                    row_end <= table.num_rows(),
                "table slice [%lld, %lld) outside table of %lld rows",
                static_cast<long long>(row_begin),
                static_cast<long long>(row_end),
                static_cast<long long>(table.num_rows()));
  const size_t lo = static_cast<size_t>(row_begin);
  const size_t hi = static_cast<size_t>(row_end);
  WireWriter writer;
  writer.PutI64(table.num_rows());
  writer.PutU32(static_cast<uint32_t>(table.num_columns()));
  writer.PutI64(row_begin);
  writer.PutI64(row_end - row_begin);
  int64_t raw_bytes = static_cast<int64_t>(kFrameHeaderBytes) + 8 + 4 + 16;
  for (int c = 0; c < table.num_columns(); ++c) {
    const EncodedColumn& col = table.column(c);
    writer.PutString(col.name);
    // Cardinality (and through it the rank codec) is table-global even
    // for a slice: ranks are dense codes over the whole column, which is
    // what lets fragments from different ranges stitch by rank.
    writer.PutI32(col.cardinality);
    const uint8_t codec = SelectRankCodec(col.cardinality, compress);
    writer.PutU8(codec);
    writer.PutU64(hi - lo);
    switch (codec) {
      case kRankCodecByte:
        for (size_t i = lo; i < hi; ++i) {
          writer.PutU8(static_cast<uint8_t>(col.ranks[i]));
        }
        break;
      case kRankCodecShort:
        for (size_t i = lo; i < hi; ++i) {
          writer.PutU16(static_cast<uint16_t>(col.ranks[i]));
        }
        break;
      default:
        for (size_t i = lo; i < hi; ++i) writer.PutI32(col.ranks[i]);
        break;
    }
    raw_bytes += 8 + static_cast<int64_t>(col.name.size()) + 4 + 1 + 8 +
                 4 * static_cast<int64_t>(hi - lo);
  }
  std::vector<uint8_t> frame = writer.SealFrame(FrameType::kTableBlock);
  if (counts != nullptr) {
    counts->raw += raw_bytes;
    counts->wire += static_cast<int64_t>(frame.size());
  }
  return frame;
}

std::vector<uint8_t> EncodeTableBlock(const EncodedTable& table, bool compress,
                                      CodecByteCounts* counts) {
  return EncodeTableSlice(table, 0, table.num_rows(), compress, counts);
}

Result<WireTableSlice> DecodeTableSlice(const DecodedFrame& frame,
                                        CodecByteCounts* counts) {
  if (frame.type != FrameType::kTableBlock) {
    return Status::ParseError("frame is not a table block");
  }
  WireReader reader(frame.payload, frame.size);
  int64_t total_rows = 0;
  uint32_t num_columns = 0;
  int64_t row_offset = 0;
  int64_t slice_rows = 0;
  AOD_RETURN_NOT_OK(reader.GetI64(&total_rows));
  AOD_RETURN_NOT_OK(reader.GetU32(&num_columns));
  AOD_RETURN_NOT_OK(reader.GetI64(&row_offset));
  AOD_RETURN_NOT_OK(reader.GetI64(&slice_rows));
  if (total_rows < 0) return Status::ParseError("negative table row count");
  if (num_columns > static_cast<uint32_t>(AttributeSet::kMaxAttributes)) {
    return Status::ParseError("table block exceeds the attribute limit");
  }
  if (row_offset < 0 || slice_rows < 0 ||
      row_offset > total_rows - slice_rows) {
    return Status::ParseError("table slice outside its table's rows");
  }
  int64_t raw_bytes = static_cast<int64_t>(kFrameHeaderBytes) + 8 + 4 + 16;
  std::vector<EncodedColumn> columns;
  columns.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    EncodedColumn col;
    AOD_RETURN_NOT_OK(reader.GetString(&col.name));
    AOD_RETURN_NOT_OK(reader.GetI32(&col.cardinality));
    uint8_t codec = 0;
    AOD_RETURN_NOT_OK(reader.GetU8(&codec));
    uint64_t count = 0;
    AOD_RETURN_NOT_OK(reader.GetU64(&count));
    switch (codec) {
      case kRankCodecRaw: {
        if (count > reader.remaining() / 4) {
          return Status::ParseError("rank column longer than its payload");
        }
        col.ranks.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
          int32_t v = 0;
          AOD_RETURN_NOT_OK(reader.GetI32(&v));
          col.ranks.push_back(v);
        }
        break;
      }
      case kRankCodecByte: {
        if (count > reader.remaining()) {
          return Status::ParseError("rank column longer than its payload");
        }
        col.ranks.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
          uint8_t v = 0;
          AOD_RETURN_NOT_OK(reader.GetU8(&v));
          col.ranks.push_back(v);
        }
        break;
      }
      case kRankCodecShort: {
        if (count > reader.remaining() / 2) {
          return Status::ParseError("rank column longer than its payload");
        }
        col.ranks.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
          uint16_t v = 0;
          AOD_RETURN_NOT_OK(reader.GetU16(&v));
          col.ranks.push_back(v);
        }
        break;
      }
      default:
        return Status::ParseError("unknown rank codec " +
                                  std::to_string(codec));
    }
    if (static_cast<int64_t>(col.ranks.size()) != slice_rows) {
      return Status::ParseError("column length disagrees with row count");
    }
    // Cardinality is global, so the bound is total_rows — a slice of a
    // high-cardinality column legitimately declares more distinct values
    // than it has rows.
    if (col.cardinality < 0 ||
        static_cast<int64_t>(col.cardinality) > total_rows) {
      return Status::ParseError("column cardinality out of range");
    }
    for (int32_t rank : col.ranks) {
      if (rank < 0 || rank >= col.cardinality) {
        return Status::ParseError("rank outside its declared cardinality");
      }
    }
    raw_bytes += 8 + static_cast<int64_t>(col.name.size()) + 4 + 1 + 8 +
                 4 * static_cast<int64_t>(col.ranks.size());
    columns.push_back(std::move(col));
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  if (counts != nullptr) {
    counts->raw += raw_bytes;
    counts->wire += static_cast<int64_t>(kFrameHeaderBytes + frame.size);
  }
  WireTableSlice out;
  out.table = EncodedTable(std::move(columns), slice_rows);
  out.row_offset = row_offset;
  out.total_rows = total_rows;
  return out;
}

Result<EncodedTable> DecodeTableBlock(const DecodedFrame& frame,
                                      CodecByteCounts* counts) {
  // Count bytes only for an accepted frame: a rejected slice must not
  // pollute the caller's accounting.
  CodecByteCounts local;
  AOD_ASSIGN_OR_RETURN(WireTableSlice slice, DecodeTableSlice(frame, &local));
  if (slice.row_offset != 0 || slice.total_rows != slice.table.num_rows()) {
    return Status::ParseError("table block is a row slice");
  }
  if (counts != nullptr) counts->Add(local);
  return std::move(slice.table);
}

namespace {

/// Delta-varint body of a partition fragment: class and row counts, the
/// strictly ascending ranks as deltas (first absolute), the class sizes
/// (>= 1 — singletons survive in fragments), then per class its first
/// row as a delta from row_begin followed by the in-class ascending
/// gaps. Same cost threshold as the partition codecs: bail to raw the
/// moment the body reaches `budget`.
bool TryCompressFragmentBody(const PartitionFragment& f, size_t budget,
                             WireWriter* body) {
  const int64_t classes = f.num_classes();
  body->PutVarint(static_cast<uint64_t>(classes));
  body->PutVarint(f.row_ids.size());
  int32_t prev_rank = 0;
  for (int64_t c = 0; c < classes; ++c) {
    const int32_t rank = f.class_ranks[static_cast<size_t>(c)];
    body->PutVarint(static_cast<uint64_t>(rank - (c == 0 ? 0 : prev_rank)));
    prev_rank = rank;
    if (body->payload().size() >= budget) return false;
  }
  for (int64_t c = 0; c < classes; ++c) {
    body->PutVarint(static_cast<uint64_t>(
        f.class_offsets[static_cast<size_t>(c) + 1] -
        f.class_offsets[static_cast<size_t>(c)]));
    if (body->payload().size() >= budget) return false;
  }
  for (int64_t c = 0; c < classes; ++c) {
    const size_t lo = static_cast<size_t>(f.class_offsets[static_cast<size_t>(c)]);
    const size_t hi =
        static_cast<size_t>(f.class_offsets[static_cast<size_t>(c) + 1]);
    body->PutVarint(static_cast<uint64_t>(f.row_ids[lo] - f.row_begin));
    for (size_t i = lo + 1; i < hi; ++i) {
      body->PutVarint(
          static_cast<uint64_t>(f.row_ids[i] - f.row_ids[i - 1]));
    }
    if (body->payload().size() >= budget) return false;
  }
  return true;
}

/// Expands the delta-varint fragment body back into the exact raw bytes
/// PartitionFragment::SerializeTo emits, so compressed and raw frames
/// share one validation gate (PartitionFragment::Deserialize).
Status ExpandCompressedFragment(WireReader* reader, int64_t row_begin,
                                int64_t row_end, std::vector<uint8_t>* raw) {
  uint64_t classes = 0;
  uint64_t rows = 0;
  AOD_RETURN_NOT_OK(reader->GetVarint(&classes));
  AOD_RETURN_NOT_OK(reader->GetVarint(&rows));
  // Pre-allocation sanity (Deserialize re-checks): total coverage pins
  // the row count to the range, and every class holds >= 1 row.
  if (rows != static_cast<uint64_t>(row_end - row_begin)) {
    return Status::ParseError("fragment does not cover its row range");
  }
  if (classes > rows) {
    return Status::ParseError("fragment claims more classes than rows");
  }
  raw->clear();
  raw->reserve(16 + static_cast<size_t>(classes) * 8 + 4 +
               static_cast<size_t>(rows) * 4);
  endian::AppendU64(raw, classes);
  endian::AppendU64(raw, rows);
  int64_t rank = 0;
  for (uint64_t c = 0; c < classes; ++c) {
    uint64_t delta = 0;
    AOD_RETURN_NOT_OK(reader->GetVarint(&delta));
    rank += static_cast<int64_t>(delta);
    if (rank > std::numeric_limits<int32_t>::max()) {
      return Status::ParseError("fragment rank out of range");
    }
    endian::AppendI32(raw, static_cast<int32_t>(rank));
  }
  std::vector<int64_t> sizes;
  sizes.reserve(static_cast<size_t>(classes));
  endian::AppendI32(raw, 0);
  int64_t offset = 0;
  for (uint64_t c = 0; c < classes; ++c) {
    uint64_t size = 0;
    AOD_RETURN_NOT_OK(reader->GetVarint(&size));
    offset += static_cast<int64_t>(size);
    if (size > rows || offset > static_cast<int64_t>(rows)) {
      return Status::ParseError("fragment offsets do not cover its rows");
    }
    sizes.push_back(static_cast<int64_t>(size));
    endian::AppendI32(raw, static_cast<int32_t>(offset));
  }
  for (uint64_t c = 0; c < classes; ++c) {
    int64_t row = row_begin;
    for (int64_t i = 0; i < sizes[static_cast<size_t>(c)]; ++i) {
      uint64_t delta = 0;
      AOD_RETURN_NOT_OK(reader->GetVarint(&delta));
      if (delta > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
        return Status::ParseError("fragment row delta out of range");
      }
      row = (i == 0 ? row_begin : row) + static_cast<int64_t>(delta);
      if (row > std::numeric_limits<int32_t>::max()) {
        return Status::ParseError("fragment row id out of range");
      }
      endian::AppendI32(raw, static_cast<int32_t>(row));
    }
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodePartitionFragment(const PartitionFragment& fragment,
                                             bool compress,
                                             CodecByteCounts* counts) {
  const std::vector<uint8_t> raw = fragment.Serialize();
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(fragment.attribute));
  writer.PutI64(fragment.row_begin);
  writer.PutI64(fragment.row_end);
  WireWriter body;
  const bool delta_ok =
      compress && TryCompressFragmentBody(fragment, raw.size(), &body);
  if (delta_ok) {
    writer.PutU8(kCodecDeltaVarint);
    writer.PutBytes(body.payload().data(), body.payload().size());
  } else {
    writer.PutU8(kCodecRaw);
    writer.PutBytes(raw.data(), raw.size());
  }
  std::vector<uint8_t> frame = writer.SealFrame(FrameType::kPartitionFragment);
  if (counts != nullptr) {
    counts->raw +=
        static_cast<int64_t>(kFrameHeaderBytes + 4 + 8 + 8 + 1 + raw.size());
    counts->wire += static_cast<int64_t>(frame.size());
  }
  return frame;
}

Result<PartitionFragment> DecodePartitionFragment(const DecodedFrame& frame,
                                                  int64_t num_rows,
                                                  CodecByteCounts* counts) {
  if (frame.type != FrameType::kPartitionFragment) {
    return Status::ParseError("frame is not a partition fragment");
  }
  WireReader reader(frame.payload, frame.size);
  uint32_t attribute = 0;
  int64_t row_begin = 0;
  int64_t row_end = 0;
  AOD_RETURN_NOT_OK(reader.GetU32(&attribute));
  AOD_RETURN_NOT_OK(reader.GetI64(&row_begin));
  AOD_RETURN_NOT_OK(reader.GetI64(&row_end));
  if (attribute >= static_cast<uint32_t>(AttributeSet::kMaxAttributes)) {
    return Status::ParseError("fragment attribute out of range");
  }
  if (row_begin < 0 || row_end < row_begin || row_end > num_rows) {
    return Status::ParseError("fragment row range outside the table");
  }
  uint8_t codec = 0;
  AOD_RETURN_NOT_OK(reader.GetU8(&codec));
  PartitionFragment fragment;
  size_t raw_body_bytes = 0;
  if (codec == kCodecRaw) {
    size_t consumed = 0;
    AOD_ASSIGN_OR_RETURN(
        fragment, PartitionFragment::Deserialize(
                      reader.cursor(), reader.remaining(),
                      static_cast<int32_t>(attribute), row_begin, row_end,
                      &consumed));
    reader.Skip(consumed);
    raw_body_bytes = consumed;
  } else if (codec == kCodecDeltaVarint) {
    std::vector<uint8_t> raw;
    AOD_RETURN_NOT_OK(
        ExpandCompressedFragment(&reader, row_begin, row_end, &raw));
    size_t consumed = 0;
    AOD_ASSIGN_OR_RETURN(
        fragment, PartitionFragment::Deserialize(
                      raw.data(), raw.size(), static_cast<int32_t>(attribute),
                      row_begin, row_end, &consumed));
    if (consumed != raw.size()) {
      return Status::ParseError("fragment body has trailing bytes");
    }
    raw_body_bytes = raw.size();
  } else {
    return Status::ParseError("unknown fragment codec " +
                              std::to_string(codec));
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  if (counts != nullptr) {
    counts->raw += static_cast<int64_t>(kFrameHeaderBytes + 4 + 8 + 8 + 1 +
                                        raw_body_bytes);
    counts->wire += static_cast<int64_t>(kFrameHeaderBytes + frame.size);
  }
  return fragment;
}

std::vector<uint8_t> EncodeShutdown() {
  WireWriter writer;
  return writer.SealFrame(FrameType::kShutdown);
}

std::vector<uint8_t> EncodeBatchEnvelope(
    const std::vector<std::vector<uint8_t>>& frames) {
  WireWriter writer;
  writer.PutU32(static_cast<uint32_t>(frames.size()));
  for (const std::vector<uint8_t>& f : frames) {
    writer.PutU64(f.size());
    writer.PutBytes(f.data(), f.size());
  }
  return writer.SealFrame(FrameType::kBatch);
}

Result<std::vector<std::vector<uint8_t>>> UnpackBatchEnvelope(
    const DecodedFrame& frame) {
  if (frame.type != FrameType::kBatch) {
    return Status::ParseError("frame is not a batch envelope");
  }
  WireReader reader(frame.payload, frame.size);
  uint32_t count = 0;
  AOD_RETURN_NOT_OK(reader.GetU32(&count));
  if (count == 0) {
    return Status::ParseError("empty batch envelope");
  }
  // Each inner frame costs at least a length prefix plus a header.
  if (count > reader.remaining() / (8 + kFrameHeaderBytes)) {
    return Status::ParseError("batch envelope longer than its payload");
  }
  std::vector<std::vector<uint8_t>> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    AOD_RETURN_NOT_OK(reader.GetU64(&len));
    if (len > reader.remaining()) {
      return Status::ParseError("batch envelope segment truncated");
    }
    if (len < kFrameHeaderBytes) {
      return Status::ParseError("batch envelope segment shorter than a "
                                "frame header");
    }
    const uint8_t* p = reader.cursor();
    if (LoadU16(p + 6) == static_cast<uint16_t>(FrameType::kBatch)) {
      return Status::ParseError("nested batch envelope");
    }
    out.emplace_back(p, p + len);
    reader.Skip(static_cast<size_t>(len));
  }
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  return out;
}

std::vector<uint8_t> EncodeStatsFooter(const ShardStatsFooter& footer) {
  WireWriter writer;
  writer.PutU32(footer.shard_id);
  writer.PutU32(footer.attempt_id);
  writer.PutI64(footer.frames_served);
  writer.PutI64(footer.products_computed);
  writer.PutI64(footer.planner_derivations);
  writer.PutI64(footer.planner_cost_estimated);
  writer.PutI64(footer.planner_cost_realized);
  writer.PutI64(footer.partitions_evicted);
  writer.PutI64(footer.partition_bytes_evicted);
  writer.PutI64(footer.partition_bytes_final);
  writer.PutI64(footer.partition_bytes_peak);
  writer.PutI64(footer.bytes_decoded_raw);
  writer.PutI64(footer.bytes_decoded_wire);
  writer.PutDouble(footer.partition_seconds);
  return writer.SealFrame(FrameType::kStatsFooter);
}

Result<ShardStatsFooter> DecodeStatsFooter(const DecodedFrame& frame) {
  if (frame.type != FrameType::kStatsFooter) {
    return Status::ParseError("frame is not a stats footer");
  }
  WireReader reader(frame.payload, frame.size);
  ShardStatsFooter footer;
  AOD_RETURN_NOT_OK(reader.GetU32(&footer.shard_id));
  AOD_RETURN_NOT_OK(reader.GetU32(&footer.attempt_id));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.frames_served));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.products_computed));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.planner_derivations));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.planner_cost_estimated));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.planner_cost_realized));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.partitions_evicted));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.partition_bytes_evicted));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.partition_bytes_final));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.partition_bytes_peak));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.bytes_decoded_raw));
  AOD_RETURN_NOT_OK(reader.GetI64(&footer.bytes_decoded_wire));
  AOD_RETURN_NOT_OK(reader.GetDouble(&footer.partition_seconds));
  AOD_RETURN_NOT_OK(reader.ExpectEnd());
  if (footer.frames_served < 0 || footer.products_computed < 0 ||
      footer.planner_derivations < 0 || footer.planner_cost_estimated < 0 ||
      footer.planner_cost_realized < 0 ||
      footer.partitions_evicted < 0 || footer.partition_bytes_evicted < 0 ||
      footer.partition_bytes_final < 0 || footer.partition_bytes_peak < 0 ||
      footer.bytes_decoded_raw < 0 || footer.bytes_decoded_wire < 0) {
    return Status::ParseError("negative counter in stats footer");
  }
  return footer;
}

}  // namespace shard
}  // namespace aod
