// The versioned, checksummed wire format of the sharding subsystem.
//
// Everything that crosses the shard seam — partitions, candidate batches,
// validation results — travels as a self-delimiting *frame*:
//
//   offset  field      width
//   0       magic      u32   "AODW" (0x414F4457)
//   4       version    u16   kWireVersion; decoders reject anything else
//   6       type       u16   FrameType
//   8       size       u64   payload byte count
//   16      checksum   u64   WireChecksum over the payload bytes
//   24      payload    size bytes
//
// All integers are little-endian; doubles ship as their IEEE-754 bit
// pattern, so a value survives the round trip bit-exactly — the
// determinism contract (ARCHITECTURE.md) extends across the wire only
// because nothing is ever re-derived through text or rounding. Decoders
// validate magic, version, declared size and checksum before touching
// the payload, and every payload read is bounds-checked, so a truncated
// or corrupted buffer yields a clean ParseError, never a misparse.
//
// Every payload has at most two spellings: raw fixed-width, and a
// compressed form only where a measurement showed it pays. Partition
// blocks and partition fragments carry a codec byte selecting raw or
// delta-varint, which exploits the canonical CSR normal form — row ids
// ascend within each class and class offsets are monotone, so deltas
// are small and LEB128 varints shrink them 3–6×. The delta attempt
// aborts the moment it reaches the raw body's size (the cost threshold
// that keeps incompressible payloads raw), and the codec byte makes the
// frame self-describing: a decoder never needs to know what the encoder
// chose. Table blocks pick a per-column rank width from the column's
// cardinality. Candidate and result batches always ship raw. The
// checksum covers the on-wire (possibly compressed) payload bytes.
//
// Every message crosses the channel as its own frame. The frame layer
// is transport-agnostic: ShardChannel moves opaque frames, and no
// encoder or decoder knows which endpoint carries them.
#ifndef AOD_SHARD_WIRE_H_
#define AOD_SHARD_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/encoder.h"
#include "od/dependency_kind.h"
#include "partition/attribute_set.h"
#include "partition/partition_stitch.h"
#include "partition/stripped_partition.h"

namespace aod {
namespace shard {

inline constexpr uint32_t kWireMagic = 0x414F4457;  // "AODW"
/// Version 2: compressed payload codecs (flags byte) + batch envelopes
/// + split raw/wire byte accounting in the stats footer.
/// Version 3: an attempt id in the config block and the stats footer, so
/// a supervising coordinator that respawned a shard can tell a stale
/// attempt's footer from the live one (src/shard/supervisor.h).
/// Version 4: multi-kind candidates — the candidate's is_ofd byte became
/// a DependencyKind id, outcomes echo their candidate's kind, and the
/// config block carries the enabled kind set and the AFD g1 threshold.
/// Decoders reject unknown kind ids and out-of-range thresholds with
/// typed parse errors.
/// Version 5: row-space sharding — kTableBlock carries a row slice
/// (global row offset + total row count ahead of the columns; a full
/// table is the offset-0, whole-range slice), the config block carries
/// the shard's assigned row range, and kPartitionFragment ships one
/// attribute's rank-keyed equivalence classes over that range back to
/// the class-stitching reducer (partition/partition_stitch.h).
/// Version 6: the config block drops its compression byte — every encoder
/// picks the smaller of raw and compressed per frame.
/// Version 7: runners derive context partitions through the cost planner,
/// so the stats footer carries the three planner counters; the serve
/// job-submit options drop their derivation-planner byte.
/// Version 8: only the codecs with a measured win remain. The class-label
/// partition codec, the compressed candidate and result bodies and the
/// varint rank tier are gone; the candidate batch drops its flags byte.
/// Their retired ids and flag bits are typed parse errors.
/// Version 9: every message is its own frame. The batch envelope (frame
/// type 8) is retired and decodes as a typed parse error naming it; the
/// stats footer drops its two decoded-byte counters, since the
/// coordinator accounts every seam byte at its own encode and decode
/// sites.
/// Version 10: the frame checksum folds the payload a word at a time
/// (HashWords) instead of byte-wise FNV-1a, and kJobSubmit carries a
/// table-source byte: an inline kTableBlock, or a 128-bit TableDigest
/// naming a table uploaded earlier on the same connection.
/// Version 11: the hybrid AOC sampler is gone, so the config block drops
/// its four sampler fields (25 bytes) and kJobSubmit its four sampler
/// options (19 bytes at the default sample size).
/// Version 12: shards are fail-stop with no respawn, so the config block
/// and the stats footer drop their attempt id (4 bytes each).
inline constexpr uint16_t kWireVersion = 12;
/// The retired batch-envelope frame id (wire versions 2-8). Ids are never
/// renumbered, so DecodeFrame names it instead of misreading a frame.
inline constexpr uint16_t kRetiredFrameTypeBatch = 8;
inline constexpr size_t kFrameHeaderBytes = 24;

enum class FrameType : uint16_t {
  /// One attribute set + its stripped partition in CSR encoding; seeds a
  /// shard's partition cache.
  kPartitionBlock = 1,
  /// The candidates assigned to one shard for one lattice level.
  kCandidateBatch = 2,
  /// One chunk of the outcomes a shard completed for one candidate
  /// batch. A level's reply is a sequence of chunks, which bound the
  /// frame size; the leading flags byte of the last one carries
  /// kResultFlagFinalChunk, so the receiver knows where the reply ends.
  kResultBatch = 3,
  /// The rank-encoded table columns, shipped once at startup to every
  /// runner process (a row shard receives only its slice).
  kTableBlock = 4,
  /// The runner's validation configuration, shipped before the table.
  kConfigBlock = 5,
  /// Coordinator -> runner: the run is over; reply with a stats footer
  /// and exit the serve loop. Empty payload.
  kShutdown = 6,
  /// Runner -> coordinator: the terminal frame of a shard conversation,
  /// carrying the shard's DiscoveryStats counters so remote runners
  /// aggregate without object access.
  kStatsFooter = 7,
  // 8 is retired (kRetiredFrameTypeBatch).

  // --- The serving vocabulary (src/serve/) ---------------------------
  // The discovery-as-a-service job protocol between a DiscoveryClient
  // and a long-lived DiscoveryServer. It rides the same frame layer
  // (magic/version/checksum, bounded decode) so a job submission gets
  // the identical malformed-input protection as the shard seam; the
  // encoders/decoders live in src/serve/serve_wire.{h,cc}.
  /// Client -> server: one discovery job — a DiscoveryOptions subset
  /// plus the table (inline kTableBlock bytes, or the digest of a table
  /// this connection uploaded before).
  kJobSubmit = 9,
  /// Server -> client: acceptance + lifecycle/progress updates for one
  /// job (queued/running/done, queue position, level progress). Also
  /// client -> server as a bare job-id query.
  kJobStatus = 10,
  /// Server -> client: one chunk of a finished job's result, chunked
  /// like kResultBatch (final-chunk flag; the final chunk carries the
  /// stats and the terminal status), so large result sets stream
  /// instead of materializing one giant frame.
  kJobResultBatch = 11,
  /// Server -> client: a typed job rejection or failure —
  /// StatusCode::kOverloaded (admission control), kShuttingDown
  /// (drain), kInvalidArgument (malformed submission), carried as a
  /// code + message.
  kJobError = 12,
  /// Client -> server: abandon a submitted job; the server cancels it
  /// cooperatively and reclaims its resources.
  kCancel = 13,

  /// Runner -> coordinator (row-space sharding): one attribute's
  /// equivalence classes over the runner's assigned row range, keyed by
  /// table-global rank — the input of the class-stitching reducer.
  /// Unlike kPartitionBlock this is NOT a stripped partition: singleton
  /// classes survive (they may join a class from another range) and
  /// classes are ordered by rank, not smallest row id.
  kPartitionFragment = 14,
};

// Payload codec identifiers. "Raw" is always the fixed-width layout, so
// the codec choice never changes what a decoded message contains. Any
// other id, including one an earlier version used, is a typed
// ParseError.
/// kPartitionBlock and kPartitionFragment body codecs: raw, or
/// delta-varint when it comes in under the raw size. Delta-varint stays
/// because it measurably saves memory: shipping every partition and
/// fragment raw raised the shard-proc benchmark's peak RSS from 60.1 to
/// 72.2 MiB, and fragments alone from 61.3 to 67.7 MiB.
inline constexpr uint8_t kCodecRaw = 0;
inline constexpr uint8_t kCodecDeltaVarint = 1;
/// Per-column rank codecs inside kTableBlock. Ranks are dense dictionary
/// codes in [0, cardinality), so small domains pack into one or two
/// bytes; larger domains ship raw i32. The selection is a pure function
/// of the cardinality. The narrow tiers stay because the serve-mix and
/// shard-proc benchmarks ship every table through them.
inline constexpr uint8_t kRankCodecRaw = 0;
inline constexpr uint8_t kRankCodecByte = 1;   // cardinality <= 2^8
inline constexpr uint8_t kRankCodecShort = 2;  // cardinality <= 2^16
/// kResultBatch flag bits; any other bit is a typed ParseError.
inline constexpr uint8_t kResultFlagFinalChunk = 0x01;

/// The frame checksum: HashWords (common/word_hash.h) over `size`
/// bytes. Any change confined to one 8-byte word of the payload, every
/// single-byte corruption included, always changes it.
uint64_t WireChecksum(const uint8_t* data, size_t size);

/// Raw vs. on-wire byte accounting for one or more frames:
/// `raw` is what the frame(s) would occupy with every codec forced to
/// raw (header included), `wire` is what actually crossed the channel.
/// Encoders and decoders compute identical values from the same message,
/// so the coordinator counts a frame at whichever end of the link it
/// sits, without trusting a number the runner reports.
struct CodecByteCounts {
  int64_t raw = 0;
  int64_t wire = 0;
  void Add(const CodecByteCounts& o) {
    raw += o.raw;
    wire += o.wire;
  }
};

/// Appends little-endian primitives to a growing payload, then seals the
/// payload into a framed message.
class WireWriter {
 public:
  void PutU8(uint8_t v) { payload_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  /// IEEE-754 bit pattern; exact round trip.
  void PutDouble(double v);
  /// LEB128: 7 value bits per byte, high bit = continuation.
  void PutVarint(uint64_t v);
  /// Zigzag-mapped varint for small signed values.
  void PutVarintI64(int64_t v);
  /// u64 count followed by the values.
  void PutI32Array(const std::vector<int32_t>& values);
  /// u64 byte length followed by the bytes.
  void PutString(const std::string& s);
  void PutBytes(const uint8_t* data, size_t size);

  const std::vector<uint8_t>& payload() const { return payload_; }

  /// Wraps the accumulated payload in a header (magic, version, `type`,
  /// size, checksum) and returns the complete frame, leaving the writer
  /// empty for reuse.
  std::vector<uint8_t> SealFrame(FrameType type);

 private:
  std::vector<uint8_t> payload_;
};

/// Bounds-checked reader over a decoded frame's payload. Every getter
/// returns ParseError instead of reading past the end.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status GetU8(uint8_t* v);
  Status GetU16(uint16_t* v);
  Status GetU32(uint32_t* v);
  Status GetU64(uint64_t* v);
  Status GetI32(int32_t* v);
  Status GetI64(int64_t* v);
  Status GetDouble(double* v);
  /// Rejects truncation and any encoding past 10 bytes / 64 value bits.
  Status GetVarint(uint64_t* v);
  Status GetVarintI64(int64_t* v);
  Status GetI32Array(std::vector<int32_t>* values);
  Status GetString(std::string* s);

  const uint8_t* cursor() const { return data_ + pos_; }
  size_t remaining() const { return size_ - pos_; }
  void Skip(size_t bytes) { pos_ += bytes; }
  bool AtEnd() const { return pos_ == size_; }
  /// Trailing bytes after the last expected field are a framing error.
  Status ExpectEnd() const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// A validated frame: type plus a payload view into the input buffer.
struct DecodedFrame {
  FrameType type = FrameType::kPartitionBlock;
  const uint8_t* payload = nullptr;
  size_t size = 0;
};

/// Validates magic, version, type (a retired or unknown id is a typed
/// ParseError), declared payload size and checksum.
/// The returned view aliases the input bytes, which must outlive it.
Result<DecodedFrame> DecodeFrame(const uint8_t* data, size_t size);
Result<DecodedFrame> DecodeFrame(const std::vector<uint8_t>& frame);

// ---------------------------------------------------------------------------
// Message vocabulary. One encode/decode pair per FrameType; decoders
// reject type mismatches and any structural violation. The coordinator
// accounts the raw/wire byte split of every seam frame at its own
// sites: encoders of the frames it ships, and decoders of the frames it
// receives (result batches, partition fragments), take an optional
// `counts` accumulator. The partition, fragment and table encoders also
// take `compress` (false forces raw); decoders accept either codec
// regardless, since frames are self-describing.

/// One candidate assigned to a shard. `slot` is the candidate's index in
/// the coordinator's flattened per-level array — results are keyed by it,
/// so shards can reply in any order and with any subset (deadline).
/// `target` is the RHS attribute for the target kinds (kOfd/kFd/kAfd);
/// the pair fields carry the kOc pair.
struct WireCandidate {
  uint64_t slot = 0;
  uint64_t context_bits = 0;
  DependencyKind kind = DependencyKind::kOc;
  int32_t target = -1;
  int32_t pair_a = -1;
  int32_t pair_b = -1;
  bool opposite = false;
};

/// One completed validation, shipped back to the coordinator. Doubles
/// carry exact bit patterns; `removal_rows` is empty unless the run
/// collects removal sets.
struct WireOutcome {
  uint64_t slot = 0;
  /// Echo of the candidate's kind; the coordinator cross-checks it
  /// against what it asked for at `slot` and aborts on a mismatch.
  DependencyKind kind = DependencyKind::kOc;
  bool valid = false;
  bool early_exit = false;
  int64_t removal_size = 0;
  double approx_factor = 0.0;
  double interestingness = 0.0;
  /// Validation CPU seconds (merged into summed-CPU stats; exempt from
  /// the determinism contract like every timing field).
  double seconds = 0.0;
  std::vector<int32_t> removal_rows;
};

/// One decoded kResultBatch frame: a chunk of a level's outcomes plus
/// whether it terminates the shard's reply for the level.
struct WireResultChunk {
  std::vector<WireOutcome> outcomes;
  bool final_chunk = true;
};

/// Ships delta-varint unless that body would reach the raw CSR size.
/// `compress` = false forces raw: the benchmark's codec replay calls both
/// values, and corruption sweeps use false to reach the raw decode branch.
std::vector<uint8_t> EncodePartitionBlock(AttributeSet set,
                                          const StrippedPartition& partition,
                                          bool compress = true,
                                          CodecByteCounts* counts = nullptr);
/// `num_rows` bounds the decoded row ids; the partition is additionally
/// validated for canonical form (see StrippedPartition::Deserialize) —
/// a compressed body is expanded back to the raw CSR bytes first, so
/// both codecs pass through exactly the same structural validation.
Result<std::pair<AttributeSet, StrippedPartition>> DecodePartitionBlock(
    const DecodedFrame& frame, int64_t num_rows);

/// Raw only: u64 count, then a 30-byte record per candidate. A
/// compressed body measured no time or memory win on the shard-proc
/// benchmark, only fewer bytes on a local socket.
std::vector<uint8_t> EncodeCandidateBatch(
    const std::vector<WireCandidate>& candidates,
    CodecByteCounts* counts = nullptr);
Result<std::vector<WireCandidate>> DecodeCandidateBatch(
    const DecodedFrame& frame);

/// Raw only, for the same reason as candidate batches: the flags byte
/// (kResultFlagFinalChunk is its one defined bit), u64 count, then per
/// outcome 51 fixed bytes plus its removal-row array.
std::vector<uint8_t> EncodeResultBatch(const std::vector<WireOutcome>& outcomes,
                                       bool final_chunk = true,
                                       CodecByteCounts* counts = nullptr);
Result<WireResultChunk> DecodeResultBatch(const DecodedFrame& frame,
                                          CodecByteCounts* counts = nullptr);

/// The shard-relevant validation configuration, flattened to wire-level
/// scalars so this module stays independent of od/. The coordinator
/// fills it from ShardRunnerOptions; shard_runner_main converts it back.
struct WireRunnerConfig {
  uint32_t shard_id = 0;
  /// ValidatorKind's underlying value; decoders reject anything > 2.
  uint8_t validator = 2;
  double epsilon = 0.1;
  bool collect_removal_sets = false;
  int64_t partition_memory_budget_bytes = 0;
  /// Worker threads for the runner's own pool (determinism does not
  /// depend on it).
  uint32_t num_threads = 1;
  /// DependencyKindSet::bits() of the kinds this runner must validate;
  /// decoders reject an empty or unknown-bit mask. The runner refuses
  /// candidate batches naming kinds outside this set.
  uint32_t kinds = DependencyKindSet::OdDefault().bits();
  /// AFD g1 threshold; decoders reject values outside [0, 1].
  double afd_error = 0.05;
  /// Row-space sharding: the contiguous row range [row_begin, row_end)
  /// this runner partitions. Both 0 (the default) means the runner is a
  /// candidate-space shard and serves the full lattice conversation;
  /// row_end > row_begin selects the fragment conversation instead
  /// (slice in, kPartitionFragment frames out). Decoders reject a
  /// negative begin or an end before the begin.
  int64_t row_begin = 0;
  int64_t row_end = 0;
};

std::vector<uint8_t> EncodeConfigBlock(const WireRunnerConfig& config);
Result<WireRunnerConfig> DecodeConfigBlock(const DecodedFrame& frame);

/// Rank-encoded columns only — names, cardinalities and the int32 rank
/// arrays. Dictionaries (raw values) never cross the shard seam:
/// validators are pure integer work, so the decoded table carries empty
/// dictionaries. Decoding validates every rank against its declared
/// cardinality and every column length against num_rows. Each column
/// carries its own rank codec byte (see kRankCodec*). `compress` =
/// false forces raw i32 columns — the branch high-cardinality columns
/// take in production, which corruption sweeps reach this way.
std::vector<uint8_t> EncodeTableBlock(const EncodedTable& table,
                                      bool compress = true,
                                      CodecByteCounts* counts = nullptr);
/// Rejects row slices ("table block is a row slice"): the candidate-space
/// bootstrap and the serve path need the whole table, and a partial
/// slice silently treated as one would corrupt every downstream
/// partition. Row-shard consumers use DecodeTableSlice.
Result<EncodedTable> DecodeTableBlock(const DecodedFrame& frame);

/// A decoded kTableBlock that may cover only [row_offset,
/// row_offset + table.num_rows()) of a total_rows-row table. The
/// columns' rank arrays hold just the slice, but cardinalities (and the
/// rank codec choice, a pure function of cardinality) are table-global,
/// which is what makes per-range partition fragments stitchable.
struct WireTableSlice {
  EncodedTable table;
  int64_t row_offset = 0;
  int64_t total_rows = 0;
};

/// Encodes rows [row_begin, row_end) of `table` as a kTableBlock slice.
/// EncodeTableBlock(t) == EncodeTableSlice(t, 0, t.num_rows()).
std::vector<uint8_t> EncodeTableSlice(const EncodedTable& table,
                                      int64_t row_begin, int64_t row_end,
                                      bool compress = true,
                                      CodecByteCounts* counts = nullptr);
/// Validates the slice framing (0 <= row_offset, row_offset + slice rows
/// <= total_rows) and every rank against its table-global cardinality
/// (itself bounded by total_rows, not the slice length).
Result<WireTableSlice> DecodeTableSlice(const DecodedFrame& frame);

/// One PartitionFragment (partition/partition_stitch.h) as a checksummed
/// frame: attribute, row range, then a codec byte over the fragment body
/// — kCodecRaw (PartitionFragment::SerializeTo bytes) or
/// kCodecDeltaVarint (rank deltas, class sizes, first-row-delta + in-
/// class gaps; bails to raw past the raw size). A compressed body is
/// expanded back to the raw bytes before the shared
/// PartitionFragment::Deserialize validation gate. `compress` = false
/// forces the raw branch that incompressible fragments take in
/// production, so corruption sweeps can reach it.
std::vector<uint8_t> EncodePartitionFragment(const PartitionFragment& fragment,
                                             bool compress = true,
                                             CodecByteCounts* counts = nullptr);
/// `num_rows` is the full table's row count bounding the fragment range.
Result<PartitionFragment> DecodePartitionFragment(
    const DecodedFrame& frame, int64_t num_rows,
    CodecByteCounts* counts = nullptr);

/// An empty-payload kShutdown frame.
std::vector<uint8_t> EncodeShutdown();

/// The per-shard DiscoveryStats counters a runner reports in its
/// terminal frame. Doubles are timing (exempt from the determinism
/// contract); the integer counters are pure functions of the batches
/// the shard served.
struct ShardStatsFooter {
  uint32_t shard_id = 0;
  /// Frames the runner served after its bootstrap (bases + batches +
  /// shutdown) — a cheap conversation-length cross-check for the
  /// coordinator.
  int64_t frames_served = 0;
  int64_t products_computed = 0;
  /// PartitionCache's planner counters (see DiscoveryStats).
  int64_t planner_derivations = 0;
  int64_t planner_cost_estimated = 0;
  int64_t planner_cost_realized = 0;
  int64_t partitions_evicted = 0;
  int64_t partition_bytes_evicted = 0;
  int64_t partition_bytes_final = 0;
  int64_t partition_bytes_peak = 0;
  double partition_seconds = 0.0;
};

std::vector<uint8_t> EncodeStatsFooter(const ShardStatsFooter& footer);
Result<ShardStatsFooter> DecodeStatsFooter(const DecodedFrame& frame);

}  // namespace shard
}  // namespace aod

#endif  // AOD_SHARD_WIRE_H_
