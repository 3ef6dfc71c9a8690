// Little-endian fixed-width byte primitives.
//
// Shared by every serializer in the tree — the partition CSR encoding
// (partition/stripped_partition.cc) and the shard wire codec
// (shard/wire.cc) — so the two byte formats cannot drift apart by each
// hand-rolling its own integer packing. Append* grows a byte vector,
// Store*/Load* work on raw pointers the caller has bounds-checked, and
// Read* are cursor-advancing bounded reads that return false instead of
// reading past the end.
#ifndef AOD_COMMON_ENDIAN_H_
#define AOD_COMMON_ENDIAN_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace aod {
namespace endian {

inline void StoreU16(uint8_t* out, uint16_t v) {
  out[0] = static_cast<uint8_t>(v & 0xff);
  out[1] = static_cast<uint8_t>((v >> 8) & 0xff);
}

inline void StoreU32(uint8_t* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
  }
}

inline void StoreU64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>((v >> (8 * i)) & 0xff);
  }
}

inline uint16_t LoadU16(const uint8_t* in) {
  return static_cast<uint16_t>(in[0] | (in[1] << 8));
}

// On a little-endian host the wire layout is the native one, so the
// loads are one memcpy: the compiler does not reliably fold the
// portable byte loop into a single load, and the frame checksum reads
// every payload word through LoadU64.
inline uint32_t LoadU32(const uint8_t* in) {
  uint32_t v = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(&v, in, sizeof(v));
#else
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(in[i]) << (8 * i);
#endif
  return v;
}

inline uint64_t LoadU64(const uint8_t* in) {
  uint64_t v = 0;
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  std::memcpy(&v, in, sizeof(v));
#else
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(in[i]) << (8 * i);
#endif
  return v;
}

inline void AppendU16(std::vector<uint8_t>* out, uint16_t v) {
  const size_t at = out->size();
  out->resize(at + 2);
  StoreU16(out->data() + at, v);
}

inline void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t at = out->size();
  out->resize(at + 4);
  StoreU32(out->data() + at, v);
}

inline void AppendU64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t at = out->size();
  out->resize(at + 8);
  StoreU64(out->data() + at, v);
}

inline void AppendI32(std::vector<uint8_t>* out, int32_t v) {
  AppendU32(out, static_cast<uint32_t>(v));
}

/// Bounded cursor-advancing reads; `*pos` moves only on success.
/// Precondition: *pos <= size (holds when pos only advances this way).
inline bool ReadU64(const uint8_t* data, size_t size, size_t* pos,
                    uint64_t* v) {
  if (size - *pos < 8) return false;
  *v = LoadU64(data + *pos);
  *pos += 8;
  return true;
}

inline bool ReadI32(const uint8_t* data, size_t size, size_t* pos,
                    int32_t* v) {
  if (size - *pos < 4) return false;
  *v = static_cast<int32_t>(LoadU32(data + *pos));
  *pos += 4;
  return true;
}

}  // namespace endian
}  // namespace aod

#endif  // AOD_COMMON_ENDIAN_H_
