#include "common/word_hash.h"

#include "common/endian.h"

namespace aod {

namespace {

/// Murmur3's fmix64: xor-shifts and odd multiplies, each a bijection.
uint64_t Avalanche(uint64_t h) {
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

uint64_t HashWords(uint64_t seed, const uint8_t* data, size_t size) {
  uint64_t l0 = seed;
  uint64_t l1 = seed + 0x632BE59BD9B4E019ULL;
  uint64_t l2 = seed + 0x85EBCA77C2B2AE63ULL;
  uint64_t l3 = seed + 0xC2B2AE3D27D4EB4FULL;
  size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    l0 = MixWord(l0, endian::LoadU64(data + i));
    l1 = MixWord(l1, endian::LoadU64(data + i + 8));
    l2 = MixWord(l2, endian::LoadU64(data + i + 16));
    l3 = MixWord(l3, endian::LoadU64(data + i + 24));
  }
  // MixWord is a bijection in either argument, so each lane survives the
  // fold: a change confined to one lane changes the folded state.
  uint64_t h = MixWord(MixWord(MixWord(l0, l1), l2), l3);
  for (; i + 8 <= size; i += 8) h = MixWord(h, endian::LoadU64(data + i));
  if (i < size) {
    uint64_t tail = 0;
    for (size_t k = 0; i + k < size; ++k) {
      tail |= static_cast<uint64_t>(data[i + k]) << (8 * k);
    }
    h = MixWord(h, tail);
  }
  return Avalanche(MixWord(h, static_cast<uint64_t>(size)));
}

}  // namespace aod
