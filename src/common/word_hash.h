// Word-wise hashing shared by the wire frame checksum (shard/wire.h) and
// the serve table digest (serve/table_cache.h).
//
// Both fold their input eight bytes at a time through MixWord. For a
// fixed word the step is a bijection in the state (xor, multiply by an
// odd constant and rotate each are), and for a fixed state it is a
// bijection in the word. So two inputs of the same length that differ
// inside exactly one word always hash differently: the step that
// absorbs that word leaves different states, and every later step maps
// different states to different states. Every single-byte corruption of
// a frame payload is therefore detected, not just detected with high
// probability.
#ifndef AOD_COMMON_WORD_HASH_H_
#define AOD_COMMON_WORD_HASH_H_

#include <cstddef>
#include <cstdint>

namespace aod {

/// One absorption step: state `h` takes in word `w`.
inline uint64_t MixWord(uint64_t h, uint64_t w) {
  h ^= w;
  h *= 0x9E3779B97F4A7C15ULL;
  return (h << 31) | (h >> 33);
}

/// Hashes `size` bytes as little-endian words in four interleaved lanes
/// (so the multiply chains overlap), folds the lanes and the tail words
/// through MixWord, then the byte count, and ends in a bijective
/// avalanche. Distinct `seed`s give independent-looking functions.
uint64_t HashWords(uint64_t seed, const uint8_t* data, size_t size);

/// A 128-bit digest: two 64-bit folds under different seeds (see
/// serve::TableDigest).
struct Digest128 {
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool operator==(const Digest128& o) const {
    return lo == o.lo && hi == o.hi;
  }
  bool operator!=(const Digest128& o) const { return !(*this == o); }
};

struct Digest128Hash {
  size_t operator()(const Digest128& d) const {
    return static_cast<size_t>(d.lo);
  }
};

}  // namespace aod

#endif  // AOD_COMMON_WORD_HASH_H_
