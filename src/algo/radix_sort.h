// LSD radix sort over a bit field of unsigned integer keys: the one sort
// kernel behind the partition product's canonical class-order restore and
// the OC validators' class ordering (od/class_order).
#ifndef AOD_ALGO_RADIX_SORT_H_
#define AOD_ALGO_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace aod {

/// Stably sorts `keys` by the bit field [lo_bit, hi_bit), least significant
/// `kDigitBits`-bit digit first; `tmp` is the second buffer (resized as
/// needed). Bits at and above `hi_bit` must be zero. Bits below `lo_bit`
/// ride along unsorted, so a payload packed there (a class index, say)
/// keeps its key's input order among equal fields. One counting pass
/// builds every digit's histogram; a digit on which all keys agree is
/// skipped, so keys that share their high bits pay only for the bits that
/// vary.
template <int kDigitBits, typename Key>
void RadixSort(std::vector<Key>& keys, std::vector<Key>& tmp, int lo_bit,
               int hi_bit) {
  static_assert(std::is_unsigned_v<Key>);
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr Key kMask = static_cast<Key>(kBuckets - 1);
  constexpr int kMaxDigits =
      (static_cast<int>(sizeof(Key)) * 8 + kDigitBits - 1) / kDigitBits;
  const int digits = (hi_bit - lo_bit + kDigitBits - 1) / kDigitBits;
  const size_t n = keys.size();
  if (n < 2 || digits <= 0) return;
  // Only the digits in use are cleared: at 11-bit digits over 64-bit keys
  // the full table is 48 KiB.
  std::array<std::array<uint32_t, kBuckets>, kMaxDigits> counts;
  for (int d = 0; d < digits; ++d) counts[d].fill(0);
  for (Key k : keys) {
    for (int d = 0; d < digits; ++d) {
      ++counts[d][(k >> (lo_bit + d * kDigitBits)) & kMask];
    }
  }
  tmp.resize(n);
  Key* src = keys.data();
  Key* dst = tmp.data();
  for (int d = 0; d < digits; ++d) {
    const int shift = lo_bit + d * kDigitBits;
    auto& count = counts[d];
    if (count[(src[0] >> shift) & kMask] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : count) {
      const uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(src[i] >> shift) & kMask]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) keys.swap(tmp);
}

}  // namespace aod

#endif  // AOD_ALGO_RADIX_SORT_H_
