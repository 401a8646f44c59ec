// AVX2 kernel table. Compiled with -mavx2 -mpopcnt (per-file flags in
// CMakeLists.txt); everything here must stay behind the runtime probe in
// kernels.cc, so this file includes no project headers beyond the
// declaration-only kernels_internal.h — see the ODR note there.
//
// Popcounts use the Harley–Seal carry-save tree over 16-vector (64-word)
// blocks with the Muła nibble-LUT byte popcount underneath — one
// PopcountBytes per 4 words in the steady state instead of four. Hashing
// kernels run 4 lanes of 64-bit arithmetic per vector; 64-bit multiplies
// (AVX2 has none) are assembled from _mm256_mul_epu32 cross terms, exact
// mod 2^64 for Mullo64 and exact full-width for MulHi64 (each partial
// sum stays below 2^64, so no carries are lost). Ragged tails (n % lane
// count) always fall through to the Scalar* reference kernels.

#include "common/kernels_internal.h"

#if defined(VOS_KERNELS_AVX2)

#include <immintrin.h>

namespace vos::kernels::internal {
namespace {

// ------------------------------------------------------------ popcount core

/// Per-byte popcount of v (Muła): nibble LUT via PSHUFB, high + low.
inline __m256i PopcountBytes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Per-64-bit-lane popcount of v.
inline __m256i PopcountLanes(__m256i v) {
  return _mm256_sad_epu8(PopcountBytes(v), _mm256_setzero_si256());
}

/// Sum of the four 64-bit lanes.
inline size_t HorizontalSum(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<size_t>(_mm_cvtsi128_si64(sum)) +
         static_cast<size_t>(_mm_extract_epi64(sum, 1));
}

/// Carry-save adder: {h, l} = a + b + c per bit position.
inline void Csa(__m256i& h, __m256i& l, __m256i a, __m256i b, __m256i c) {
  const __m256i u = _mm256_xor_si256(a, b);
  h = _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c));
  l = _mm256_xor_si256(u, c);
}

inline __m256i LoadXor(const uint64_t* a, const uint64_t* b, size_t i) {
  return _mm256_xor_si256(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)),
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i)));
}

// --------------------------------------------------------------- popcounts

size_t Avx2XorPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  __m256i total = _mm256_setzero_si256();
  size_t i = 0;

  // Harley–Seal over 64-word blocks: 16 input vectors compress through a
  // CSA tree into one "sixteens" vector per block plus carried
  // ones/twos/fours/eights, so the expensive PopcountBytes runs once per
  // 16 vectors.
  if (n >= 64) {
    __m256i ones = _mm256_setzero_si256();
    __m256i twos = _mm256_setzero_si256();
    __m256i fours = _mm256_setzero_si256();
    __m256i eights = _mm256_setzero_si256();
    for (; i + 64 <= n; i += 64) {
      __m256i twos_a, twos_b, fours_a, fours_b, eights_a, eights_b, sixteens;
      Csa(twos_a, ones, ones, LoadXor(a, b, i), LoadXor(a, b, i + 4));
      Csa(twos_b, ones, ones, LoadXor(a, b, i + 8), LoadXor(a, b, i + 12));
      Csa(fours_a, twos, twos, twos_a, twos_b);
      Csa(twos_a, ones, ones, LoadXor(a, b, i + 16), LoadXor(a, b, i + 20));
      Csa(twos_b, ones, ones, LoadXor(a, b, i + 24), LoadXor(a, b, i + 28));
      Csa(fours_b, twos, twos, twos_a, twos_b);
      Csa(eights_a, fours, fours, fours_a, fours_b);
      Csa(twos_a, ones, ones, LoadXor(a, b, i + 32), LoadXor(a, b, i + 36));
      Csa(twos_b, ones, ones, LoadXor(a, b, i + 40), LoadXor(a, b, i + 44));
      Csa(fours_a, twos, twos, twos_a, twos_b);
      Csa(twos_a, ones, ones, LoadXor(a, b, i + 48), LoadXor(a, b, i + 52));
      Csa(twos_b, ones, ones, LoadXor(a, b, i + 56), LoadXor(a, b, i + 60));
      Csa(fours_b, twos, twos, twos_a, twos_b);
      Csa(eights_b, fours, fours, fours_a, fours_b);
      Csa(sixteens, eights, eights, eights_a, eights_b);
      total = _mm256_add_epi64(total, PopcountLanes(sixteens));
    }
    total = _mm256_slli_epi64(total, 4);
    total = _mm256_add_epi64(total,
                             _mm256_slli_epi64(PopcountLanes(eights), 3));
    total = _mm256_add_epi64(total,
                             _mm256_slli_epi64(PopcountLanes(fours), 2));
    total = _mm256_add_epi64(total,
                             _mm256_slli_epi64(PopcountLanes(twos), 1));
    total = _mm256_add_epi64(total, PopcountLanes(ones));
  }

  for (; i + 4 <= n; i += 4) {
    total = _mm256_add_epi64(total, PopcountLanes(LoadXor(a, b, i)));
  }
  size_t count = HorizontalSum(total);
  if (i < n) count += ScalarXorPopcount(a + i, b + i, n - i);
  return count;
}

void Avx2XorPopcount8(const uint64_t* a, const uint64_t* b_base, size_t stride,
                      size_t n, size_t out[8]) {
  __m256i acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a_vec =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    for (int t = 0; t < 8; ++t) {
      const __m256i b_vec = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b_base + t * stride + i));
      acc[t] = _mm256_add_epi64(
          acc[t], PopcountLanes(_mm256_xor_si256(a_vec, b_vec)));
    }
  }
  for (int t = 0; t < 8; ++t) out[t] = HorizontalSum(acc[t]);
  if (i < n) {
    for (int t = 0; t < 8; ++t) {
      out[t] += ScalarXorPopcount(a + i, b_base + t * stride + i, n - i);
    }
  }
}

void Avx2XorPopcount2x4(const uint64_t* a0, const uint64_t* a1,
                        const uint64_t* b_base, size_t stride, size_t n,
                        size_t out[8]) {
  __m256i acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a0_vec =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + i));
    const __m256i a1_vec =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + i));
    for (int t = 0; t < 4; ++t) {
      const __m256i b_vec = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(b_base + t * stride + i));
      acc[t] = _mm256_add_epi64(
          acc[t], PopcountLanes(_mm256_xor_si256(a0_vec, b_vec)));
      acc[4 + t] = _mm256_add_epi64(
          acc[4 + t], PopcountLanes(_mm256_xor_si256(a1_vec, b_vec)));
    }
  }
  for (int t = 0; t < 8; ++t) out[t] = HorizontalSum(acc[t]);
  if (i < n) {
    for (int t = 0; t < 4; ++t) {
      out[t] += ScalarXorPopcount(a0 + i, b_base + t * stride + i, n - i);
      out[4 + t] += ScalarXorPopcount(a1 + i, b_base + t * stride + i, n - i);
    }
  }
}

size_t Avx2PopcountWords(const uint64_t* a, size_t n) {
  __m256i total = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    total = _mm256_add_epi64(
        total, PopcountLanes(_mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(a + i))));
  }
  size_t count = HorizontalSum(total);
  if (i < n) count += ScalarPopcountWords(a + i, n - i);
  return count;
}

// ------------------------------------------------------------- 64-bit hash

/// a·b mod 2^64 per lane (AVX2 has no 64-bit multiply): lo·lo plus the
/// two 32-bit cross terms shifted up.
inline __m256i Mullo64(__m256i a, __m256i b) {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lo_lo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo_lo, _mm256_slli_epi64(cross, 32));
}

/// High 64 bits of a·b per lane, exact: four 32×32 partial products with
/// the low-half carry folded in. Every partial sum is < 2^64.
inline __m256i MulHi64(__m256i a, __m256i b) {
  const __m256i mask32 = _mm256_set1_epi64x(0xffffffffLL);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);
  const __m256i lh = _mm256_mul_epu32(a, b_hi);
  const __m256i hl = _mm256_mul_epu32(a_hi, b);
  const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);
  const __m256i carry = _mm256_srli_epi64(
      _mm256_add_epi64(_mm256_add_epi64(_mm256_srli_epi64(ll, 32),
                                        _mm256_and_si256(lh, mask32)),
                       _mm256_and_si256(hl, mask32)),
      32);
  return _mm256_add_epi64(
      _mm256_add_epi64(hh, carry),
      _mm256_add_epi64(_mm256_srli_epi64(lh, 32), _mm256_srli_epi64(hl, 32)));
}

/// hash::Mix64, 4 lanes (murmur3 finalizer).
inline __m256i Mix64Lanes(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mullo64(x, _mm256_set1_epi64x(static_cast<long long>(kMix64Mul1)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mullo64(x, _mm256_set1_epi64x(static_cast<long long>(kMix64Mul2)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

/// hash::Mix64V2, 4 lanes (splitmix64 Mix13 finalizer).
inline __m256i Mix64V2Lanes(__m256i x) {
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 30));
  x = Mullo64(x, _mm256_set1_epi64x(static_cast<long long>(kMix64V2Mul1)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
  x = Mullo64(x, _mm256_set1_epi64x(static_cast<long long>(kMix64V2Mul2)));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
  return x;
}

// --------------------------------------------------------------- extraction

void Avx2ExtractBits(const uint64_t* array_words, const uint64_t* seeds,
                     uint32_t k, uint64_t user, uint64_t m, uint64_t* dst,
                     uint32_t* cells) {
  const __m256i user_vec = _mm256_set1_epi64x(static_cast<long long>(user));
  const __m256i golden = _mm256_set1_epi64x(static_cast<long long>(kGolden));
  const __m256i m_vec = _mm256_set1_epi64x(static_cast<long long>(m));
  const __m256i bit_mask = _mm256_set1_epi64x(1);
  uint64_t word = 0;
  uint32_t j = 0;
  for (; j + 4 <= k; j += 4) {
    const __m256i seed_vec =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(seeds + j));
    // hash::Hash64(user, seed) = Mix64V2(Mix64(user ^ seed·φ) + seed).
    __m256i h = _mm256_xor_si256(user_vec, Mullo64(seed_vec, golden));
    h = Mix64V2Lanes(_mm256_add_epi64(Mix64Lanes(h), seed_vec));
    // hash::ReduceToRange: cell = (h·m) >> 64.
    const __m256i cell = MulHi64(h, m_vec);
    if (cells != nullptr) {
      alignas(32) uint64_t cell_lanes[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(cell_lanes), cell);
      for (int t = 0; t < 4; ++t) {
        cells[j + t] = static_cast<uint32_t>(cell_lanes[t]);
      }
    }
    const __m256i gathered = _mm256_i64gather_epi64(
        reinterpret_cast<const long long*>(array_words),
        _mm256_srli_epi64(cell, 6), 8);
    const __m256i bits = _mm256_and_si256(
        _mm256_srlv_epi64(gathered, _mm256_and_si256(cell, _mm256_set1_epi64x(63))),
        bit_mask);
    // Pack the four 0/1 lanes into bits (j&63)..(j&63)+3 of the output
    // word: lane bit 0 → sign bit → movemask.
    const int lane_mask =
        _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_slli_epi64(bits, 63)));
    word |= static_cast<uint64_t>(lane_mask) << (j & 63);
    if ((j & 63) == 60) {
      *dst++ = word;
      word = 0;
    }
  }
  for (; j < k; ++j) {
    const uint64_t cell = ScalarCellOf(user, seeds[j], m);
    if (cells != nullptr) cells[j] = static_cast<uint32_t>(cell);
    word |= ((array_words[cell >> 6] >> (cell & 63)) & 1) << (j & 63);
    if ((j & 63) == 63) {
      *dst++ = word;
      word = 0;
    }
  }
  if ((k & 63) != 0) *dst = word;
}

// ------------------------------------------------------------------ routing

// Routing stays scalar at the AVX2 level: Mix64 is two 64-bit multiplies
// per user, and AVX2 has no 64-bit multiply — the three-pmuludq emulation
// plus lane widening measured consistently SLOWER than the scalar loop
// (~0.85× on micro_ingest_path's routing phase), so vectorizing here
// would regress the ingest hot path on AVX2-only machines. AVX-512 has
// native vpmullq and keeps its vector implementation.

constexpr KernelTable kAvx2Table = {
    Avx2XorPopcount,
    Avx2XorPopcount8,
    Avx2XorPopcount2x4,
    Avx2PopcountWords,
    Avx2ExtractBits,
    ScalarRouteBatch,  // see the routing note above: scalar wins on AVX2
    DispatchLevel::kAvx2,
    "avx2",
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }

}  // namespace vos::kernels::internal

#else  // !VOS_KERNELS_AVX2

namespace vos::kernels::internal {
const KernelTable* Avx2Kernels() { return nullptr; }
}  // namespace vos::kernels::internal

#endif
