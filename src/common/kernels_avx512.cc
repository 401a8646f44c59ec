// AVX-512 kernel table. Compiled with F+BW+VL+DQ+VPOPCNTDQ per-file
// flags (CMakeLists.txt); kernels.cc only hands this table out when the
// running CPU reports all five features, so VPOPCNTDQ is used
// unconditionally here (Ice Lake and later; Skylake-X falls back to the
// AVX2 table). Same ODR rule as the AVX2 file: no project headers beyond
// kernels_internal.h.
//
// Relative to AVX2 the wins are structural: native 64-bit popcount
// (VPOPCNTDQ) replaces the whole Harley–Seal tree, masked loads make
// word tails branch-free in-vector (no scalar fallback on the popcount
// kernels), native 64-bit mullo (DQ) shortens the hash lanes, and
// compare-into-mask packs extraction bits without the movemask dance.

#include "common/kernels_internal.h"

#if defined(VOS_KERNELS_AVX512)

#include <immintrin.h>

namespace vos::kernels::internal {
namespace {

inline __m512i LoadXor(const uint64_t* a, const uint64_t* b, size_t i) {
  return _mm512_xor_si512(_mm512_loadu_si512(a + i),
                          _mm512_loadu_si512(b + i));
}

/// Tail mask selecting the low `n` (< 8) lanes.
inline __mmask8 TailMask(size_t n) {
  return static_cast<__mmask8>((1u << n) - 1);
}

// --------------------------------------------------------------- popcounts

size_t Avx512XorPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  __m512i acc0 = _mm512_setzero_si512();
  __m512i acc1 = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(LoadXor(a, b, i)));
    acc1 = _mm512_add_epi64(acc1, _mm512_popcnt_epi64(LoadXor(a, b, i + 8)));
  }
  if (i + 8 <= n) {
    acc0 = _mm512_add_epi64(acc0, _mm512_popcnt_epi64(LoadXor(a, b, i)));
    i += 8;
  }
  if (i < n) {
    const __mmask8 mask = TailMask(n - i);
    acc1 = _mm512_add_epi64(
        acc1, _mm512_popcnt_epi64(
                  _mm512_xor_si512(_mm512_maskz_loadu_epi64(mask, a + i),
                                   _mm512_maskz_loadu_epi64(mask, b + i))));
  }
  return static_cast<size_t>(
      _mm512_reduce_add_epi64(_mm512_add_epi64(acc0, acc1)));
}

void Avx512XorPopcount8(const uint64_t* a, const uint64_t* b_base,
                        size_t stride, size_t n, size_t out[8]) {
  __m512i acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a_vec = _mm512_loadu_si512(a + i);
    for (int t = 0; t < 8; ++t) {
      const __m512i b_vec = _mm512_loadu_si512(b_base + t * stride + i);
      acc[t] = _mm512_add_epi64(
          acc[t], _mm512_popcnt_epi64(_mm512_xor_si512(a_vec, b_vec)));
    }
  }
  if (i < n) {
    const __mmask8 mask = TailMask(n - i);
    const __m512i a_vec = _mm512_maskz_loadu_epi64(mask, a + i);
    for (int t = 0; t < 8; ++t) {
      const __m512i b_vec =
          _mm512_maskz_loadu_epi64(mask, b_base + t * stride + i);
      acc[t] = _mm512_add_epi64(
          acc[t], _mm512_popcnt_epi64(_mm512_xor_si512(a_vec, b_vec)));
    }
  }
  for (int t = 0; t < 8; ++t) {
    out[t] = static_cast<size_t>(_mm512_reduce_add_epi64(acc[t]));
  }
}

void Avx512XorPopcount2x4(const uint64_t* a0, const uint64_t* a1,
                          const uint64_t* b_base, size_t stride, size_t n,
                          size_t out[8]) {
  __m512i acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i a0_vec = _mm512_loadu_si512(a0 + i);
    const __m512i a1_vec = _mm512_loadu_si512(a1 + i);
    for (int t = 0; t < 4; ++t) {
      const __m512i b_vec = _mm512_loadu_si512(b_base + t * stride + i);
      acc[t] = _mm512_add_epi64(
          acc[t], _mm512_popcnt_epi64(_mm512_xor_si512(a0_vec, b_vec)));
      acc[4 + t] = _mm512_add_epi64(
          acc[4 + t], _mm512_popcnt_epi64(_mm512_xor_si512(a1_vec, b_vec)));
    }
  }
  if (i < n) {
    const __mmask8 mask = TailMask(n - i);
    const __m512i a0_vec = _mm512_maskz_loadu_epi64(mask, a0 + i);
    const __m512i a1_vec = _mm512_maskz_loadu_epi64(mask, a1 + i);
    for (int t = 0; t < 4; ++t) {
      const __m512i b_vec =
          _mm512_maskz_loadu_epi64(mask, b_base + t * stride + i);
      acc[t] = _mm512_add_epi64(
          acc[t], _mm512_popcnt_epi64(_mm512_xor_si512(a0_vec, b_vec)));
      acc[4 + t] = _mm512_add_epi64(
          acc[4 + t], _mm512_popcnt_epi64(_mm512_xor_si512(a1_vec, b_vec)));
    }
  }
  for (int t = 0; t < 8; ++t) {
    out[t] = static_cast<size_t>(_mm512_reduce_add_epi64(acc[t]));
  }
}

size_t Avx512PopcountWords(const uint64_t* a, size_t n) {
  __m512i acc = _mm512_setzero_si512();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_loadu_si512(a + i)));
  }
  if (i < n) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(
                 _mm512_maskz_loadu_epi64(TailMask(n - i), a + i)));
  }
  return static_cast<size_t>(_mm512_reduce_add_epi64(acc));
}

// ------------------------------------------------------------- 64-bit hash

/// High 64 bits of a·b per lane (no native instruction even on AVX-512):
/// same exact cross-term assembly as the AVX2 file, 8 lanes wide.
inline __m512i MulHi64(__m512i a, __m512i b) {
  const __m512i mask32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i a_hi = _mm512_srli_epi64(a, 32);
  const __m512i b_hi = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, b_hi);
  const __m512i hl = _mm512_mul_epu32(a_hi, b);
  const __m512i hh = _mm512_mul_epu32(a_hi, b_hi);
  const __m512i carry = _mm512_srli_epi64(
      _mm512_add_epi64(_mm512_add_epi64(_mm512_srli_epi64(ll, 32),
                                        _mm512_and_si512(lh, mask32)),
                       _mm512_and_si512(hl, mask32)),
      32);
  return _mm512_add_epi64(
      _mm512_add_epi64(hh, carry),
      _mm512_add_epi64(_mm512_srli_epi64(lh, 32), _mm512_srli_epi64(hl, 32)));
}

/// hash::Mix64, 8 lanes (native 64-bit mullo via AVX-512DQ).
inline __m512i Mix64Lanes(__m512i x) {
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  x = _mm512_mullo_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(kMix64Mul1)));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  x = _mm512_mullo_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(kMix64Mul2)));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  return x;
}

/// hash::Mix64V2, 8 lanes.
inline __m512i Mix64V2Lanes(__m512i x) {
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 30));
  x = _mm512_mullo_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(kMix64V2Mul1)));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 27));
  x = _mm512_mullo_epi64(
      x, _mm512_set1_epi64(static_cast<long long>(kMix64V2Mul2)));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
  return x;
}

// --------------------------------------------------------------- extraction

void Avx512ExtractBits(const uint64_t* array_words, const uint64_t* seeds,
                       uint32_t k, uint64_t user, uint64_t m, uint64_t* dst,
                       uint32_t* cells) {
  const __m512i user_vec = _mm512_set1_epi64(static_cast<long long>(user));
  const __m512i golden = _mm512_set1_epi64(static_cast<long long>(kGolden));
  const __m512i m_vec = _mm512_set1_epi64(static_cast<long long>(m));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i low6 = _mm512_set1_epi64(63);
  uint64_t word = 0;
  uint32_t j = 0;
  for (; j + 8 <= k; j += 8) {
    const __m512i seed_vec = _mm512_loadu_si512(seeds + j);
    __m512i h = _mm512_xor_si512(user_vec,
                                 _mm512_mullo_epi64(seed_vec, golden));
    h = Mix64V2Lanes(_mm512_add_epi64(Mix64Lanes(h), seed_vec));
    const __m512i cell = MulHi64(h, m_vec);
    if (cells != nullptr) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(cells + j),
                          _mm512_cvtepi64_epi32(cell));
    }
    const __m512i gathered =
        _mm512_i64gather_epi64(_mm512_srli_epi64(cell, 6), array_words, 8);
    // Lane t's digest bit, tested straight into a mask register: bit t
    // of the mask is ((gathered >> (cell & 63)) & 1).
    const __mmask8 lane_mask = _mm512_test_epi64_mask(
        _mm512_srlv_epi64(gathered, _mm512_and_si512(cell, low6)), one);
    word |= static_cast<uint64_t>(lane_mask) << (j & 63);
    if ((j & 63) == 56) {
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

void Avx512RouteBatch(const uint32_t* users, size_t n, uint64_t seed_mix,
                      uint32_t num_shards, const uint32_t* local_of,
                      uint16_t* shards, uint32_t* locals) {
  const __m512i mix_vec = _mm512_set1_epi64(static_cast<long long>(seed_mix));
  const __m512i shards_vec =
      _mm512_set1_epi64(static_cast<long long>(num_shards));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i u32x8 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(users + i));
    const __m512i u64x8 = _mm512_cvtepu32_epi64(u32x8);
    const __m512i h = Mix64Lanes(_mm512_xor_si512(u64x8, mix_vec));
    // ReduceToRange for num_shards < 2^32:
    // (h_hi·S + ((h_lo·S) >> 32)) >> 32.
    const __m512i hi_s =
        _mm512_mul_epu32(_mm512_srli_epi64(h, 32), shards_vec);
    const __m512i lo_s = _mm512_mul_epu32(h, shards_vec);
    const __m512i shard = _mm512_srli_epi64(
        _mm512_add_epi64(hi_s, _mm512_srli_epi64(lo_s, 32)), 32);
    // shard < num_shards ≤ 0xffff, so the 64→16 narrowing is lossless.
    _mm_storeu_si128(reinterpret_cast<__m128i*>(shards + i),
                     _mm512_cvtepi64_epi16(shard));
    if (local_of != nullptr) {
      const __m256i gathered = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(local_of), u32x8, 4);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(locals + i), gathered);
    }
  }
  if (i < n) {
    ScalarRouteBatch(users + i, n - i, seed_mix, num_shards, local_of,
                     shards + i, locals == nullptr ? nullptr : locals + i);
  }
}

constexpr KernelTable kAvx512Table = {
    Avx512XorPopcount,
    Avx512XorPopcount8,
    Avx512XorPopcount2x4,
    Avx512PopcountWords,
    Avx512ExtractBits,
    Avx512RouteBatch,
    DispatchLevel::kAvx512,
    "avx512",
};

}  // namespace

const KernelTable* Avx512Kernels() { return &kAvx512Table; }

}  // namespace vos::kernels::internal

#else  // !VOS_KERNELS_AVX512

namespace vos::kernels::internal {
const KernelTable* Avx512Kernels() { return nullptr; }
}  // namespace vos::kernels::internal

#endif
