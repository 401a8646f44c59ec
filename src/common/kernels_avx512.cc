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
// kernels), and native 64-bit mullo (DQ) shortens the routing hash lanes.
// Digest extraction has no AVX-512 body: the table points at the AVX2
// kernel, which won on the one AVX-512 host measured
// (kernels_internal.h).

#include "common/kernels_internal.h"

#if defined(VOS_KERNELS_AVX512)

// GCC 12's avx512fintrin.h seeds _mm512_undefined_* values by
// self-initialization, so every shuffle, unpack, convert and shift that
// inlines one draws -Wuninitialized/-Wmaybe-uninitialized inside the
// header. The warnings are located in the header, so silencing them over
// the include alone keeps this file's own code fully checked. Clang
// lacks -Wmaybe-uninitialized and does not warn here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

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

/// Lane l of the result is x's and y's lanes 2l and 2l+1 summed pairwise:
/// each 128-bit lane holds (x part-sum, y part-sum).
inline __m512i SumPairs(__m512i x, __m512i y) {
  return _mm512_add_epi64(_mm512_unpacklo_epi64(x, y),
                          _mm512_unpackhi_epi64(x, y));
}

/// Adds neighbouring 128-bit lanes: result lanes (x.0+x.1, x.2+x.3,
/// y.0+y.1, y.2+y.3) in 128-bit units.
inline __m512i Fold(__m512i x, __m512i y) {
  return _mm512_add_epi64(
      _mm512_shuffle_i64x2(x, y, _MM_SHUFFLE(2, 0, 2, 0)),
      _mm512_shuffle_i64x2(x, y, _MM_SHUFFLE(3, 1, 3, 1)));
}

/// Transposed reduction: lane j of the result is the sum of v_j's eight
/// lanes. Four SumPairs and three Folds (14 shuffles, 7 adds) replace
/// eight _mm512_reduce_add_epi64 trees. The accumulators are passed by
/// value so they stay in registers.
inline __m512i ReduceEight(__m512i v0, __m512i v1, __m512i v2, __m512i v3,
                           __m512i v4, __m512i v5, __m512i v6, __m512i v7) {
  return Fold(Fold(SumPairs(v0, v1), SumPairs(v2, v3)),
              Fold(SumPairs(v4, v5), SumPairs(v6, v7)));
}

// Both multi-pair kernels store a reduced vector straight into `out`.
static_assert(sizeof(size_t) == sizeof(uint64_t));

void Avx512XorPopcount8(const uint64_t* a, const uint64_t* b_base,
                        size_t stride, size_t n, size_t out[8]) {
  // Brace-initialized accumulators, one masked loop for body and tail and
  // one transposed reduction keep the eight accumulators in registers: a
  // zeroing loop or per-accumulator reduces make GCC keep them in a stack
  // copy it memsets on every call.
  __m512i acc[8] = {};
  for (size_t i = 0; i < n; i += 8) {
    const __mmask8 mask =
        n - i >= 8 ? static_cast<__mmask8>(0xff) : TailMask(n - i);
    const __m512i a_vec = _mm512_maskz_loadu_epi64(mask, a + i);
    for (int t = 0; t < 8; ++t) {
      const __m512i b_vec =
          _mm512_maskz_loadu_epi64(mask, b_base + t * stride + i);
      acc[t] = _mm512_add_epi64(
          acc[t], _mm512_popcnt_epi64(_mm512_xor_si512(a_vec, b_vec)));
    }
  }
  _mm512_storeu_si512(out, ReduceEight(acc[0], acc[1], acc[2], acc[3], acc[4],
                                       acc[5], acc[6], acc[7]));
}

void Avx512XorPopcount4x4(const uint64_t* a_base, const uint64_t* b_base,
                          size_t stride, size_t n, size_t out[16]) {
  // acc[4·r + t] counts a-row r against b-row t: 16 accumulators plus
  // 8 loaded vectors fit the 32 zmm registers. Brace-initialized: GCC
  // turns a zeroing loop into a memset of a stack copy on every call.
  __m512i acc[16] = {};
  // One loop for body and ragged tail: the masked load costs what a
  // plain one does, and a single loop keeps every accumulator in a
  // register.
  for (size_t i = 0; i < n; i += 8) {
    const __mmask8 mask =
        n - i >= 8 ? static_cast<__mmask8>(0xff) : TailMask(n - i);
    __m512i a_vec[4];
    __m512i b_vec[4];
    for (int r = 0; r < 4; ++r) {
      a_vec[r] = _mm512_maskz_loadu_epi64(mask, a_base + r * stride + i);
      b_vec[r] = _mm512_maskz_loadu_epi64(mask, b_base + r * stride + i);
    }
    for (int r = 0; r < 4; ++r) {
      for (int t = 0; t < 4; ++t) {
        acc[4 * r + t] = _mm512_add_epi64(
            acc[4 * r + t],
            _mm512_popcnt_epi64(_mm512_xor_si512(a_vec[r], b_vec[t])));
      }
    }
  }
  _mm512_storeu_si512(out, ReduceEight(acc[0], acc[1], acc[2], acc[3], acc[4],
                                       acc[5], acc[6], acc[7]));
  _mm512_storeu_si512(out + 8,
                      ReduceEight(acc[8], acc[9], acc[10], acc[11], acc[12],
                                  acc[13], acc[14], acc[15]));
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
    Avx512XorPopcount4x4,
    Avx512PopcountWords,
    Avx2ExtractBits,  // see kernels_internal.h: the AVX2 gather wins here
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
