// NEON kernel table (aarch64, where NEON is baseline — so no runtime
// probe is needed beyond "this TU was compiled in"). Popcounts use
// vcntq_u8 + the widening pairwise-add ladder; the gather-shaped kernels
// (extraction, routing) have no NEON gather to build on, so
// they alias the scalar reference — the table still wins on the
// popcount-bound query path. Same ODR rule as the other ISA files: no
// project headers beyond kernels_internal.h.

#include "common/kernels_internal.h"

#if defined(VOS_KERNELS_NEON)

#include <arm_neon.h>

namespace vos::kernels::internal {
namespace {

/// Per-64-bit-lane popcount of v.
inline uint64x2_t PopcountLanes(uint64x2_t v) {
  return vpaddlq_u32(
      vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

inline uint64x2_t LoadXor(const uint64_t* a, const uint64_t* b, size_t i) {
  return veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
}

size_t NeonXorPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  uint64x2_t acc0 = vdupq_n_u64(0);
  uint64x2_t acc1 = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = vaddq_u64(acc0, PopcountLanes(LoadXor(a, b, i)));
    acc1 = vaddq_u64(acc1, PopcountLanes(LoadXor(a, b, i + 2)));
  }
  size_t count = static_cast<size_t>(vaddvq_u64(vaddq_u64(acc0, acc1)));
  if (i < n) count += ScalarXorPopcount(a + i, b + i, n - i);
  return count;
}

void NeonXorPopcount8(const uint64_t* a, const uint64_t* b_base, size_t stride,
                      size_t n, size_t out[8]) {
  uint64x2_t acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t a_vec = vld1q_u64(a + i);
    for (int t = 0; t < 8; ++t) {
      acc[t] = vaddq_u64(
          acc[t],
          PopcountLanes(veorq_u64(a_vec, vld1q_u64(b_base + t * stride + i))));
    }
  }
  for (int t = 0; t < 8; ++t) out[t] = static_cast<size_t>(vaddvq_u64(acc[t]));
  if (i < n) {
    for (int t = 0; t < 8; ++t) {
      out[t] += ScalarXorPopcount(a + i, b_base + t * stride + i, n - i);
    }
  }
}

void NeonXorPopcount2x4(const uint64_t* a0, const uint64_t* a1,
                        const uint64_t* b_base, size_t stride, size_t n,
                        size_t out[8]) {
  uint64x2_t acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t a0_vec = vld1q_u64(a0 + i);
    const uint64x2_t a1_vec = vld1q_u64(a1 + i);
    for (int t = 0; t < 4; ++t) {
      const uint64x2_t b_vec = vld1q_u64(b_base + t * stride + i);
      acc[t] = vaddq_u64(acc[t], PopcountLanes(veorq_u64(a0_vec, b_vec)));
      acc[4 + t] =
          vaddq_u64(acc[4 + t], PopcountLanes(veorq_u64(a1_vec, b_vec)));
    }
  }
  for (int t = 0; t < 8; ++t) out[t] = static_cast<size_t>(vaddvq_u64(acc[t]));
  if (i < n) {
    for (int t = 0; t < 4; ++t) {
      out[t] += ScalarXorPopcount(a0 + i, b_base + t * stride + i, n - i);
      out[4 + t] += ScalarXorPopcount(a1 + i, b_base + t * stride + i, n - i);
    }
  }
}

size_t NeonPopcountWords(const uint64_t* a, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_u64(acc, PopcountLanes(vld1q_u64(a + i)));
  }
  size_t count = static_cast<size_t>(vaddvq_u64(acc));
  if (i < n) count += ScalarPopcountWords(a + i, n - i);
  return count;
}

constexpr KernelTable kNeonTable = {
    NeonXorPopcount,
    NeonXorPopcount8,
    NeonXorPopcount2x4,
    NeonPopcountWords,
    ScalarExtractBits,
    ScalarRouteBatch,
    DispatchLevel::kNeon,
    "neon",
};

}  // namespace

const KernelTable* NeonKernels() { return &kNeonTable; }

}  // namespace vos::kernels::internal

#else  // !VOS_KERNELS_NEON

namespace vos::kernels::internal {
const KernelTable* NeonKernels() { return nullptr; }
}  // namespace vos::kernels::internal

#endif
