// Word-wise XOR+popcount entry points over raw uint64_t spans.
//
// These back the batch query engine (core/digest_matrix.h +
// core/similarity_index.h): a pair estimate reduces to the Hamming distance
// between two packed digest rows, i.e. popcount(a XOR b) over
// words_per_row contiguous words. BitVector::HammingDistance does the same
// arithmetic through two heap-allocated vectors; these kernels operate on
// raw rows of one contiguous matrix so the all-pairs loop streams memory
// linearly.
//
// Since the kernel tier landed these are thin dispatch wrappers: the
// arithmetic lives in common/kernels.cc (scalar reference, 4-way unrolled
// with independent accumulators) with AVX2 Harley–Seal / AVX-512
// VPOPCNTDQ / NEON vcnt implementations selected per-CPU at runtime —
// one relaxed atomic load and an indirect call, amortized over the row
// (or eight rows) each call processes. Every level is bit-identical to
// scalar (tests/kernel_dispatch_test.cc), so callers never see dispatch.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/kernels.h"

namespace vos {

/// Number of set bits in (a[i] XOR b[i]) over i in [0, n) — the Hamming
/// distance between two n-word rows.
inline size_t XorPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  return kernels::Active().xor_popcount(a, b, n);
}

/// 1×8 register-blocked micro-kernel over eight consecutive rows of a
/// row-major matrix: out[t] = popcount(a XOR (b_base + t·stride)) over n
/// words. Sharing the a-loads across eight partners amortizes load
/// traffic; callers hand the matrix base of the first partner row and
/// the row stride in words.
inline void XorPopcount8(const uint64_t* a, const uint64_t* b_base,
                         size_t stride, size_t n, size_t out[8]) {
  kernels::Active().xor_popcount8(a, b_base, stride, n, out);
}

/// 4×4 micro-kernel: Hamming distances of four consecutive rows against
/// four consecutive rows, both row-major with the same stride.
/// out[4·i + t] = popcount((a_base + i·stride) XOR (b_base + t·stride)).
/// Each loaded word feeds four pairs, and the 16 sums finish in one
/// transposed reduction on AVX-512 — the all-pairs scan's block shape.
inline void XorPopcount4x4(const uint64_t* a_base, const uint64_t* b_base,
                           size_t stride, size_t n, size_t out[16]) {
  kernels::Active().xor_popcount4x4(a_base, b_base, stride, n, out);
}

/// Number of set bits in a[i] over i in [0, n).
inline size_t PopcountWords(const uint64_t* a, size_t n) {
  return kernels::Active().popcount_words(a, n);
}

}  // namespace vos
