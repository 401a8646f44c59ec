// Internal seam between kernels.cc and the per-ISA translation units.
//
// The ISA files (kernels_avx2.cc, kernels_avx512.cc, kernels_neon.cc) are
// compiled with ISA flags the rest of the build does not have, so they
// must not include project headers that define inline functions — an
// inline emitted under -mavx2 can be the definition the linker keeps for
// every caller, silently un-baselining the binary. This header therefore
// carries DECLARATIONS ONLY (plus the shared hash constants, which are
// data, not code): the scalar kernels the ISA tails fall back to, the
// per-element helpers for ragged tails, and the per-ISA factory
// functions kernels.cc probes.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/kernels.h"

namespace vos::kernels::internal {

// Hash constants shared with hashing/hash64.h (Murmur3 finalizer,
// splitmix64 "Mix13", golden-ratio seed stride). The ISA files replicate
// the mixing arithmetic lane-wise from these; kernels.cc's scalar
// kernels call hash64.h directly, and tests/kernel_dispatch_test.cc
// pins every level to those scalar results.
inline constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
inline constexpr uint64_t kMix64Mul1 = 0xff51afd7ed558ccdULL;
inline constexpr uint64_t kMix64Mul2 = 0xc4ceb9fe1a85ec53ULL;
inline constexpr uint64_t kMix64V2Mul1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr uint64_t kMix64V2Mul2 = 0x94d049bb133111ebULL;

// Scalar kernels — the bit-identity reference and the tails' fallback.
// Defined in kernels.cc (a baseline-ISA translation unit).
size_t ScalarXorPopcount(const uint64_t* a, const uint64_t* b, size_t n);
void ScalarXorPopcount8(const uint64_t* a, const uint64_t* b_base,
                        size_t stride, size_t n, size_t out[8]);
void ScalarXorPopcount4x4(const uint64_t* a_base, const uint64_t* b_base,
                          size_t stride, size_t n, size_t out[16]);
size_t ScalarPopcountWords(const uint64_t* a, size_t n);
void ScalarExtractBits(const uint64_t* array_words, const uint64_t* seeds,
                       uint32_t k, uint64_t user, uint64_t m, uint64_t* dst,
                       uint32_t* cells);
void ScalarRouteBatch(const uint32_t* users, size_t n, uint64_t seed_mix,
                      uint32_t num_shards, const uint32_t* local_of,
                      uint16_t* shards, uint32_t* locals);

// The AVX2 extraction kernel (kernels_avx2.cc). The AVX-512 table uses it
// as well: its own 8-lane gather kernel ran at 0.46-0.73x of this one on
// an AVX-512 host (micro_ingest_path --dispatch=avx2|avx512, index rows),
// so CMakeLists.txt compiles the AVX-512 file only alongside the AVX2 one.
void Avx2ExtractBits(const uint64_t* array_words, const uint64_t* seeds,
                     uint32_t k, uint64_t user, uint64_t m, uint64_t* dst,
                     uint32_t* cells);

// Per-element helper for the ISA kernels' ragged tails (lane counts
// rarely divide k exactly).
uint64_t ScalarCellOf(uint64_t user, uint64_t seed, uint64_t m);

// Per-ISA factories: the level's table when this build compiled the
// implementation, nullptr when the TU was stubbed out (compiler lacks
// the intrinsics, or wrong target arch). CPU support is probed by the
// caller (kernels.cc), not here.
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();
const KernelTable* NeonKernels();

}  // namespace vos::kernels::internal
