// Dispatch plumbing + the scalar reference kernels.
//
// This translation unit is compiled with the build's baseline flags (no
// per-file ISA options), so everything here is safe to run on any
// machine the binary targets. The scalar kernel bodies are the former
// inline implementations from common/popcount.h, core/digest_matrix.cc,
// stream/shard_router.h and core/pair_scan.cc, moved behind the table so
// every caller — and every ISA tail — shares one definition of the
// reference arithmetic.

#include "common/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <bit>

#include "common/kernels_internal.h"
#include "hashing/hash64.h"

namespace vos::kernels {
namespace internal {

// ----------------------------------------------------------------- popcounts

size_t ScalarXorPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  // 4-way unrolled with independent accumulators so hardware popcnt
  // dual-issues instead of serializing on one add chain.
  size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<size_t>(std::popcount(a[i] ^ b[i]));
    c1 += static_cast<size_t>(std::popcount(a[i + 1] ^ b[i + 1]));
    c2 += static_cast<size_t>(std::popcount(a[i + 2] ^ b[i + 2]));
    c3 += static_cast<size_t>(std::popcount(a[i + 3] ^ b[i + 3]));
  }
  for (; i < n; ++i) {
    c0 += static_cast<size_t>(std::popcount(a[i] ^ b[i]));
  }
  return c0 + c1 + c2 + c3;
}

void ScalarXorPopcount8(const uint64_t* a, const uint64_t* b_base,
                        size_t stride, size_t n, size_t out[8]) {
  size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t c4 = 0, c5 = 0, c6 = 0, c7 = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t a_word = a[i];
    c0 += static_cast<size_t>(std::popcount(a_word ^ b_base[i]));
    c1 += static_cast<size_t>(std::popcount(a_word ^ b_base[stride + i]));
    c2 += static_cast<size_t>(std::popcount(a_word ^ b_base[2 * stride + i]));
    c3 += static_cast<size_t>(std::popcount(a_word ^ b_base[3 * stride + i]));
    c4 += static_cast<size_t>(std::popcount(a_word ^ b_base[4 * stride + i]));
    c5 += static_cast<size_t>(std::popcount(a_word ^ b_base[5 * stride + i]));
    c6 += static_cast<size_t>(std::popcount(a_word ^ b_base[6 * stride + i]));
    c7 += static_cast<size_t>(std::popcount(a_word ^ b_base[7 * stride + i]));
  }
  out[0] = c0;
  out[1] = c1;
  out[2] = c2;
  out[3] = c3;
  out[4] = c4;
  out[5] = c5;
  out[6] = c6;
  out[7] = c7;
}

namespace {

/// Two a-rows against four b-rows: out[t] = popcount(a0 XOR b_t),
/// out[4 + t] = popcount(a1 XOR b_t). One half of the 4×4 kernel — eight
/// accumulators plus six loaded words fit the general-purpose registers,
/// sixteen accumulators would not.
void XorPopcount2x4(const uint64_t* a0, const uint64_t* a1,
                    const uint64_t* b_base, size_t stride, size_t n,
                    size_t out[8]) {
  size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t c4 = 0, c5 = 0, c6 = 0, c7 = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t a0_word = a0[i];
    const uint64_t a1_word = a1[i];
    const uint64_t b0_word = b_base[i];
    const uint64_t b1_word = b_base[stride + i];
    const uint64_t b2_word = b_base[2 * stride + i];
    const uint64_t b3_word = b_base[3 * stride + i];
    c0 += static_cast<size_t>(std::popcount(a0_word ^ b0_word));
    c1 += static_cast<size_t>(std::popcount(a0_word ^ b1_word));
    c2 += static_cast<size_t>(std::popcount(a0_word ^ b2_word));
    c3 += static_cast<size_t>(std::popcount(a0_word ^ b3_word));
    c4 += static_cast<size_t>(std::popcount(a1_word ^ b0_word));
    c5 += static_cast<size_t>(std::popcount(a1_word ^ b1_word));
    c6 += static_cast<size_t>(std::popcount(a1_word ^ b2_word));
    c7 += static_cast<size_t>(std::popcount(a1_word ^ b3_word));
  }
  out[0] = c0;
  out[1] = c1;
  out[2] = c2;
  out[3] = c3;
  out[4] = c4;
  out[5] = c5;
  out[6] = c6;
  out[7] = c7;
}

}  // namespace

void ScalarXorPopcount4x4(const uint64_t* a_base, const uint64_t* b_base,
                          size_t stride, size_t n, size_t out[16]) {
  XorPopcount2x4(a_base, a_base + stride, b_base, stride, n, out);
  XorPopcount2x4(a_base + 2 * stride, a_base + 3 * stride, b_base, stride, n,
                 out + 8);
}

size_t ScalarPopcountWords(const uint64_t* a, size_t n) {
  size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    c0 += static_cast<size_t>(std::popcount(a[i]));
    c1 += static_cast<size_t>(std::popcount(a[i + 1]));
    c2 += static_cast<size_t>(std::popcount(a[i + 2]));
    c3 += static_cast<size_t>(std::popcount(a[i + 3]));
  }
  for (; i < n; ++i) {
    c0 += static_cast<size_t>(std::popcount(a[i]));
  }
  return c0 + c1 + c2 + c3;
}

// ---------------------------------------------------------------- extraction

uint64_t ScalarCellOf(uint64_t user, uint64_t seed, uint64_t m) {
  return hash::ReduceToRange(hash::Hash64(user, seed), m);
}

void ScalarExtractBits(const uint64_t* array_words, const uint64_t* seeds,
                       uint32_t k, uint64_t user, uint64_t m, uint64_t* dst,
                       uint32_t* cells) {
  uint64_t word = 0;
  for (uint32_t j = 0; j < k; ++j) {
    const uint64_t cell = hash::ReduceToRange(hash::Hash64(user, seeds[j]), m);
    if (cells != nullptr) cells[j] = static_cast<uint32_t>(cell);
    word |= ((array_words[cell >> 6] >> (cell & 63)) & 1) << (j & 63);
    if ((j & 63) == 63) {
      *dst++ = word;
      word = 0;
    }
  }
  if ((k & 63) != 0) *dst = word;
}

// ------------------------------------------------------------------- routing

void ScalarRouteBatch(const uint32_t* users, size_t n, uint64_t seed_mix,
                      uint32_t num_shards, const uint32_t* local_of,
                      uint16_t* shards, uint32_t* locals) {
  for (size_t i = 0; i < n; ++i) {
    shards[i] = static_cast<uint16_t>(
        hash::ReduceToRange(hash::Mix64(users[i] ^ seed_mix), num_shards));
    if (local_of != nullptr) locals[i] = local_of[users[i]];
  }
}

}  // namespace internal

// ------------------------------------------------------------------ dispatch

namespace {

constexpr KernelTable kScalarTable = {
    internal::ScalarXorPopcount,
    internal::ScalarXorPopcount8,
    internal::ScalarXorPopcount4x4,
    internal::ScalarPopcountWords,
    internal::ScalarExtractBits,
    internal::ScalarRouteBatch,
    DispatchLevel::kScalar,
    "scalar",
};

bool CpuSupports(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return true;
    case DispatchLevel::kNeon:
      // NEON is baseline on aarch64; the factory returns nullptr on
      // every other target, so compiled-in implies supported.
      return true;
    case DispatchLevel::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
#else
      return false;
#endif
    case DispatchLevel::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      // The AVX-512 kernels are compiled against F+BW+VL+DQ and use
      // VPOPCNTDQ unconditionally (Ice Lake+); Skylake-X class parts
      // without it fall back to the AVX2 table.
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512dq") &&
             __builtin_cpu_supports("avx512vpopcntdq");
#else
      return false;
#endif
  }
  return false;
}

const KernelTable* BestAvailable() {
  for (const DispatchLevel level :
       {DispatchLevel::kAvx512, DispatchLevel::kAvx2, DispatchLevel::kNeon}) {
    if (const KernelTable* table = TableFor(level)) return table;
  }
  return &kScalarTable;
}

/// VOS_DISPATCH override, or BestAvailable() when unset/unusable.
const KernelTable* ChooseInitial() {
  const char* env = std::getenv("VOS_DISPATCH");
  if (env != nullptr && env[0] != '\0') {
    DispatchLevel level;
    if (!ParseDispatchLevel(env, &level)) {
      std::fprintf(stderr,
                   "vos: VOS_DISPATCH=%s not recognized "
                   "(want scalar|neon|avx2|avx512); using automatic "
                   "dispatch\n",
                   env);
    } else if (const KernelTable* table = TableFor(level)) {
      return table;
    } else {
      std::fprintf(stderr,
                   "vos: VOS_DISPATCH=%s unavailable on this build/CPU; "
                   "using automatic dispatch\n",
                   env);
    }
  }
  return BestAvailable();
}

}  // namespace

namespace internal {

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* ResolveActive() {
  // Resolve once (thread-safe static init covers concurrent first
  // calls), then publish unless SetDispatchLevel won the race.
  static const KernelTable* const resolved = ChooseInitial();
  const KernelTable* expected = nullptr;
  g_active.compare_exchange_strong(expected, resolved,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire);
  return g_active.load(std::memory_order_relaxed);
}

}  // namespace internal

DispatchLevel ActiveLevel() { return Active().level; }

const KernelTable* TableFor(DispatchLevel level) {
  if (!CpuSupports(level)) return nullptr;
  switch (level) {
    case DispatchLevel::kScalar:
      return &kScalarTable;
    case DispatchLevel::kNeon:
      return internal::NeonKernels();
    case DispatchLevel::kAvx2:
      return internal::Avx2Kernels();
    case DispatchLevel::kAvx512:
      return internal::Avx512Kernels();
  }
  return nullptr;
}

std::vector<DispatchLevel> AvailableLevels() {
  std::vector<DispatchLevel> levels;
  for (const DispatchLevel level :
       {DispatchLevel::kScalar, DispatchLevel::kNeon, DispatchLevel::kAvx2,
        DispatchLevel::kAvx512}) {
    if (TableFor(level) != nullptr) levels.push_back(level);
  }
  return levels;
}

bool SetDispatchLevel(DispatchLevel level) {
  const KernelTable* table = TableFor(level);
  if (table == nullptr) return false;
  internal::g_active.store(table, std::memory_order_release);
  return true;
}

const char* LevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kNeon:
      return "neon";
    case DispatchLevel::kAvx2:
      return "avx2";
    case DispatchLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseDispatchLevel(const char* s, DispatchLevel* out) {
  for (const DispatchLevel level :
       {DispatchLevel::kScalar, DispatchLevel::kNeon, DispatchLevel::kAvx2,
        DispatchLevel::kAvx512}) {
    if (std::strcmp(s, LevelName(level)) == 0) {
      *out = level;
      return true;
    }
  }
  return false;
}

}  // namespace vos::kernels
