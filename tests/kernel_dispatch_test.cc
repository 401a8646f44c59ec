// Bit-identity sweep of the runtime-dispatched kernel tier
// (common/kernels.h): every dispatch level this build + CPU offers must
// produce EXACTLY the scalar reference's outputs for every kernel, on
// random and adversarial inputs — tail lengths 0–7 words, odd strides,
// unaligned row bases, all-zero and all-one rows, k values that are not
// lane- or word-multiples, m both below and above 2^32. Dispatch must never
// change results, only throughput; this test is the contract the rest of
// the system's bit-identity suites stand on, and it runs under the ASan
// and TSAN CI jobs (unaligned loads and the concurrent-resolution smoke
// below are exactly what those catch).

#include "common/kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/kernels_internal.h"
#include "common/random.h"

namespace vos::kernels {
namespace {

/// All tables this build + CPU can run (always at least scalar).
std::vector<const KernelTable*> AllTables() {
  std::vector<const KernelTable*> tables;
  for (const DispatchLevel level : AvailableLevels()) {
    tables.push_back(TableFor(level));
  }
  return tables;
}

/// Words with every adversarial fill pattern the popcount kernels care
/// about, at `misalign` extra leading words so callers can take a base
/// pointer inside the buffer (unaligned relative to vector width).
std::vector<uint64_t> FillWords(size_t n, uint64_t pattern_seed) {
  Rng rng(pattern_seed);
  std::vector<uint64_t> words(n);
  switch (pattern_seed % 4) {
    case 0:
      for (auto& w : words) w = rng.NextU64();
      break;
    case 1:
      for (auto& w : words) w = 0;
      break;
    case 2:
      for (auto& w : words) w = ~uint64_t{0};
      break;
    default:
      // Sparse rows: a few set bits, the regime digest rows live in.
      for (auto& w : words) w = uint64_t{1} << (rng.NextU64() % 64);
      break;
  }
  return words;
}

TEST(KernelDispatchTest, ReportsAtLeastScalarAndActiveIsAvailable) {
  const std::vector<DispatchLevel> levels = AvailableLevels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), DispatchLevel::kScalar);
  ASSERT_NE(TableFor(DispatchLevel::kScalar), nullptr);
  // The active table must be one of the available ones.
  bool found = false;
  for (const DispatchLevel level : levels) {
    if (level == Active().level) found = true;
  }
  EXPECT_TRUE(found) << "active level " << LevelName(Active().level)
                     << " not in AvailableLevels()";
}

TEST(KernelDispatchTest, LevelNamesRoundTrip) {
  for (const DispatchLevel level :
       {DispatchLevel::kScalar, DispatchLevel::kNeon, DispatchLevel::kAvx2,
        DispatchLevel::kAvx512}) {
    DispatchLevel parsed;
    ASSERT_TRUE(ParseDispatchLevel(LevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  DispatchLevel parsed;
  EXPECT_FALSE(ParseDispatchLevel("sse9", &parsed));
  EXPECT_FALSE(ParseDispatchLevel("", &parsed));
}

TEST(KernelDispatchTest, SetDispatchLevelForcesAndRejects) {
  const DispatchLevel original = Active().level;
  for (const DispatchLevel level : AvailableLevels()) {
    ASSERT_TRUE(SetDispatchLevel(level));
    EXPECT_EQ(Active().level, level);
  }
  ASSERT_TRUE(SetDispatchLevel(original));
#if !defined(__aarch64__)
  EXPECT_FALSE(SetDispatchLevel(DispatchLevel::kNeon));
#endif
}

// Hamming kernels: sweep sizes crossing every internal block boundary
// (the AVX2 Harley–Seal block is 64 words, vectors are 4/8 words), all
// fill patterns, and misaligned bases.
TEST(KernelDispatchTest, XorPopcountMatchesScalarAcrossSizesAndAlignment) {
  const KernelTable* scalar = TableFor(DispatchLevel::kScalar);
  for (const KernelTable* table : AllTables()) {
    for (const size_t misalign : {0, 1, 3}) {
      for (size_t n : {0,  1,  2,  3,  4,  5,  6,  7,  8,  15, 16, 17,
                       31, 63, 64, 65, 71, 100, 127, 128, 129, 200}) {
        for (uint64_t pattern = 0; pattern < 4; ++pattern) {
          const std::vector<uint64_t> a =
              FillWords(n + misalign, pattern * 7 + n);
          const std::vector<uint64_t> b =
              FillWords(n + misalign, pattern * 13 + n + 1);
          const uint64_t* a_base = a.data() + misalign;
          const uint64_t* b_base = b.data() + misalign;
          EXPECT_EQ(table->xor_popcount(a_base, b_base, n),
                    scalar->xor_popcount(a_base, b_base, n))
              << table->name << " n=" << n << " misalign=" << misalign
              << " pattern=" << pattern;
          EXPECT_EQ(table->popcount_words(a_base, n),
                    scalar->popcount_words(a_base, n))
              << table->name << " n=" << n << " misalign=" << misalign
              << " pattern=" << pattern;
        }
      }
    }
  }
}

// The register-blocked variants add a stride dimension: odd strides
// (stride > n, stride = n + 1, huge stride) must index identically.
TEST(KernelDispatchTest, BlockedXorPopcountsMatchScalarAtOddStrides) {
  const KernelTable* scalar = TableFor(DispatchLevel::kScalar);
  Rng rng(42);
  for (const KernelTable* table : AllTables()) {
    for (size_t n : {1, 3, 4, 5, 7, 8, 9, 16, 33, 100}) {
      for (const size_t stride : {n, n + 1, 2 * n + 3, n + 17}) {
        const std::vector<uint64_t> a = FillWords(n, rng.NextU64());
        const std::vector<uint64_t> b = FillWords(7 * stride + n, 0);
        size_t got[8], want[8];
        table->xor_popcount8(a.data(), b.data(), stride, n, got);
        scalar->xor_popcount8(a.data(), b.data(), stride, n, want);
        for (int t = 0; t < 8; ++t) {
          EXPECT_EQ(got[t], want[t]) << table->name << " xor8 n=" << n
                                     << " stride=" << stride << " t=" << t;
        }
      }
    }
  }
}

// The 4×4 kernel reads four a-rows and four b-rows at one stride: every
// word count 0..17 (each 1–7-word tail after zero, one and two full
// 8-word vectors) plus long rows, strides at and above n, and bases off
// vector alignment. The scalar table is pinned to one single-pair
// popcount per (a-row, b-row) first, so the layout out[4·i + t] is
// checked, not only agreement between levels.
TEST(KernelDispatchTest, XorPopcount4x4MatchesScalarAtRaggedTailsAndStrides) {
  const KernelTable* scalar = TableFor(DispatchLevel::kScalar);
  Rng rng(44);
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  sizes.push_back(33);
  sizes.push_back(100);
  for (const size_t n : sizes) {
    for (const size_t stride : {n, n + 1, 2 * n + 3, n + 17}) {
      for (const size_t misalign : {0, 1, 3}) {
        const std::vector<uint64_t> a =
            FillWords(misalign + 3 * stride + n, rng.NextU64());
        const std::vector<uint64_t> b =
            FillWords(misalign + 3 * stride + n, rng.NextU64());
        const uint64_t* a_base = a.data() + misalign;
        const uint64_t* b_base = b.data() + misalign;
        const std::string context = " n=" + std::to_string(n) +
                                    " stride=" + std::to_string(stride) +
                                    " misalign=" + std::to_string(misalign);
        size_t want[16];
        scalar->xor_popcount4x4(a_base, b_base, stride, n, want);
        for (size_t i = 0; i < 4; ++i) {
          for (size_t t = 0; t < 4; ++t) {
            ASSERT_EQ(want[4 * i + t],
                      scalar->xor_popcount(a_base + i * stride,
                                           b_base + t * stride, n))
                << "scalar layout" << context << " i=" << i << " t=" << t;
          }
        }
        for (const KernelTable* table : AllTables()) {
          size_t got[16];
          table->xor_popcount4x4(a_base, b_base, stride, n, got);
          for (int j = 0; j < 16; ++j) {
            EXPECT_EQ(got[j], want[j])
                << table->name << " xor4x4" << context << " out=" << j;
          }
        }
      }
    }
  }
}

// Extraction: k values that are not multiples of 4, 8 or 64 (ragged
// lanes AND ragged words), m below and above 2^32 (the MulHi64 reduction
// must be exact past 32 bits), cells capture on and off.
TEST(KernelDispatchTest, ExtractBitsMatchesScalarForRaggedKAndLargeM) {
  const KernelTable* scalar = TableFor(DispatchLevel::kScalar);
  Rng rng(7);
  for (const KernelTable* table : AllTables()) {
    for (const uint64_t m :
         {uint64_t{64}, uint64_t{1000}, uint64_t{1} << 20,
          (uint64_t{1} << 21) - 3}) {
      const std::vector<uint64_t> array = FillWords((m + 63) / 64, 0);
      for (const uint32_t k : {1u, 3u, 7u, 8u, 63u, 64u, 65u, 127u, 200u}) {
        std::vector<uint64_t> seeds(k);
        for (auto& s : seeds) s = rng.NextU64();
        const uint64_t user = rng.NextU64() % 100000;
        const size_t words = (k + 63) / 64;
        std::vector<uint64_t> got(words, 0xdead), want(words, 0xbeef);
        std::vector<uint32_t> got_cells(k, 1), want_cells(k, 2);
        table->extract_bits(array.data(), seeds.data(), k, user, m,
                            got.data(), got_cells.data());
        scalar->extract_bits(array.data(), seeds.data(), k, user, m,
                             want.data(), want_cells.data());
        EXPECT_EQ(got, want) << table->name << " k=" << k << " m=" << m;
        EXPECT_EQ(got_cells, want_cells)
            << table->name << " k=" << k << " m=" << m;
        // Without cell capture the digest must be unchanged.
        std::vector<uint64_t> got_nc(words, 0);
        table->extract_bits(array.data(), seeds.data(), k, user, m,
                            got_nc.data(), nullptr);
        EXPECT_EQ(got_nc, want) << table->name << " k=" << k << " m=" << m;
      }
    }
  }
}

// Routing: shard assignment and the local_of gather, ragged batch sizes,
// shard counts that are not powers of two, locals on and off.
TEST(KernelDispatchTest, RouteBatchMatchesScalarAcrossShardCountsAndTails) {
  const KernelTable* scalar = TableFor(DispatchLevel::kScalar);
  Rng rng(3);
  const uint32_t num_users = 5000;
  std::vector<uint32_t> local_of(num_users);
  for (auto& l : local_of) l = rng.NextU64();
  for (const KernelTable* table : AllTables()) {
    for (const uint32_t shards : {1u, 2u, 3u, 7u, 16u, 255u, 65535u}) {
      for (const size_t n : {0, 1, 5, 7, 8, 9, 16, 100, 257}) {
        std::vector<uint32_t> users(n);
        for (auto& u : users) u = rng.NextU64() % num_users;
        const uint64_t seed_mix =
            rng.NextU64() * 0x9e3779b97f4a7c15ULL;
        std::vector<uint16_t> got_shards(n + 1, 0xaaaa);
        std::vector<uint16_t> want_shards(n + 1, 0xbbbb);
        std::vector<uint32_t> got_locals(n + 1, 1);
        std::vector<uint32_t> want_locals(n + 1, 2);
        table->route_batch(users.data(), n, seed_mix, shards, local_of.data(),
                           got_shards.data(), got_locals.data());
        scalar->route_batch(users.data(), n, seed_mix, shards,
                            local_of.data(), want_shards.data(),
                            want_locals.data());
        EXPECT_EQ(std::vector<uint16_t>(got_shards.begin(),
                                        got_shards.begin() + n),
                  std::vector<uint16_t>(want_shards.begin(),
                                        want_shards.begin() + n))
            << table->name << " shards=" << shards << " n=" << n;
        EXPECT_EQ(std::vector<uint32_t>(got_locals.begin(),
                                        got_locals.begin() + n),
                  std::vector<uint32_t>(want_locals.begin(),
                                        want_locals.begin() + n))
            << table->name << " shards=" << shards << " n=" << n;
        // No writes past n.
        EXPECT_EQ(got_shards[n], 0xaaaa) << table->name;
        EXPECT_EQ(got_locals[n], 1u) << table->name;
        // locals == nullptr leaves shard tags identical.
        std::vector<uint16_t> got_tags(n, 0);
        table->route_batch(users.data(), n, seed_mix, shards, nullptr,
                           got_tags.data(), nullptr);
        EXPECT_EQ(got_tags, std::vector<uint16_t>(want_shards.begin(),
                                                  want_shards.begin() + n))
            << table->name << " shards=" << shards << " n=" << n;
      }
    }
  }
}

// Concurrent Active() + SetDispatchLevel: the table pointer is atomic,
// so readers must always see a fully valid table (TSAN checks the
// publication; the asserts check the values).
TEST(KernelDispatchTest, ConcurrentActiveAndSetDispatchLevelIsSafe) {
  const DispatchLevel original = Active().level;
  const std::vector<DispatchLevel> levels = AvailableLevels();
  std::vector<std::thread> readers;
  std::vector<uint64_t> a(16, 0x0f0f0f0f0f0f0f0fULL);
  std::vector<uint64_t> b(16, 0x00ff00ff00ff00ffULL);
  const size_t want = TableFor(DispatchLevel::kScalar)
                          ->xor_popcount(a.data(), b.data(), a.size());
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 2000; ++iter) {
        const KernelTable& table = Active();
        ASSERT_NE(table.name, nullptr);
        ASSERT_EQ(table.xor_popcount(a.data(), b.data(), a.size()), want);
      }
    });
  }
  std::thread flipper([&] {
    for (int iter = 0; iter < 500; ++iter) {
      for (const DispatchLevel level : levels) {
        ASSERT_TRUE(SetDispatchLevel(level));
      }
    }
  });
  for (auto& r : readers) r.join();
  flipper.join();
  ASSERT_TRUE(SetDispatchLevel(original));
}

}  // namespace
}  // namespace vos::kernels
