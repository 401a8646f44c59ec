// Unit tests for src/hashing: mixers, seed derivation, 2-universal hashing
// and Feistel format-preserving permutations.

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "hashing/feistel_permutation.h"
#include "hashing/hash64.h"
#include "hashing/seeds.h"
#include "hashing/two_universal.h"

namespace vos::hash {
namespace {

// ----------------------------------------------------------------- Mixers

TEST(Hash64Test, MixersAreDeterministic) {
  EXPECT_EQ(Mix64(12345), Mix64(12345));
  EXPECT_EQ(Mix64V2(12345), Mix64V2(12345));
  EXPECT_EQ(Hash64(1, 2), Hash64(1, 2));
}

TEST(Hash64Test, MixersAreInjectiveOnSample) {
  // Both finalizers are bijections on 64 bits; check no collisions on a
  // dense sample.
  std::unordered_set<uint64_t> seen;
  for (uint64_t x = 0; x < 20000; ++x) seen.insert(Mix64(x));
  EXPECT_EQ(seen.size(), 20000u);
  seen.clear();
  for (uint64_t x = 0; x < 20000; ++x) seen.insert(Mix64V2(x));
  EXPECT_EQ(seen.size(), 20000u);
}

TEST(Hash64Test, SeedsSelectDifferentFunctions) {
  int agreements = 0;
  for (uint64_t x = 0; x < 1000; ++x) {
    agreements += (Hash64(x, 1) == Hash64(x, 2));
  }
  EXPECT_EQ(agreements, 0);
}

TEST(Hash64Test, AvalancheOnAdjacentKeys) {
  // Flipping one input bit should flip ~32 of 64 output bits on average.
  double total_flips = 0;
  constexpr int kTrials = 1000;
  for (uint64_t x = 0; x < kTrials; ++x) {
    total_flips += std::popcount(Hash64(x, 7) ^ Hash64(x ^ 1, 7));
  }
  EXPECT_NEAR(total_flips / kTrials, 32.0, 2.0);
}

TEST(Hash64Test, ReduceToRangeBounds) {
  for (uint64_t n : {1ull, 2ull, 7ull, 1000ull}) {
    for (uint64_t x = 0; x < 1000; ++x) {
      EXPECT_LT(ReduceToRange(Hash64(x, 3), n), n);
    }
  }
}

TEST(Hash64Test, ReduceToRangeRoughlyUniform) {
  constexpr uint64_t kRange = 8;
  constexpr int kSamples = 80000;
  int counts[kRange] = {0};
  for (int x = 0; x < kSamples; ++x) {
    ++counts[ReduceToRange(Hash64(x, 99), kRange)];
  }
  const double expected = static_cast<double>(kSamples) / kRange;
  double chi2 = 0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 24.3);  // chi2(7 dof, 99.9%)
}

TEST(Hash64Test, HashStringDistinguishesStrings) {
  EXPECT_NE(HashString("MinHash"), HashString("OPH"));
  EXPECT_NE(HashString("a", 1), HashString("a", 2));
  EXPECT_EQ(HashString("VOS"), HashString("VOS"));
}

TEST(Hash64Test, HashCombineOrderDependent) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ------------------------------------------------------------------ Seeds

TEST(SeedsTest, DeriveSeedIndependence) {
  std::unordered_set<uint64_t> seen;
  for (uint64_t i = 0; i < 10000; ++i) seen.insert(DeriveSeed(42, i));
  EXPECT_EQ(seen.size(), 10000u);
  EXPECT_NE(DeriveSeed(1, 0), DeriveSeed(2, 0));
  EXPECT_EQ(DeriveSeed2(1, 2, 3), DeriveSeed(DeriveSeed(1, 2), 3));
}

// ------------------------------------------------------------ TwoUniversal

TEST(TwoUniversalTest, StaysInRange) {
  TwoUniversalHash h(5, 100);
  for (uint64_t x = 0; x < 10000; ++x) EXPECT_LT(h(x), 100u);
}

TEST(TwoUniversalTest, DeterministicPerSeed) {
  TwoUniversalHash a(9, 50), b(9, 50), c(10, 50);
  int diff = 0;
  for (uint64_t x = 0; x < 500; ++x) {
    EXPECT_EQ(a(x), b(x));
    diff += (a(x) != c(x));
  }
  EXPECT_GT(diff, 400);  // different seed ⇒ different function
}

TEST(TwoUniversalTest, PairwiseCollisionRate) {
  // For a 2-universal family, P(h(x)=h(y)) ≤ 1/range for x≠y. Estimate the
  // collision rate over random functions on a fixed pair.
  constexpr uint64_t kRange = 16;
  int collisions = 0;
  constexpr int kFunctions = 20000;
  for (int f = 0; f < kFunctions; ++f) {
    TwoUniversalHash h(1000 + f, kRange);
    collisions += (h(123456) == h(654321));
  }
  EXPECT_NEAR(collisions / static_cast<double>(kFunctions), 1.0 / kRange,
              0.02);
}

TEST(TwoUniversalTest, MarginalRoughlyUniform) {
  TwoUniversalHash h(77, 10);
  int counts[10] = {0};
  for (uint64_t x = 0; x < 50000; ++x) ++counts[h(x)];
  const double expected = 5000.0;
  double chi2 = 0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 27.9);  // chi2(9 dof, 99.9%)
}

// ----------------------------------------------------- FeistelPermutation

/// Property sweep: exact bijectivity on the whole domain for many sizes,
/// including powers of two, odd sizes and size 1.
class FeistelBijectionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FeistelBijectionTest, IsBijectiveAndInvertible) {
  const uint64_t n = GetParam();
  FeistelPermutation perm(n * 7 + 3, n);
  std::vector<bool> hit(n, false);
  for (uint64_t x = 0; x < n; ++x) {
    const uint64_t y = perm.Apply(x);
    ASSERT_LT(y, n);
    ASSERT_FALSE(hit[y]) << "collision at y=" << y;
    hit[y] = true;
    ASSERT_EQ(perm.Inverse(y), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, FeistelBijectionTest,
                         ::testing::Values(1, 2, 3, 5, 16, 100, 257, 1024,
                                           4096, 10007));

TEST(FeistelPermutationTest, DeterministicPerSeed) {
  FeistelPermutation a(5, 1000), b(5, 1000), c(6, 1000);
  int diff = 0;
  for (uint64_t x = 0; x < 1000; ++x) {
    EXPECT_EQ(a.Apply(x), b.Apply(x));
    diff += (a.Apply(x) != c.Apply(x));
  }
  EXPECT_GT(diff, 950);
}

TEST(FeistelPermutationTest, LooksRandomNotIdentity) {
  FeistelPermutation perm(99, 10000);
  int fixed_points = 0;
  for (uint64_t x = 0; x < 10000; ++x) fixed_points += (perm.Apply(x) == x);
  // Random permutation has ~1 expected fixed point per domain.
  EXPECT_LT(fixed_points, 20);
}

TEST(FeistelPermutationTest, MinRankIsUniformOverSets) {
  // The argmin item of a fixed set under random permutations should be
  // uniform over the set — the property MinHash relies on.
  constexpr uint64_t kDomain = 64;
  const std::vector<uint64_t> set = {3, 17, 21, 40, 63};
  std::vector<int> wins(kDomain, 0);
  constexpr int kTrials = 20000;
  for (int trial = 0; trial < kTrials; ++trial) {
    FeistelPermutation perm(trial, kDomain);
    uint64_t best = set[0];
    for (uint64_t item : set) {
      if (perm.Apply(item) < perm.Apply(best)) best = item;
    }
    ++wins[best];
  }
  for (uint64_t item : set) {
    EXPECT_NEAR(wins[item] / static_cast<double>(kTrials), 1.0 / set.size(),
                0.02)
        << "item " << item;
  }
}

}  // namespace
}  // namespace vos::hash
