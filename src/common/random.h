// Deterministic pseudo-random number generation for libvos.
//
// Every stochastic component in the library (generators, samplers, seeds for
// hash families) draws from Rng, a xoshiro256** generator seeded via
// SplitMix64. All constructors take explicit 64-bit seeds so experiments are
// reproducible bit-for-bit. <random> engines are avoided in
// library code because their sequences are not portable across standard
// library implementations.

#pragma once

#include <cstdint>
#include <vector>

#include "common/logging.h"

namespace vos {

/// SplitMix64 step: advances `state` and returns a well-mixed 64-bit value.
///
/// Used both as a stand-alone mixer and to expand a single user seed into
/// the 256-bit xoshiro state.
inline uint64_t SplitMix64Next(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 — fast, high-quality, 256-bit state PRNG.
class Rng {
 public:
  /// Seeds deterministically from a single 64-bit value.
  explicit Rng(uint64_t seed = 0x6f5902ac237024bdULL) { Seed(seed); }

  /// Re-seeds the generator (same expansion as the constructor).
  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64Next(sm);
  }

  /// Next raw 64-bit output.
  uint64_t NextU64() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound); bound must be positive.
  ///
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t NextBounded(uint64_t bound) {
    VOS_DCHECK(bound > 0);
    // 128-bit multiply-high with rejection to remove modulo bias.
    uint64_t x = NextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      const uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = NextU64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Fisher–Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      const size_t j = static_cast<size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

/// Samples from a Zipf distribution over ranks {0, 1, …, n−1} with exponent
/// `alpha`: P(rank = r) ∝ 1 / (r + 1)^alpha.
///
/// Heavy-tailed item popularity / user activity in the synthetic datasets is
/// generated with this sampler (see stream/dataset.h). Uses an
/// inverted-CDF table, so construction is O(n) and each sample is
/// O(log n).
class ZipfSampler {
 public:
  /// `n` must be ≥ 1; `alpha` ≥ 0 (0 degenerates to the uniform
  /// distribution).
  ZipfSampler(size_t n, double alpha);

  /// Draws one rank in [0, n).
  size_t Sample(Rng& rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank ≤ r), cdf_.back() == 1.
};

}  // namespace vos
