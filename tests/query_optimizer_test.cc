// Tests for the pass statistics and tile sizing of the pair-scan tier
// (core/query_optimizer.h):
//
//   * TriangleWindowPairs / RectangleWindowPairs equal a brute-force
//     count of the pairs inside the conservative cardinality window, and
//     the full pair space with the prefilter off.
//   * AdaptiveTileRows stays bounded, 8-aligned, deterministic and
//     non-increasing in the row width.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"
#include "core/query_optimizer.h"
#include "core/scan_common.h"

namespace vos::core {
namespace {

size_t BruteTrianglePairs(const std::vector<uint32_t>& cards, double tau) {
  const double tau_frac = tau / (1.0 + tau);
  size_t pairs = 0;
  for (size_t p = 0; p < cards.size(); ++p) {
    for (size_t q = p + 1; q < cards.size(); ++q) {
      const double lo = std::min(cards[p], cards[q]);
      const double sum = static_cast<double>(cards[p]) + cards[q];
      if (!scan::CardinalityFail(lo, sum, tau_frac)) ++pairs;
    }
  }
  return pairs;
}

TEST(QueryOptimizerTest, WindowPairCountsMatchBruteForce) {
  Rng rng(47);
  for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                         size_t{64}, size_t{257}}) {
    std::vector<uint32_t> cards(n);
    for (uint32_t& c : cards) c = static_cast<uint32_t>(rng.NextU64() % 500);
    std::sort(cards.begin(), cards.end());
    std::vector<uint32_t> other(n / 2 + (n > 0 ? 1 : 0));
    for (uint32_t& c : other) c = static_cast<uint32_t>(rng.NextU64() % 500);
    std::sort(other.begin(), other.end());

    for (const double tau : {0.1, 0.4, 0.9}) {
      EXPECT_EQ(optimizer::TriangleWindowPairs(cards.data(), n, tau, true),
                BruteTrianglePairs(cards, tau))
          << "n=" << n << " tau=" << tau;

      const double tau_frac = tau / (1.0 + tau);
      size_t rect = 0;
      for (const uint32_t a : cards) {
        for (const uint32_t b : other) {
          const double lo = std::min(a, b);
          if (!scan::CardinalityFail(lo, static_cast<double>(a) + b,
                                     tau_frac)) {
            ++rect;
          }
        }
      }
      EXPECT_EQ(optimizer::RectangleWindowPairs(cards.data(), n, other.data(),
                                                other.size(), tau, true),
                rect)
          << "n=" << n << " tau=" << tau;
    }
    // prefilter off = the full pair space.
    EXPECT_EQ(optimizer::TriangleWindowPairs(cards.data(), n, 0.4, false),
              n < 2 ? 0 : n * (n - 1) / 2);
    EXPECT_EQ(optimizer::RectangleWindowPairs(cards.data(), n, other.data(),
                                              other.size(), 0.4, false),
              n * other.size());
  }
}

TEST(QueryOptimizerTest, AdaptiveTileRowsBoundedAlignedMonotone) {
  size_t previous = std::numeric_limits<size_t>::max();
  for (const size_t words : {size_t{0}, size_t{1}, size_t{8}, size_t{25},
                             size_t{100}, size_t{1000}, size_t{100000}}) {
    const size_t tile = optimizer::AdaptiveTileRows(words);
    EXPECT_GE(tile, 64u) << "words=" << words;
    EXPECT_LE(tile, 2048u) << "words=" << words;
    EXPECT_EQ(tile % 8, 0u) << "words=" << words;
    EXPECT_EQ(tile, optimizer::AdaptiveTileRows(words))
        << "must be deterministic per process";
    if (words > 0) {
      EXPECT_LE(tile, previous) << "wider rows cannot grow the tile";
      previous = tile;
    }
  }
}

}  // namespace
}  // namespace vos::core
