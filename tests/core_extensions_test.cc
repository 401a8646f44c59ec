// Unit tests for the core extensions: sketch compatibility
// (VosSketch::IsCompatibleWith) and confidence intervals
// (EstimateWithConfidence). The batch queries are tested in
// query_engine_test.cc and query_planner_test.cc; the checkpoint format's
// decoder in checkpoint_recovery_test.cc.

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"

namespace vos::core {
namespace {

VosConfig TestConfig(uint32_t k = 512, uint64_t m = 1 << 14,
                     uint64_t seed = 11) {
  VosConfig config;
  config.k = k;
  config.m = m;
  config.seed = seed;
  return config;
}

// --------------------------------------------------------- IsCompatibleWith

TEST(VosCompatibilityTest, CompatibilityChecks) {
  VosSketch a(TestConfig(512, 1 << 14, 1), 10);
  VosSketch same(TestConfig(512, 1 << 14, 1), 10);
  VosSketch diff_seed(TestConfig(512, 1 << 14, 2), 10);
  VosSketch diff_k(TestConfig(256, 1 << 14, 1), 10);
  VosSketch diff_users(TestConfig(512, 1 << 14, 1), 11);
  EXPECT_TRUE(a.IsCompatibleWith(same));
  EXPECT_FALSE(a.IsCompatibleWith(diff_seed));
  EXPECT_FALSE(a.IsCompatibleWith(diff_k));
  EXPECT_FALSE(a.IsCompatibleWith(diff_users));
}

// -------------------------------------------------- EstimateWithConfidence

TEST(ConfidenceIntervalTest, BandContainsPointEstimateAndOrdersCorrectly) {
  VosEstimator estimator(4096);
  const double alpha = estimator.ExpectedAlpha(200, 0.05);
  const auto interval =
      estimator.EstimateWithConfidence(500, 500, alpha, 0.05);
  EXPECT_LE(interval.lo, interval.common);
  EXPECT_GE(interval.hi, interval.common);
  EXPECT_GT(interval.sigma, 0.0);
  // Wider z, wider band.
  const auto wide =
      estimator.EstimateWithConfidence(500, 500, alpha, 0.05, 3.0);
  EXPECT_LE(wide.lo, interval.lo);
  EXPECT_GE(wide.hi, interval.hi);
}

TEST(ConfidenceIntervalTest, CoverageIsApproximatelyNominal) {
  // Simulate the §IV model; the 95% band should cover the true s in
  // roughly 95% of trials (delta-method + normal approximation: accept
  // [90%, 99%]).
  constexpr uint32_t k = 4096;
  constexpr double beta = 0.08;
  constexpr double n_items = 800;
  constexpr double n_delta = 400;
  constexpr double true_s = n_items - n_delta / 2;
  VosEstimator estimator(k);
  Rng rng(31);
  const double p_bit = estimator.ExpectedAlpha(n_delta, beta);
  int covered = 0;
  constexpr int kTrials = 400;
  for (int trial = 0; trial < kTrials; ++trial) {
    size_t ones = 0;
    for (uint32_t j = 0; j < k; ++j) ones += rng.NextBernoulli(p_bit);
    const double alpha = static_cast<double>(ones) / k;
    const auto interval =
        estimator.EstimateWithConfidence(n_items, n_items, alpha, beta);
    covered += (interval.lo <= true_s && true_s <= interval.hi);
  }
  const double coverage = static_cast<double>(covered) / kTrials;
  EXPECT_GE(coverage, 0.90);
  EXPECT_LE(coverage, 0.995);
}

}  // namespace
}  // namespace vos::core
