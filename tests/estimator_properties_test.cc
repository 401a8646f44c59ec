// Property sweeps over the §IV estimator as a mathematical object:
// monotonicity, inversion, and confidence-width scaling invariants that
// must hold for every sketch size. These complement the Monte-Carlo checks
// in core_test.cc with deterministic, exhaustive-grid guarantees.

#include <gtest/gtest.h>

#include <cmath>

#include "core/vos_estimator.h"

namespace vos::core {
namespace {

class EstimatorPropertyTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  VosEstimator MakeEstimator() const { return VosEstimator(GetParam()); }
};

TEST_P(EstimatorPropertyTest, ExpectedAlphaIsMonotoneInDelta) {
  const VosEstimator est = MakeEstimator();
  for (double beta : {0.0, 0.1, 0.3}) {
    double prev = -1.0;
    for (double n_delta = 0; n_delta <= GetParam(); n_delta += GetParam() / 16.0) {
      const double alpha = est.ExpectedAlpha(n_delta, beta);
      ASSERT_GT(alpha, prev) << "nΔ=" << n_delta << " beta=" << beta;
      ASSERT_LT(alpha, 0.5 + 1e-12);
      prev = alpha;
    }
  }
}

TEST_P(EstimatorPropertyTest, ExpectedAlphaIsMonotoneInBeta) {
  const VosEstimator est = MakeEstimator();
  for (double n_delta : {0.0, 10.0, GetParam() / 8.0}) {
    double prev = -1.0;
    for (double beta = 0.0; beta < 0.5; beta += 0.05) {
      const double alpha = est.ExpectedAlpha(n_delta, beta);
      ASSERT_GE(alpha, prev) << "nΔ=" << n_delta << " beta=" << beta;
      prev = alpha;
    }
  }
}

TEST_P(EstimatorPropertyTest, SymmetricDifferenceInvertsExpectedAlpha) {
  // n̂Δ(E[α](nΔ, β), β) == nΔ over a dense grid — the estimator is the
  // exact inverse of its own expectation model.
  const VosEstimator est = MakeEstimator();
  for (double beta : {0.0, 0.05, 0.2, 0.4}) {
    for (double frac : {0.0, 0.01, 0.05, 0.1, 0.25}) {
      const double n_delta = frac * GetParam();
      const double alpha = est.ExpectedAlpha(n_delta, beta);
      ASSERT_NEAR(est.EstimateSymmetricDifference(alpha, beta), n_delta,
                  1e-6 * std::max(1.0, n_delta))
          << "k=" << GetParam() << " beta=" << beta << " nΔ=" << n_delta;
    }
  }
}

TEST_P(EstimatorPropertyTest, EstimateIsMonotoneDecreasingInAlpha) {
  // More observed disagreement ⇒ fewer estimated common items (within the
  // meaningful α < ½ range).
  const VosEstimator est = MakeEstimator();
  const double beta = 0.05;
  double prev = 1e300;
  for (double alpha = 0.0; alpha < 0.45; alpha += 0.03) {
    const double s = est.EstimateCommonItems(1000, 1000, alpha, beta);
    ASSERT_LE(s, prev) << "alpha=" << alpha;
    prev = s;
  }
}

TEST_P(EstimatorPropertyTest, ConfidenceWidthBehaviourInK) {
  // Two regimes, both invariants of the variance model:
  //   β = 0: quantization only — a larger sketch is (weakly) tighter at
  //     the same true nΔ (the e^{4nΔ/k} inflation shrinks).
  //   β > 0 fixed: the contamination term ≈ 2kβ *grows* with k, so a
  //     larger virtual sketch against the same array fill is WIDER — the
  //     mechanism behind the λ-ablation's U-shape (ablation A1,
  //     bench/ablation_lambda.cc).
  const uint32_t k = GetParam();
  VosEstimator small(k);
  VosEstimator large(4 * k);
  const double n_items = k;
  const double n_delta = 0.1 * k;

  const auto clean_small = small.EstimateWithConfidence(
      n_items, n_items, small.ExpectedAlpha(n_delta, 0.0), 0.0);
  const auto clean_large = large.EstimateWithConfidence(
      n_items, n_items, large.ExpectedAlpha(n_delta, 0.0), 0.0);
  EXPECT_LT(clean_large.sigma, clean_small.sigma)
      << "at beta=0 more bits must mean a tighter band";

  const auto noisy_small = small.EstimateWithConfidence(
      n_items, n_items, small.ExpectedAlpha(n_delta, 0.05), 0.05);
  const auto noisy_large = large.EstimateWithConfidence(
      n_items, n_items, large.ExpectedAlpha(n_delta, 0.05), 0.05);
  EXPECT_GT(noisy_large.sigma, noisy_small.sigma)
      << "at fixed beta>0 the contamination term grows with k";
}

TEST_P(EstimatorPropertyTest, VarianceGrowsWithAlpha) {
  const VosEstimator est = MakeEstimator();
  double prev = -1.0;
  for (double alpha = 0.05; alpha < 0.5; alpha += 0.05) {
    const double var = est.DeltaMethodVariance(alpha);
    ASSERT_GT(var, prev) << "alpha=" << alpha;
    prev = var;
  }
}

INSTANTIATE_TEST_SUITE_P(SketchSizes, EstimatorPropertyTest,
                         ::testing::Values(128, 1024, 6400, 65536));

}  // namespace
}  // namespace vos::core
