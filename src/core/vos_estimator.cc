#include "core/vos_estimator.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vos::core {

double VosEstimator::SafeLogAbs(double x) const {
  return std::log(std::max(std::fabs(x), options_.log_arg_floor));
}

double VosEstimator::EstimateSymmetricDifference(double alpha,
                                                 double beta) const {
  // n̂Δ = −k·(ln|1−2α| − 2·ln|1−2β|)/2, clamped to ≥ 0: sampling noise can
  // push α below its β-only baseline, which would read as negative nΔ.
  const double raw = -0.5 * k_ *
                     (SafeLogAbs(1.0 - 2.0 * alpha) -
                      2.0 * SafeLogAbs(1.0 - 2.0 * beta));
  return std::max(0.0, raw);
}

double VosEstimator::LogAlphaTerm(double alpha) const {
  return SafeLogAbs(1.0 - 2.0 * alpha);
}

double VosEstimator::LogBetaTerm(double beta) const {
  return SafeLogAbs(1.0 - 2.0 * beta);
}

std::vector<double> VosEstimator::BuildLogAlphaTable() const {
  std::vector<double> table(static_cast<size_t>(k_) + 1);
  for (size_t d = 0; d <= k_; ++d) {
    // Exactly the alpha = d / k conversion of the live estimator paths,
    // so table lookups are bit-identical to direct LogAlphaTerm calls.
    table[d] = LogAlphaTerm(static_cast<double>(d) / k_);
  }
  return table;
}

double VosEstimator::EstimateCommonItemsFromLogTerms(
    double n_u, double n_v, double log_alpha_term,
    double log_beta_term) const {
  // ŝ = (n_u+n_v)/2 + k·(ln|1−2α| − 2·ln|1−2β|)/4
  //   = (n_u+n_v)/2 − n̂Δ/2 (without the ≥0 clamp on n̂Δ).
  double s = 0.5 * (n_u + n_v) +
             0.25 * k_ * (log_alpha_term - 2.0 * log_beta_term);
  if (options_.clamp_to_feasible) {
    s = std::clamp(s, 0.0, std::min(n_u, n_v));
  }
  return s;
}

double VosEstimator::EstimateCommonItems(double n_u, double n_v, double alpha,
                                         double beta) const {
  return EstimateCommonItemsFromLogTerms(n_u, n_v, LogAlphaTerm(alpha),
                                         LogBetaTerm(beta));
}

PairEstimate VosEstimator::EstimateFromLogTerms(double n_u, double n_v,
                                                double log_alpha_term,
                                                double log_beta_term) const {
  PairEstimate est;
  est.common = EstimateCommonItemsFromLogTerms(n_u, n_v, log_alpha_term,
                                               log_beta_term);
  est.jaccard = JaccardFromCommon(est.common, n_u, n_v);
  return est;
}

double VosEstimator::JaccardFromCommon(double common, double n_u,
                                       double n_v) const {
  const double denom = n_u + n_v - common;
  double j;
  if (denom <= 0.0) {
    // Union estimated empty: identical (or both-empty) sets.
    j = common > 0.0 ? 1.0 : 0.0;
  } else {
    j = common / denom;
  }
  if (options_.clamp_to_feasible) j = std::clamp(j, 0.0, 1.0);
  return j;
}

PairEstimate VosEstimator::Estimate(double n_u, double n_v, double alpha,
                                    double beta) const {
  PairEstimate est;
  est.common = EstimateCommonItems(n_u, n_v, alpha, beta);
  est.jaccard = JaccardFromCommon(est.common, n_u, n_v);
  return est;
}

double VosEstimator::DeltaMethodVariance(double alpha) const {
  // ŝ = C − (k/4)·ln(1−2α): dŝ/dα = (k/2)/(1−2α); Var[α] ≈ α(1−α)/k.
  const double denom =
      std::max(std::fabs(1.0 - 2.0 * alpha), options_.log_arg_floor);
  const double a = std::clamp(alpha, 0.0, 1.0);
  return k_ * a * (1.0 - a) / (4.0 * denom * denom);
}

VosEstimator::IntervalEstimate VosEstimator::EstimateWithConfidence(
    double n_u, double n_v, double alpha, double beta, double z) const {
  IntervalEstimate interval;
  interval.common = EstimateCommonItems(n_u, n_v, alpha, beta);
  interval.sigma = std::sqrt(DeltaMethodVariance(alpha));
  interval.lo = interval.common - z * interval.sigma;
  interval.hi = interval.common + z * interval.sigma;
  if (options_.clamp_to_feasible) {
    const double cap = std::min(n_u, n_v);
    interval.lo = std::clamp(interval.lo, 0.0, cap);
    interval.hi = std::clamp(interval.hi, 0.0, cap);
  }
  return interval;
}

double VosEstimator::ExpectedAlpha(double n_delta, double beta) const {
  VOS_DCHECK(n_delta >= 0.0);
  const double b = 1.0 - 2.0 * beta;
  return 0.5 * (1.0 - b * b * std::exp(-2.0 * n_delta / k_));
}

double VosEstimator::ExpectedCommonEstimate(double s, double n_delta,
                                            double beta) const {
  // E[ŝ] ≈ s + 1/8 − k·β·e^{2nΔ/k}/(1−2β)² − e^{4nΔ/k}/(8(1−2β)⁴)
  const double b = 1.0 - 2.0 * beta;
  const double e2 = std::exp(2.0 * n_delta / k_);
  return s + 0.125 - (k_ * beta * e2) / (b * b) -
         (e2 * e2) / (8.0 * b * b * b * b);
}

double VosEstimator::VarianceCommonEstimate(double n_delta,
                                            double beta) const {
  // Var[ŝ] ≈ −k/16 + k²·β·e^{2nΔ/k}/(2(1−2β)²) + k·e^{4nΔ/k}/(16(1−2β)⁴)
  const double b = 1.0 - 2.0 * beta;
  const double e2 = std::exp(2.0 * n_delta / k_);
  return -static_cast<double>(k_) / 16.0 +
         (static_cast<double>(k_) * k_ * beta * e2) / (2.0 * b * b) +
         (k_ * e2 * e2) / (16.0 * b * b * b * b);
}

}  // namespace vos::core
