// Shared estimator plumbing for the sampling baselines (§II–III).
//
// MinHash/OPH estimate the Jaccard coefficient J first and convert to
// the number of common items via the identity of §II:
//   s_uv = J·(n_u + n_v) / (J + 1).
// RP estimates s_uv directly and converts the other way:
//   J = s / (n_u + n_v − s).
// Both conversions live here, with the same feasible-range clamping the VOS
// estimator applies (ŝ into [0, min(n_u, n_v)] when
// BaselineOptions::clamp_to_feasible is set), so no method gets an unfair
// numeric advantage.

#pragma once

#include <algorithm>

#include "core/similarity_method.h"

namespace vos::baseline {

using core::PairEstimate;

/// Options shared by all baseline estimators.
struct BaselineOptions {
  /// Clamp ŝ to [0, min(n_u, n_v)] and Ĵ to [0, 1].
  bool clamp_to_feasible = true;
};

/// s = J·(n_u+n_v)/(J+1), optionally clamped.
inline PairEstimate FromJaccard(double jaccard, double n_u, double n_v,
                                const BaselineOptions& options) {
  PairEstimate est;
  est.jaccard = jaccard;
  est.common = jaccard * (n_u + n_v) / (jaccard + 1.0);
  if (options.clamp_to_feasible) {
    est.jaccard = std::clamp(est.jaccard, 0.0, 1.0);
    est.common = std::clamp(est.common, 0.0, std::min(n_u, n_v));
  }
  return est;
}

/// J = s/(n_u+n_v−s), optionally clamped.
inline PairEstimate FromCommon(double common, double n_u, double n_v,
                               const BaselineOptions& options) {
  PairEstimate est;
  est.common = common;
  const double denom = n_u + n_v - common;
  est.jaccard = denom <= 0.0 ? (common > 0.0 ? 1.0 : 0.0) : common / denom;
  if (options.clamp_to_feasible) {
    est.common = std::clamp(est.common, 0.0, std::min(n_u, n_v));
    est.jaccard = std::clamp(est.jaccard, 0.0, 1.0);
  }
  return est;
}

}  // namespace vos::baseline
