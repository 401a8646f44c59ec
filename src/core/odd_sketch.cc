#include "core/odd_sketch.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "hashing/seeds.h"

namespace vos::core {

OddSketch::OddSketch(uint32_t k, uint64_t seed) : seed_(seed), bits_(k) {
  VOS_CHECK(k >= 1) << "odd sketch needs at least one bit";
}

double OddSketch::EstimateSymmetricDifferenceFromAlpha(double alpha,
                                                       uint32_t k) {
  VOS_DCHECK(alpha >= 0.0 && alpha <= 1.0);
  // E[alpha] = (1 − (1 − 2/k)^{nΔ}) / 2 < 1/2: alpha ≥ 1/2 means the sketch
  // is saturated (nΔ ≫ k). Cap at the value an all-but-one-bit observation
  // would give, so callers get a finite, monotone estimate.
  const double arg = 1.0 - 2.0 * alpha;
  const double floor_arg = 1.0 / (2.0 * k);
  if (arg <= floor_arg) {
    return -0.5 * k * std::log(floor_arg);
  }
  return -0.5 * k * std::log(arg);
}

double OddSketch::EstimateSymmetricDifference(const OddSketch& a,
                                              const OddSketch& b) {
  VOS_CHECK(a.k() == b.k()) << "sketch size mismatch";
  VOS_CHECK(a.seed_ == b.seed_) << "sketches built with different ψ";
  const double d = static_cast<double>(a.bits_.HammingDistance(b.bits_));
  return EstimateSymmetricDifferenceFromAlpha(d / a.k(), a.k());
}

DedicatedOddSketchMethod::DedicatedOddSketchMethod(uint32_t bits_per_user,
                                                   UserId num_users,
                                                   uint64_t seed,
                                                   VosEstimatorOptions options)
    : bits_per_user_(bits_per_user),
      psi_seed_(hash::DeriveSeed(seed, 0x0dd)),
      estimator_(bits_per_user, options),
      sketches_(num_users, BitVector(bits_per_user)),
      cardinality_(num_users, 0) {
  VOS_CHECK(bits_per_user >= 1);
}

void DedicatedOddSketchMethod::Update(const Element& e) {
  const uint32_t bucket = static_cast<uint32_t>(
      hash::ReduceToRange(hash::Hash64(e.item, psi_seed_), bits_per_user_));
  sketches_[e.user].Flip(bucket);
  if (e.action == stream::Action::kInsert) {
    ++cardinality_[e.user];
  } else {
    VOS_DCHECK(cardinality_[e.user] > 0) << "deletion below zero" << e;
    --cardinality_[e.user];
  }
}

PairEstimate DedicatedOddSketchMethod::EstimatePair(UserId u,
                                                    UserId v) const {
  const double alpha =
      static_cast<double>(sketches_[u].HammingDistance(sketches_[v])) /
      bits_per_user_;
  // Dedicated storage has no cross-user contamination: β = 0.
  return estimator_.Estimate(cardinality_[u], cardinality_[v], alpha,
                             /*beta=*/0.0);
}

size_t DedicatedOddSketchMethod::MemoryBits() const {
  size_t total = 0;
  for (const BitVector& sketch : sketches_) total += sketch.MemoryBits();
  return total;
}

}  // namespace vos::core
