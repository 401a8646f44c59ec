#include "core/vos_method.h"

#include "common/popcount.h"

namespace vos::core {

VosMethod::VosMethod(const VosConfig& config, UserId num_users,
                     VosEstimatorOptions options)
    : sketch_(config, num_users),
      estimator_(config.k, options),
      log_alpha_table_(estimator_.BuildLogAlphaTable()) {}

void VosMethod::PrepareQuery(const std::vector<UserId>& users) {
  QueryOptions options;
  options.num_threads = query_threads_;
  index_ = std::make_unique<SimilarityIndex>(sketch_, estimator_.options(),
                                             options);
  index_->Rebuild(users);
}

PairEstimate VosMethod::EstimatePair(UserId u, UserId v) const {
  if (index_ != nullptr) {
    const size_t pu = index_->RowIndexOf(u);
    const size_t pv = index_->RowIndexOf(v);
    if (pu != SimilarityIndex::npos && pv != SimilarityIndex::npos) {
      // Fast path: both users in the snapshot — row kernel + log-table
      // lookup, bit-identical to the BitVector path below by construction.
      const DigestMatrix& matrix = index_->matrix();
      const size_t d =
          XorPopcount(matrix.Row(pu), matrix.Row(pv), matrix.words_per_row());
      return estimator_.EstimateFromLogTerms(
          index_->row_cardinality(pu), index_->row_cardinality(pv),
          log_alpha_table_[d], index_->log_beta_term());
    }
  }
  const BitVector du = sketch_.ExtractUserSketch(u);
  const BitVector dv = sketch_.ExtractUserSketch(v);
  const double alpha =
      static_cast<double>(du.HammingDistance(dv)) / sketch_.config().k;
  return estimator_.Estimate(sketch_.Cardinality(u), sketch_.Cardinality(v),
                             alpha, sketch_.beta());
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
  if (e.action == Action::kInsert) {
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
