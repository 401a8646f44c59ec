// SimilarityMethod adapter for VOS: sketch + estimator + snapshot index.
//
// EstimatePair on raw VosSketch costs O(k) hash evaluations per user; with
// hundreds of tracked users and tens of thousands of tracked pairs per
// checkpoint that work is quadratic in pairs. PrepareQuery snapshots the
// tracked users once into a rebuild-only SimilarityIndex (digests
// extracted thread-parallel into one DigestMatrix, cardinalities and β
// captured with them), so a pair estimate is a single word-wise
// XOR+popcount row kernel plus a log-table lookup (no transcendental calls
// on the pair loop; see VosEstimator::EstimateFromLogTerms for the
// bit-identity argument). The index needs no dirty tracking, so the
// Figure-2 update path stays the paper's bare O(1) update. Batch queries
// (TopK, AllPairsAbove) over one sketch are QueryPlanner's: use
// ShardedVosMethod with one shard and its planner().

#pragma once

#include <memory>

#include "common/bit_vector.h"
#include "core/similarity_index.h"
#include "core/similarity_method.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"

namespace vos::core {

/// VOS as a pluggable SimilarityMethod.
class VosMethod : public SimilarityMethod {
 public:
  VosMethod(const VosConfig& config, UserId num_users,
            VosEstimatorOptions options = {});

  std::string Name() const override { return "VOS"; }

  void Update(const Element& e) override { sketch_.Update(e); }

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  size_t MemoryBits() const override { return sketch_.MemoryBits(); }

  void PrepareQuery(const std::vector<UserId>& users) override;
  void InvalidateQueryCache() override { index_.reset(); }
  void SetQueryThreads(unsigned num_threads) override {
    query_threads_ = num_threads;
  }

  const VosSketch& sketch() const { return sketch_; }
  const VosEstimator& estimator() const { return estimator_; }

 private:
  VosSketch sketch_;
  VosEstimator estimator_;
  /// ln|1−2·d/k| per Hamming distance d ∈ [0, k].
  std::vector<double> log_alpha_table_;
  /// The PrepareQuery snapshot (null until then and after
  /// InvalidateQueryCache).
  std::unique_ptr<SimilarityIndex> index_;
  unsigned query_threads_ = 0;
};

/// Ablation baseline: the dedicated (non-virtual) odd sketch of [9], one
/// private k-bit array per user. Same estimator with β = 0. Under an equal
/// total memory budget each user gets far fewer bits than VOS's virtual k
/// (no sharing), which is the design point the paper's virtualization
/// argument rests on.
class DedicatedOddSketchMethod : public SimilarityMethod {
 public:
  /// `bits_per_user` — k of each private odd sketch.
  DedicatedOddSketchMethod(uint32_t bits_per_user, UserId num_users,
                           uint64_t seed, VosEstimatorOptions options = {});

  std::string Name() const override { return "OddSketch"; }

  void Update(const Element& e) override;

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  size_t MemoryBits() const override;

 private:
  uint32_t bits_per_user_;
  uint64_t psi_seed_;
  VosEstimator estimator_;
  std::vector<BitVector> sketches_;
  std::vector<uint32_t> cardinality_;
};

}  // namespace vos::core
