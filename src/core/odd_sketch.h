// Odd sketch (Mitzenmacher, Pagh, Pham — WWW'14), built directly over item
// sets.
//
// A k-bit array where bit j stores the parity of |{i ∈ S : ψ(i) = j}|.
// Inserting and deleting an item are the *same* XOR of one bit, so the
// sketch is exactly correct under fully dynamic updates — the property VOS
// inherits (§IV: "any two elements (u,i,+) and (u,i,−) … offset to each
// other"). The symmetric difference |S_a Δ S_b| is estimated from the
// fraction of 1-bits in the XOR of two sketches.
//
// VOS differs from this dedicated sketch by storing the k bits virtually in
// a shared array (core/vos_sketch.h); the dedicated variant is kept both as
// a building block of the analysis and, as DedicatedOddSketchMethod, as an
// ablation baseline.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bit_vector.h"
#include "core/similarity_method.h"
#include "core/vos_estimator.h"
#include "hashing/hash64.h"
#include "stream/element.h"

namespace vos::core {

using stream::ItemId;

/// Dedicated k-bit odd sketch of one item set.
class OddSketch {
 public:
  /// Creates an empty sketch with `k ≥ 1` bits; `seed` keys the item→bit
  /// map ψ (two sketches are comparable iff built with the same seed and k).
  OddSketch(uint32_t k, uint64_t seed);

  /// XORs `item` into the sketch: call once to insert, once more to delete.
  void Toggle(ItemId item) { bits_.Flip(BucketOf(item)); }

  /// ψ(item) — the bit index this item toggles.
  uint32_t BucketOf(ItemId item) const {
    return static_cast<uint32_t>(
        hash::ReduceToRange(hash::Hash64(item, seed_), bits_.size()));
  }

  /// The underlying bits.
  const BitVector& bits() const { return bits_; }

  uint32_t k() const { return static_cast<uint32_t>(bits_.size()); }
  uint64_t seed() const { return seed_; }

  /// Number of 1-bits (odd-parity buckets).
  size_t Ones() const { return bits_.ones(); }

  /// Estimates |S_a Δ S_b| from two sketches with identical (k, seed):
  /// n̂_Δ = −(k/2)·ln(1 − 2·d/k) where d is the Hamming distance between
  /// the sketches. Returns +∞-capped value k·ln(2k)/2 when d ≥ k/2 (the
  /// sketch is saturated).
  static double EstimateSymmetricDifference(const OddSketch& a,
                                            const OddSketch& b);

  /// The same estimator given only the observed 1-bit fraction `alpha` of
  /// the XOR of two k-bit odd sketches.
  static double EstimateSymmetricDifferenceFromAlpha(double alpha, uint32_t k);

  size_t MemoryBits() const { return bits_.MemoryBits(); }

 private:
  uint64_t seed_;
  BitVector bits_;
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
