// Random Pairing (Gemulla, Lehner, Haas — VLDB Journal'08) adapted to
// per-user similarity sampling, as sketched in §III of the paper.
//
// RP maintains a bounded uniform sample of an evolving set under insertions
// and deletions by *pairing* each uncompensated deletion with a later
// insertion. Following the paper, each user keeps k independent RP samplers
// of size 1; slot j of user u is a uniform random item φ_j(S_u) (whenever
// its compensation counters are drained). Slots are independent across j
// and across users, so for a pair (u, v)
//
//   P(φ_j(S_u) = φ_j(S_v)) = s_uv / (n_u·n_v),
//
// giving the unbiased estimator ŝ = n_u·n_v/k · Σ_j 1(φ_j(S_u) = φ_j(S_v)).
// (The paper's formula omits the 1/k normalization; without it ŝ would
// grow with k, since the sum counts up to k matching slots.)
// Unlike MinHash, matching slots carry no min-wise coordination, hence the
// much larger variance the paper observes (the match probability has
// denominator n_u·n_v instead of |S_u ∪ S_v|).
//
// Per-slot RP state (Gemulla's c1/c2): c1 counts uncompensated deletions of
// the sampled item, c2 those of other items. An insertion during
// compensation refills the slot with probability c1/(c1+c2); otherwise the
// standard size-1 reservoir step applies. Every slot must see every element
// of its user — O(k) per update, which is why RP sits with MinHash on the
// slow side of Figure 2.

#pragma once

#include <string>
#include <vector>

#include "baselines/estimate_util.h"
#include "common/random.h"
#include "core/similarity_method.h"

namespace vos::baseline {

using core::Element;
using core::PairEstimate;
using core::UserId;
using stream::Action;
using stream::ItemId;

/// Configuration of the RP baseline.
struct RandomPairingConfig {
  /// Number of independent size-1 RP samplers per user.
  uint32_t k = 100;
  uint64_t seed = 13;
  BaselineOptions options;
};

/// Random Pairing similarity estimator.
class RandomPairing : public core::SimilarityMethod {
 public:
  RandomPairing(const RandomPairingConfig& config, UserId num_users);

  std::string Name() const override { return "RP"; }

  void Update(const Element& e) override;

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  /// Modeled memory: k registers of 32 bits per user (§V accounting; the
  /// compensation counters are transient bookkeeping, charged analogously
  /// to the other methods' per-register metadata).
  size_t MemoryBits() const override {
    return static_cast<size_t>(config_.k) * 32 * num_users_;
  }

  uint32_t Cardinality(UserId u) const { return cardinality_[u]; }

  /// Slot state, exposed for the uniformity tests.
  struct Slot {
    ItemId item = 0;
    bool occupied = false;
    uint32_t c1 = 0;  ///< uncompensated deletions that hit the sample
    uint32_t c2 = 0;  ///< uncompensated deletions that missed the sample
  };

  const Slot& SlotAt(UserId u, uint32_t j) const {
    return slots_[static_cast<size_t>(u) * config_.k + j];
  }

  uint32_t k() const { return config_.k; }

 private:
  RandomPairingConfig config_;
  UserId num_users_;
  std::vector<Slot> slots_;  // num_users × k, row-major
  std::vector<uint32_t> cardinality_;
  Rng rng_;  // shared draw source; slots consume independent variates
};

}  // namespace vos::baseline
