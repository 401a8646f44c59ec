// MinHash (Broder et al.) extended to fully dynamic streams per §III.
//
// k independent rank functions h_1..h_k; register j of user u holds
// φ_j(S_u), the item of S_u with minimum rank under h_j. Per element:
//
//   insert i: for each j, claim the register if i's rank is smaller
//             (or the register is empty)                        — O(k)
//   delete i: for each j, if φ_j(S_u) == i, clear the register  — O(k)
//
// The deletion rule is the natural streaming extension the paper analyzes:
// the true new minimum cannot be recovered from the register alone, so the
// slot goes empty and only refills on later insertions. This is exactly the
// *sampling bias* of §III — after deletions the surviving registers are not
// uniform samples of S_u — and it is the effect Figure 3 quantifies. The
// bias is inherent to the method, not an implementation shortcut.
//
// Estimator: Ĵ = (Σ_j 1(φ_j(S_u) = φ_j(S_v) ≠ ∅)) / k, then
// ŝ = Ĵ·(n_u+n_v)/(Ĵ+1).

#pragma once

#include <string>
#include <vector>

#include "baselines/estimate_util.h"
#include "baselines/register_common.h"
#include "core/similarity_method.h"

namespace vos::baseline {

using core::Element;
using core::PairEstimate;
using core::UserId;
using stream::Action;

/// Configuration of the MinHash baseline.
struct MinHashConfig {
  /// Number of registers (hash functions) per user.
  uint32_t k = 100;
  HashMode hash_mode = HashMode::kMixer;
  uint64_t seed = 7;
  BaselineOptions options;
};

/// Dynamic MinHash over all users of a stream.
class MinHash : public core::SimilarityMethod {
 public:
  /// `num_items` is the item-domain size (needed for exact permutations).
  MinHash(const MinHashConfig& config, UserId num_users, uint64_t num_items);

  std::string Name() const override { return "MinHash"; }

  void Update(const Element& e) override;

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  /// Modeled memory: k registers of 32 bits per user (the paper's
  /// accounting; §V fixes 32 bits per register value).
  size_t MemoryBits() const override {
    return static_cast<size_t>(config_.k) * 32 * num_users_;
  }

  /// Register j of user u (tests read these).
  const MinRegister& RegisterAt(UserId u, uint32_t j) const {
    return registers_[static_cast<size_t>(u) * config_.k + j];
  }

  uint32_t k() const { return config_.k; }
  uint32_t Cardinality(UserId u) const { return cardinality_[u]; }

 private:
  MinHashConfig config_;
  UserId num_users_;
  std::vector<RankFunction> rank_functions_;  // one per register index
  std::vector<MinRegister> registers_;        // num_users × k, row-major
  std::vector<uint32_t> cardinality_;
};

}  // namespace vos::baseline
