// The equal-memory rule of §V and its translation to per-method parameters.
//
// The paper compares all methods "under the same memory size m = 32·k·|U|
// bits, where the memory size of each value of the k registers … is 32
// bits". Given the base register count k (k = 100 in Figure 3) and the user
// count |U|:
//
//   MinHash / OPH / RP : k registers of 32 bits per user
//   VOS                : one shared array of m = 32·k·|U| bits, with each
//                        user's *virtual* sketch sized k_vos = λ·32·k bits
//                        (λ = 2 in §V — virtual bits are free, only the
//                        shared array consumes memory)
//
// MemoryBudget performs these translations in one place so every bench and
// test sizes methods identically.

#pragma once

#include <cstdint>

#include "common/logging.h"

namespace vos::harness {

/// Equal-memory parameter calculator.
class MemoryBudget {
 public:
  /// `base_k` — registers per user of the baseline methods; `num_users` —
  /// |U| of the stream (the shared-array sizing needs it).
  MemoryBudget(uint32_t base_k, uint64_t num_users)
      : base_k_(base_k), num_users_(num_users) {
    VOS_CHECK(base_k >= 1);
    VOS_CHECK(num_users >= 1);
  }

  /// Total budget in bits: m = 32·k·|U|.
  uint64_t TotalBits() const { return 32ULL * base_k_ * num_users_; }

  /// Per-user budget in bits: 32·k.
  uint64_t BitsPerUser() const { return 32ULL * base_k_; }

  /// Register count for MinHash / OPH / RP.
  uint32_t BaselineK() const { return base_k_; }

  /// Virtual odd-sketch size for VOS at multiplier λ: k_vos = λ·32·k.
  uint32_t VosVirtualK(double lambda) const {
    VOS_CHECK(lambda > 0.0);
    const double k = lambda * static_cast<double>(BitsPerUser());
    VOS_CHECK(k >= 1.0 && k <= 4e9) << "virtual k out of range:" << k;
    return static_cast<uint32_t>(k);
  }

  /// Shared-array size for VOS: the whole budget.
  uint64_t VosArrayBits() const { return TotalBits(); }

  uint64_t num_users() const { return num_users_; }

 private:
  uint32_t base_k_;
  uint64_t num_users_;
};

}  // namespace vos::harness
