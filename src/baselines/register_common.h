// Register storage shared by the min-wise baselines (MinHash, OPH).
//
// A register remembers the current minimum-rank item of a sample slot:
// {rank, item}, with rank == kEmptyRank marking an empty slot. Ranks come
// from one of two sources (HashMode):
//
//   * kMixer — rank = Hash64(item, seed) truncated to 31 bits. Fast; tiny
//     collision probability (≈|S|²/2³¹ per pair of items).
//   * kFeistel — rank = π(item) for an exact random permutation π of the
//     item domain, matching the formal definition of MinHash/OPH in §III.
//
// Matching compares *items*, not ranks, so a rank collision can only affect
// which item wins a minimum, never create a spurious match.

#pragma once

#include <cstdint>
#include <memory>

#include "hashing/feistel_permutation.h"
#include "hashing/hash64.h"
#include "stream/element.h"

namespace vos::baseline {

using stream::ItemId;

/// How min-wise ranks are computed. kMixer is the default everywhere; the
/// correctness-focused tests also run kFeistel (exact permutations).
enum class HashMode : uint8_t {
  kMixer = 0,
  kFeistel = 1,
};

/// Sentinel rank for an empty register.
inline constexpr uint32_t kEmptyRank = 0xffffffffu;

/// One sample slot: the minimum-rank item seen (and still live) so far.
struct MinRegister {
  uint32_t rank = kEmptyRank;
  ItemId item = 0;

  bool occupied() const { return rank != kEmptyRank; }
  void Clear() {
    rank = kEmptyRank;
    item = 0;
  }
};

/// Rank source abstraction over the two modes. Ranks are < 2^31, so they
/// can never equal kEmptyRank.
class RankFunction {
 public:
  /// `domain_size` — |I|; used only by kFeistel (exact permutation of the
  /// item domain).
  RankFunction(HashMode mode, uint64_t seed, uint64_t domain_size)
      : mode_(mode),
        seed_(seed),
        permutation_(mode == HashMode::kFeistel
                         ? std::make_unique<hash::FeistelPermutation>(
                               seed, domain_size)
                         : nullptr),
        domain_size_(domain_size) {}

  uint32_t Rank(ItemId item) const {
    if (mode_ == HashMode::kMixer) {
      return static_cast<uint32_t>(hash::Hash64(item, seed_) >> 33);
    }
    return static_cast<uint32_t>(permutation_->Apply(item));
  }

  /// Size of the rank domain p: 2^31 for kMixer, |I| for kFeistel. OPH
  /// derives its bin boundaries from this.
  uint64_t RankDomain() const {
    return mode_ == HashMode::kMixer ? (uint64_t{1} << 31) : domain_size_;
  }

  HashMode mode() const { return mode_; }

 private:
  HashMode mode_;
  uint64_t seed_;
  std::unique_ptr<hash::FeistelPermutation> permutation_;
  uint64_t domain_size_;
};

}  // namespace vos::baseline
