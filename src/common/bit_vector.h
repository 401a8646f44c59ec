// BitVector: a fixed-size bit array with O(1) flip/get and an exact,
// incrementally maintained count of 1-bits.
//
// This is the storage substrate for the shared VOS array A and the per-user
// odd sketches read out of it. The paper tracks the fraction of 1-bits β
// with a floating-point running update (§IV); we instead maintain an exact
// integer counter updated on every mutation, so β = ones() / size() is
// exact at all times, where a floating-point sum drifts with rounding.

#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace vos {

/// Fixed-size bit array backed by 64-bit words.
///
/// All single-bit operations are O(1); `ones()` is O(1) because the 1-bit
/// count is maintained incrementally. Not thread-safe (callers own
/// synchronization, as in the single-writer streaming model of the paper).
class BitVector {
 public:
  /// Creates an all-zero bit vector with `num_bits` bits.
  explicit BitVector(size_t num_bits = 0)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0), ones_(0) {}

  /// Number of addressable bits.
  size_t size() const { return num_bits_; }

  /// Exact number of 1-bits; O(1).
  size_t ones() const { return ones_; }

  /// Fraction of 1-bits (β in the paper); 0 for an empty vector.
  double FractionOnes() const {
    return num_bits_ == 0 ? 0.0 : static_cast<double>(ones_) / num_bits_;
  }

  /// Returns bit `pos`.
  bool Get(size_t pos) const {
    VOS_DCHECK(pos < num_bits_) << "pos=" << pos << " size=" << num_bits_;
    return (words_[pos >> 6] >> (pos & 63)) & 1;
  }

  /// XORs bit `pos` with 1 and returns its new value.
  ///
  /// This is the single operation VOS performs per stream element
  /// (A[f_ψ(i)(u)] ← A[f_ψ(i)(u)] ⊕ 1).
  bool Flip(size_t pos) {
    VOS_DCHECK(pos < num_bits_) << "pos=" << pos << " size=" << num_bits_;
    const uint64_t mask = uint64_t{1} << (pos & 63);
    uint64_t& word = words_[pos >> 6];
    word ^= mask;
    const bool now_set = (word & mask) != 0;
    ones_ += now_set ? 1 : -1;
    return now_set;
  }

  /// Resets all bits to zero, keeping the size.
  void Clear() {
    std::fill(words_.begin(), words_.end(), 0);
    ones_ = 0;
  }

  /// Number of positions where this and `other` differ (Hamming distance).
  /// Both vectors must have the same size. O(size/64).
  size_t HammingDistance(const BitVector& other) const;

  /// Memory footprint of the payload in bits (excluding object header); this
  /// is what the equal-memory harness accounts for.
  size_t MemoryBits() const { return words_.size() * 64; }

  /// Raw 64-bit words backing the vector (for serialization); bit i lives
  /// at words()[i/64] >> (i%64).
  const std::vector<uint64_t>& words() const { return words_; }

  /// Reconstructs a vector from serialized words. Bits beyond `num_bits` in
  /// the last word must be zero (checked), so equality and popcounts stay
  /// canonical.
  static BitVector FromWords(size_t num_bits, std::vector<uint64_t> words);

  bool operator==(const BitVector& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

 private:
  size_t num_bits_;
  std::vector<uint64_t> words_;
  size_t ones_;
};

}  // namespace vos
