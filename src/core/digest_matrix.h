// DigestMatrix: all candidate digests in one contiguous packed buffer.
//
// The batch query engine's storage layout. Row i holds candidate i's
// reconstructed k-bit virtual odd sketch Ô_u, bit-packed into
// words_per_row() uint64_t words (k padded up to a word boundary; pad bits
// are zero, so XOR+popcount over whole rows is exactly the k-bit Hamming
// distance). Rows are row-major in one allocation: the O(U²) all-pairs
// loop streams memory linearly instead of chasing one heap-allocated
// BitVector per user.
//
// Build() extracts every row with a thread-parallel pass over disjoint row
// ranges. Each row extraction walks the sketch's cached per-j f-seed table
// (VosSketch::f_seed_table()) — one Hash64 per bit, no per-bit
// DeriveSeed — and packs bits 64 at a time with a single store per word.
// The result is bit-identical to VosSketch::ExtractUserSketch for every
// user, regardless of thread count (rows are written by exactly one
// thread).
//
// Thread-safety: immutable after Build(); all accessors are const and safe
// to call concurrently.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bit_vector.h"
#include "core/vos_sketch.h"

namespace vos::core {

class DigestMatrix {
 public:
  /// An empty matrix (rows() == 0).
  DigestMatrix() = default;

  /// A matrix of `rows` k-bit rows whose words are left uninitialized:
  /// callers write every word of every row via MutableRow (ExtractRow
  /// writes the pad bits too; the incremental index permutes the previous
  /// snapshot's rows into it, then flips the changed bits).
  DigestMatrix(uint32_t k, size_t rows)
      : k_(k),
        num_rows_(rows),
        words_per_row_(WordsPerRow(k)),
        words_(std::make_unique_for_overwrite<uint64_t[]>(rows *
                                                          words_per_row_)) {}

  /// Extracts one row per user in `users`, in order, using `num_threads`
  /// worker threads (0 = std::thread::hardware_concurrency()).
  static DigestMatrix Build(const VosSketch& sketch,
                            const std::vector<UserId>& users,
                            unsigned num_threads = 0);

  /// Extracts user `user`'s digest into dst[0 .. WordsPerRow(k)), packing
  /// the same bits as sketch.ExtractUserSketch(user); pad bits are zeroed.
  /// When `cells` is non-null it additionally records the k cell indices
  /// f_j(user) into cells[0..k) (m must fit uint32) — the incremental
  /// index counts them at Rebuild to size its inverse-index partitions.
  static void ExtractRow(const VosSketch& sketch, UserId user, uint64_t* dst,
                         uint32_t* cells = nullptr);

  /// Words needed for one k-bit row.
  static size_t WordsPerRow(uint32_t k) {
    return (static_cast<size_t>(k) + 63) / 64;
  }

  size_t rows() const { return num_rows_; }
  uint32_t k() const { return k_; }
  size_t words_per_row() const { return words_per_row_; }
  bool empty() const { return num_rows_ == 0; }

  /// Raw words of row i (words_per_row() of them).
  const uint64_t* Row(size_t i) const {
    VOS_DCHECK(i < num_rows_) << "row" << i << "of" << num_rows_;
    return words_.get() + i * words_per_row_;
  }

  /// Writable words of row i (distinct rows may be filled concurrently).
  uint64_t* MutableRow(size_t i) {
    VOS_DCHECK(i < num_rows_) << "row" << i << "of" << num_rows_;
    return words_.get() + i * words_per_row_;
  }

  /// Row i as a standalone BitVector (reference/test path; copies).
  BitVector RowAsBitVector(size_t i) const;

  /// Payload bytes (diagnostics).
  size_t MemoryBytes() const {
    return num_rows_ * words_per_row_ * sizeof(uint64_t);
  }

  void Clear() { *this = DigestMatrix(); }

 private:
  uint32_t k_ = 0;
  size_t num_rows_ = 0;
  size_t words_per_row_ = 0;
  std::unique_ptr<uint64_t[]> words_;
};

/// Resolves a thread-count request: 0 means hardware concurrency; the
/// result is clamped to [1, work_items] so empty/small workloads never
/// spawn idle threads.
unsigned ResolveThreadCount(unsigned requested, size_t work_items);

}  // namespace vos::core
