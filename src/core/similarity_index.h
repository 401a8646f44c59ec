// Snapshot and SimilarityIndex: the per-shard digest snapshots that
// QueryPlanner scans, and the incremental builder that patches them.
//
// The sketch answers one pair in O(k); applications usually want "who is
// most similar to u?" or "all pairs above J ≥ τ" over a candidate set
// (e.g. the currently active users). A Snapshot holds every candidate's
// reconstructed digest in one DigestMatrix with its cardinality and the
// sketch's β, so a pair estimate is one XOR+popcount row kernel
// (common/popcount.h) plus a log-table lookup. Rows are cardinality-sorted:
// the pair scan (core/pair_scan.h) turns the τ cardinality bound into a
// contiguous window over them. QueryPlanner (core/query_planner.h) holds
// one snapshot per shard and answers every query from their rows;
// AllPairsAboveReference is the scalar oracle over one snapshot (per-user
// BitVector digests, one estimator call per pair) that the planner's scan
// is asserted bit-identical against and bench/micro_query_path.cc
// measures speedups over.
//
// A Snapshot is one fixed moment of the stream: immutable once built,
// shared as std::shared_ptr<const Snapshot>, and holding no pointer to the
// sketch, so a reader may keep one while ingest goes on and later
// snapshots are published. Two builders give bit-identical snapshots:
// Snapshot::Build extracts every row and retains nothing (rebuild-only);
// SimilarityIndex captures refresh state with its first snapshot
// (Rebuild), then returns each next one by patching the changed digest
// bits into a copy of the last (RefreshDirty). QueryPlanner alone decides
// which builder serves a candidate set.
//
// Thread-safety contract: a Snapshot's methods are const and safe from any
// number of threads, also while later snapshots are built. Building reads
// the sketch — and SimilarityIndex consumes its dirty set — so it must not
// race with sketch Updates (quiesce with ShardedVosSketch::Flush first);
// one SimilarityIndex runs one Rebuild/RefreshDirty at a time. Neither
// builder writes a published snapshot.

#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/bit_vector.h"
#include "core/digest_matrix.h"
#include "core/scan_common.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"

namespace vos::core {

/// One immutable snapshot of a candidate set's digests (see above).
class Snapshot {
 public:
  /// One thresholded pair (record shared with the scan tier,
  /// core/scan_common.h: u / v / common / jaccard).
  using Pair = scan::Pair;

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// The empty snapshot: no candidates, β = 0.
  Snapshot() = default;

  /// The rebuild-only factory: extracts every candidate's row of `sketch`
  /// on `num_threads` workers (0 = hardware concurrency) and captures
  /// cardinalities and β. Starts no dirty tracking and retains nothing
  /// beyond the snapshot (k bits per candidate).
  static std::shared_ptr<const Snapshot> Build(
      const VosSketch& sketch, std::vector<UserId> candidates,
      VosEstimatorOptions options = {}, unsigned num_threads = 0);

  /// Scalar oracle over this snapshot: every unordered candidate pair
  /// with Ĵ ≥ `jaccard_threshold`, from per-user BitVector digests and one
  /// estimator (log) call per pair, single-threaded, in scan::PairBefore
  /// order. The ground truth for bit-identity tests and the bench
  /// baseline.
  std::vector<Pair> AllPairsAboveReference(double jaccard_threshold) const;

  size_t candidate_count() const { return candidates_->users.size(); }

  /// The candidate set in the caller's order (shared, not copied, by the
  /// snapshots one builder returns).
  const std::vector<UserId>& candidates() const { return candidates_->users; }

  /// β of the sketch at this snapshot.
  double beta() const { return beta_; }

  /// VosEstimator::LogBetaTerm(beta()), the β term of every estimate from
  /// this snapshot (the cross-shard planner combines two of these).
  double log_beta_term() const { return log_beta_term_; }

  /// Matrix row of `user` (first occurrence among candidates), or npos.
  size_t RowIndexOf(UserId user) const;

  /// All row cardinalities in matrix-row order (non-decreasing); the
  /// planner's cross-shard window search binary-searches this directly.
  const std::vector<uint32_t>& row_cardinalities() const {
    return cards_by_row_;
  }

  /// The packed digests. Row p belongs to candidate sorted_to_candidate(p)
  /// — ascending cardinality, ties by candidate index — so the all-pairs
  /// sweep streams contiguous memory.
  const DigestMatrix& matrix() const { return matrix_; }

  /// The candidate-list index owning matrix row p.
  size_t sorted_to_candidate(size_t p) const { return sorted_rows_[p]; }

  /// Fraction of candidates whose digest or cardinality changed since the
  /// previous snapshot of its builder (1.0 when every row was extracted).
  double last_refresh_dirty_fraction() const {
    return last_refresh_dirty_fraction_;
  }

 private:
  friend class SimilarityIndex;

  struct CandidateSet {
    std::vector<UserId> users;
    /// user → candidate index (first occurrence).
    std::unordered_map<UserId, size_t> index_of;
  };

  /// A snapshot of `candidates` with its row order and β but no rows yet;
  /// `cards` receives the cardinalities in candidate order.
  static std::shared_ptr<Snapshot> Start(const VosSketch& sketch,
                                         std::vector<UserId> candidates,
                                         VosEstimatorOptions options,
                                         std::vector<uint32_t>& cards);

  /// Takes `sorted_rows` as the row order and derives row_of_orig_ and
  /// cards_by_row_ from it and the candidate-order `cards`.
  void SetRowOrder(std::vector<uint32_t> sorted_rows,
                   const std::vector<uint32_t>& cards);

  std::shared_ptr<const CandidateSet> candidates_ =
      std::make_shared<const CandidateSet>();
  VosEstimator estimator_{0};
  DigestMatrix matrix_;
  /// Cardinalities aligned with matrix rows (non-decreasing).
  std::vector<uint32_t> cards_by_row_;
  /// sorted_rows_[p] = candidate index owning matrix row p.
  std::vector<uint32_t> sorted_rows_;
  /// row_of_orig_[i] = matrix row of candidate index i.
  std::vector<uint32_t> row_of_orig_;
  double beta_ = 0.0;
  double log_beta_term_ = 0.0;
  double last_refresh_dirty_fraction_ = 1.0;
};

/// The incremental builder of one sketch's snapshots (see above).
class SimilarityIndex {
 public:
  /// Binds to `sketch` (not owned; must outlive the builder).
  explicit SimilarityIndex(const VosSketch& sketch,
                           VosEstimatorOptions options = {})
      : sketch_(&sketch), options_(options) {}

  /// Starts the sketch's dirty tracking (VosSketch::StartDirtyTracking),
  /// snapshots `candidates` on `num_threads` workers (0 = hardware
  /// concurrency) and captures the refresh state: a copy of the array (m
  /// bits, plus 4 bytes per array word of offsets) and a cell-word →
  /// digest-bit inverse index (4 bytes per candidate-bit — 49 MiB at
  /// 2,000 candidates × k = 6400). Consumes the sketch's dirty set and
  /// returns the first snapshot; aborts unless IncrementalFits.
  std::shared_ptr<const Snapshot> Rebuild(std::vector<UserId> candidates,
                                          unsigned num_threads = 0);

  /// Returns the next snapshot of the SAME candidate set by patching the
  /// last one instead of re-extracting rows. Digest bit j of candidate i
  /// is A[f_j(u_i)], so every array bit that changed since the last
  /// snapshot flips exactly the digest bits of its owners — including
  /// shared-cell contamination flips caused by OTHER users' updates.
  /// Cardinalities are re-read for dirty users only (every cardinality
  /// change is a dirty user's); only the rows whose cardinality changed
  /// are re-sorted, then merged into the old order. The old rows are
  /// copied once into a fresh matrix in the new order and the changed
  /// bits flipped there (the last snapshot is only read). The result is
  /// bit-identical to Snapshot::Build of the same candidates at any delta
  /// size, asserted in tests. Consumes the sketch's dirty set. A sketch
  /// has at most one incremental consumer (VosSketch's dirty-tracking
  /// contract): when anyone else cleared the dirty set since this
  /// builder's last snapshot, RefreshDirty aborts instead of returning a
  /// stale snapshot.
  ///
  /// Cost: O(changed words + their inverse-index entries) — the sketch's
  /// changed-word summary (VosSketch::changed_words()) names the words to
  /// compare, and each entry costs one shift-and-test of its bit-offset
  /// tag — plus the n·k/64-word row-permute copy, an O(n) candidate pass
  /// and an O(c log c) sort of the c rows whose cardinality changed; no
  /// row is re-read in O(k) (bench/micro_ingest_path.cc times it against
  /// both builders). Runs on the calling thread.
  std::shared_ptr<const Snapshot> RefreshDirty();

  /// Bit position of the offset tag in an inverse-index entry: the low
  /// 26 bits hold the flat digest-bit index i·k + j, the top 6 bits the
  /// owning cell's in-word bit offset f_j(u_i) & 63.
  static constexpr uint32_t kEntryOffsetShift = 26;

  /// Whether an incremental Rebuild of `candidates` rows over m cells and
  /// k-bit digests fits its uint32 cells (m < 2³²) and its 26-bit flat
  /// digest-bit indices (candidates·k ≤ 2²⁶); one that does not fit
  /// aborts. The one size predicate: past it, snapshots stay rebuild-only.
  static bool IncrementalFits(uint64_t m, uint32_t k, size_t candidates) {
    return m <= uint64_t{0xffffffff} &&
           candidates * uint64_t{k} <= uint64_t{1} << kEntryOffsetShift;
  }

  /// The inverse index (empty before Rebuild): the digest bits backed by
  /// cells in array word w are the entries inverse_index_entries()
  /// [inverse_index_offsets()[w] .. inverse_index_offsets()[w + 1]), in
  /// ascending flat index; each is (f_j(u_i) & 63) << kEntryOffsetShift |
  /// (i·k + j) for bit j of candidate i. Exposed for tests.
  const std::vector<uint32_t>& inverse_index_offsets() const {
    return bucket_offsets_;
  }
  const std::vector<uint32_t>& inverse_index_entries() const {
    return bucket_entries_;
  }

 private:
  /// Rebuild's extraction: writes every candidate's row into `snapshot`
  /// (at its row_of_orig_) and builds the inverse index
  /// (bucket_offsets_/bucket_entries_) on `num_threads` workers. Results
  /// are identical for every thread count.
  void ExtractRowsAndInverseIndex(Snapshot& snapshot, unsigned num_threads);

  /// RefreshDirty's re-sort: sorts only the candidates in `moved` (flagged
  /// in `is_moved`), merges them into last_'s order of the others (the
  /// order a full sort gives) as `next`'s rows; returns each one's old row.
  std::vector<uint32_t> MergeMovedRows(std::vector<uint32_t> moved,
                                       const std::vector<uint8_t>& is_moved,
                                       Snapshot& next) const;

  const VosSketch* sketch_;
  VosEstimatorOptions options_;
  /// The last snapshot returned; RefreshDirty patches a copy of it.
  std::shared_ptr<const Snapshot> last_;
  /// Cardinalities in candidate order, as of last_.
  std::vector<uint32_t> cardinalities_;
  /// The sketch array words as of last_; RefreshDirty XORs (and re-syncs)
  /// only the words the changed-word summary flags against the live ones.
  std::vector<uint64_t> snapshot_words_;
  /// VosSketch::dirty_epoch() right after this builder's last clear; a
  /// different value at RefreshDirty means another consumer cleared.
  uint32_t dirty_epoch_ = 0;
  /// Counting-sorted inverse index over cell words: the digest bits owned
  /// by a cell in array word w are bucket_entries_[bucket_offsets_[w] ..
  /// bucket_offsets_[w+1]), each entry the flat index i·k + j (bit j of
  /// candidate i; fits 26 bits since n·k ≤ 2²⁶ is checked at Rebuild)
  /// tagged in its top 6 bits with the cell's in-word offset
  /// f_j(u_i) & 63. The refresh tests that tag against the changed bits,
  /// so a change flips only true cell owners (expected n·k/m per cell),
  /// not every bit sharing the 64-bit word.
  std::vector<uint32_t> bucket_offsets_;
  std::vector<uint32_t> bucket_entries_;
  /// RefreshDirty scratch, kept across refreshes: each changed word's XOR
  /// mask with its inverse-index bucket range.
  struct ChangedWord {
    uint64_t mask;
    uint32_t begin;
    uint32_t end;
  };
  std::vector<ChangedWord> refresh_words_;
};

}  // namespace vos::core
