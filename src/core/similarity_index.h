// SimilarityIndex: the per-shard digest snapshot that QueryPlanner scans.
//
// The sketch answers one pair in O(k); applications usually want "who is
// most similar to u?" or "all pairs above J ≥ τ" over a candidate set
// (e.g. the currently active users). Rebuild() snapshots every candidate's
// reconstructed digest into a DigestMatrix — one contiguous packed buffer,
// filled by a thread-parallel extraction pass over the sketch's cached
// f-seed table — with its cardinality and the sketch's β, so a pair
// estimate is one word-wise XOR+popcount row kernel (common/popcount.h)
// plus a log-table lookup. Rows are stored in cardinality-sorted order:
// the pair scan (core/pair_scan.h) turns the τ cardinality bound into a
// contiguous window over them.
//
// The index runs no query of its own. QueryPlanner (core/query_planner.h)
// holds one index per shard and answers TopK, AllPairsAbove and per-pair
// estimates (EstimatePair, which ShardedVosMethod delegates to) from
// their rows. AllPairsAboveReference is the scalar oracle over this one
// snapshot (per-user BitVector digests, one estimator call per pair): the
// ground truth the planner's scan is asserted bit-identical against, and
// the baseline bench/micro_query_path.cc measures speedups over.
//
// The index is a *snapshot*: rows reflect the sketch state at the last
// Rebuild() or RefreshDirty(). Re-snapshot after ingesting more stream
// (cheap relative to re-scanning pairs).
//
// Thread-safety contract: Rebuild() and RefreshDirty() mutate the index
// and must not run concurrently with readers (or each other). Between
// snapshots the index is immutable and its accessors are safe to call
// concurrently from any number of threads. Snapshot calls additionally
// read — and, under QueryOptions::incremental, consume — the bound
// sketch's dirty set, so they must not race with sketch Updates either;
// quiesce the ingest pipeline (ShardedVosSketch::Flush) before
// snapshotting.

#pragma once

#include <unordered_map>
#include <vector>

#include "common/bit_vector.h"
#include "core/digest_matrix.h"
#include "core/scan_common.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"

namespace vos::core {

/// Tunables of the snapshot and of the planner's queries.
struct QueryOptions {
  /// Worker threads of Rebuild and of QueryPlanner::AllPairsAbove;
  /// RefreshDirty and TopK run on the calling thread
  /// (0 = std::thread::hardware_concurrency()).
  unsigned num_threads = 0;
  /// Rows per tile edge of the planner's all-pairs scan
  /// (core/pair_scan.h): every triangle/rectangle pass is decomposed into
  /// tile_rows × tile_rows row tiles, each one work unit on the pool, so
  /// a hot shard's triangle parallelizes and candidate sets beyond the
  /// LLC stay cache-resident per tile. 0 = optimizer::AdaptiveTileRows,
  /// sized from the digest row width and the detected per-core cache
  /// (648 rows at k = 6400 with a 2 MiB L2); any value ≥ the candidate
  /// count degenerates to one tile per pass. Results are bit-identical
  /// for every value.
  size_t tile_rows = 0;
  /// Retain incremental-maintenance state at Rebuild so RefreshDirty()
  /// can run: a copy of the sketch array (m bits, plus 4 bytes per array
  /// word of inverse-index offsets) and a cell-word → digest-bit inverse
  /// index (4 bytes per candidate-bit — e.g. 2,000 candidates × k=6400 ≈
  /// 49 MiB). Each RefreshDirty additionally holds the old and the next
  /// digest matrix (k/8 bytes per candidate each) until it returns.
  /// Rebuild extracts each row once, recording its cells, and builds the
  /// inverse index with a two-level counting sort that re-hashes every
  /// cell twice (no array reads); leave off for rebuild-only indexes.
  bool incremental = false;
};

/// Snapshot index over a candidate set of users.
class SimilarityIndex {
 public:
  /// One thresholded pair (record shared with the scan tier,
  /// core/scan_common.h: u / v / common / jaccard).
  using Pair = scan::Pair;

  /// Binds to `sketch` (not owned; must outlive the index).
  explicit SimilarityIndex(const VosSketch& sketch,
                           VosEstimatorOptions options = {},
                           QueryOptions query_options = {});

  /// Snapshots digests, cardinalities and β for `candidates` (extraction
  /// runs on QueryOptions::num_threads workers). With
  /// QueryOptions::incremental it additionally starts the sketch's dirty
  /// tracking (VosSketch::StartDirtyTracking), captures the refresh
  /// state (snapshot array, inverse index) and consumes the sketch's
  /// dirty set.
  void Rebuild(std::vector<UserId> candidates);

  /// Incrementally re-snapshots the SAME candidate set by patching the
  /// last snapshot (Rebuild() or RefreshDirty()) instead of re-extracting
  /// rows. Digest bit j of candidate i is A[f_j(u_i)], so every array bit
  /// that changed since the last snapshot flips exactly the digest bits
  /// of its owners — including shared-cell contamination flips caused by
  /// OTHER users' updates. Cardinalities are re-read for dirty users only
  /// (every cardinality change is a dirty user's). The old rows are
  /// copied into the new cardinality-sorted order, the changed bits are
  /// flipped in that copy (the published snapshot is never written), and
  /// β is recaptured. The result is bit-identical to
  /// Rebuild(candidates) at any delta size, asserted in tests. Requires
  /// QueryOptions::incremental and a prior Rebuild(); consumes the
  /// sketch's dirty set. A sketch has at most one incremental consumer
  /// (VosSketch's dirty-tracking contract): when anyone else cleared the
  /// dirty set since this index's last snapshot, the cardinality changes
  /// it held are lost to this index, so RefreshDirty aborts instead of
  /// returning a stale snapshot.
  ///
  /// Cost: O(changed words + their inverse-index entries) — the sketch's
  /// changed-word summary (VosSketch::changed_words(), m/4096 words) names
  /// the words to compare, and each entry costs one f_j hash — plus the
  /// n·k/64-word row-permute copy and an O(n) pass over the candidates.
  /// No row is re-read in O(k) and no array word outside the summary is
  /// read, whatever the delta size (bench/micro_ingest_path.cc times it
  /// against Rebuild up to a delta larger than the stream). Runs on the
  /// calling thread.
  void RefreshDirty();

  /// Whether an incremental Rebuild of `candidates` rows over m cells and
  /// k-bit digests fits its uint32 cells and flat digest-bit indices
  /// (m, candidates·k < 2³²); one that does not fit aborts.
  static bool IncrementalFits(uint64_t m, uint32_t k, size_t candidates) {
    return m <= uint64_t{0xffffffff} &&
           candidates * uint64_t{k} <= uint64_t{0xffffffff};
  }

  /// True once Rebuild() has captured incremental state (i.e.
  /// RefreshDirty() may be called).
  bool CanRefresh() const {
    return query_options_.incremental && !snapshot_words_.empty();
  }

  /// Scalar oracle over this snapshot: every unordered candidate pair
  /// with Ĵ ≥ `jaccard_threshold`, from per-user BitVector digests and one
  /// estimator (log) call per pair, single-threaded, in scan::PairBefore
  /// order. The ground truth for bit-identity tests and the bench
  /// baseline.
  std::vector<Pair> AllPairsAboveReference(double jaccard_threshold) const;

  size_t candidate_count() const { return candidates_.size(); }

  /// The candidate set of the last Rebuild, in the caller's order.
  const std::vector<UserId>& candidates() const { return candidates_; }

  /// β captured at the last Rebuild (exposed for diagnostics).
  double snapshot_beta() const { return beta_; }

  /// VosEstimator::LogBetaTerm(snapshot_beta()) — the β log term every
  /// estimate from this snapshot uses. The cross-shard query planner
  /// combines two of these (core/query_planner.h).
  double log_beta_term() const { return log_beta_term_; }

  /// Matrix row of `user` (first occurrence among candidates), or npos.
  /// The planner and the methods read snapshot rows by user through this.
  size_t RowIndexOf(UserId user) const;

  /// Cardinality snapshot of matrix row p (rows are cardinality-sorted).
  uint32_t row_cardinality(size_t p) const { return cards_by_row_[p]; }

  /// All row cardinalities in matrix-row order (non-decreasing); the
  /// planner's cross-shard window search binary-searches this directly.
  const std::vector<uint32_t>& row_cardinalities() const {
    return cards_by_row_;
  }

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// The packed digest snapshot. Rows are stored in cardinality-sorted
  /// order — row p belongs to candidate sorted_to_candidate(p) — so the
  /// all-pairs sweep streams contiguous memory.
  const DigestMatrix& matrix() const { return matrix_; }

  /// The candidate-list index owning matrix row p.
  size_t sorted_to_candidate(size_t p) const { return sorted_rows_[p]; }

  /// The incremental inverse index (both empty unless CanRefresh()): the
  /// digest bits backed by cells in array word w are the flat indices
  /// i·k + j (bit j of candidate i) in inverse_index_entries()
  /// [inverse_index_offsets()[w] .. inverse_index_offsets()[w + 1]),
  /// ascending. Exposed for tests and diagnostics.
  const std::vector<uint32_t>& inverse_index_offsets() const {
    return bucket_offsets_;
  }
  const std::vector<uint32_t>& inverse_index_entries() const {
    return bucket_entries_;
  }

  const QueryOptions& query_options() const { return query_options_; }
  void set_query_options(const QueryOptions& options) {
    query_options_ = options;
  }

  /// Fraction of candidates whose digest or cardinality changed in the
  /// last RefreshDirty (1.0 after a full Rebuild).
  double last_refresh_dirty_fraction() const {
    return last_refresh_dirty_fraction_;
  }

 private:
  /// The incremental Rebuild's snapshot: extracts every candidate's row
  /// into matrix_ (at row_of_orig_) and builds the inverse index
  /// (bucket_offsets_/bucket_entries_) on QueryOptions::num_threads
  /// workers. Results are identical for every thread count.
  void ExtractRowsAndInverseIndex();

  /// Recomputes the cardinality-sorted order, the row ↔ candidate maps
  /// and cards_by_row_ from cardinalities_ (shared by Rebuild and
  /// RefreshDirty, so both produce the identical deterministic order).
  void SortRowsAndMaps();

  const VosSketch* sketch_;
  VosEstimator estimator_;
  QueryOptions query_options_;
  std::vector<UserId> candidates_;
  /// Digest rows in cardinality-sorted order (ties by candidate index):
  /// the sweep order that turns the τ cardinality bound into a loop break
  /// while streaming the matrix contiguously.
  DigestMatrix matrix_;
  /// Cardinalities in candidate order (reference paths, diagnostics).
  std::vector<uint32_t> cardinalities_;
  /// Cardinalities aligned with matrix rows (non-decreasing).
  std::vector<uint32_t> cards_by_row_;
  /// sorted_rows_[p] = candidate index owning matrix row p.
  std::vector<uint32_t> sorted_rows_;
  /// row_of_orig_[i] = matrix row of candidate index i.
  std::vector<uint32_t> row_of_orig_;
  /// user → candidate index (first occurrence). Built by Rebuild only:
  /// RefreshDirty keeps the candidate list, so the map stays valid.
  std::unordered_map<UserId, size_t> candidate_of_;
  double beta_ = 0.0;
  /// VosEstimator::LogBetaTerm(beta_), captured at Rebuild.
  double log_beta_term_ = 0.0;
  /// Affected fraction of the last snapshot (1.0 for a full Rebuild).
  double last_refresh_dirty_fraction_ = 1.0;

  // --- Incremental-maintenance state (QueryOptions::incremental) -------
  /// The sketch array words as of the last snapshot; XOR against the live
  /// words localizes every changed cell. RefreshDirty compares and
  /// re-syncs only the words the sketch's changed-word summary flags, so
  /// no full copy or compare is ever repeated.
  std::vector<uint64_t> snapshot_words_;
  /// VosSketch::dirty_epoch() right after this index's last clear; a
  /// different value at RefreshDirty means another consumer cleared.
  uint32_t dirty_epoch_ = 0;
  /// Counting-sorted inverse index over cell words: the digest bits owned
  /// by a cell in array word w are bucket_entries_[bucket_offsets_[w] ..
  /// bucket_offsets_[w+1]), each entry the flat index i·k + j (bit j of
  /// candidate i; fits 32 bits since n·k < 2³² is checked at Rebuild).
  /// The refresh tests the exact changed bit, f_j(u_i) & 63, so a
  /// change flips only true cell owners (expected n·k/m per cell), not
  /// every bit sharing the 64-bit word.
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
