// SimilarityIndex: batched, parallel similarity queries over a VOS sketch.
//
// The sketch answers one pair in O(k); applications usually want "who is
// most similar to u?" or "all pairs above J ≥ τ" over a candidate set
// (e.g. the currently active users). Rebuild() snapshots every candidate's
// reconstructed digest into a DigestMatrix — one contiguous packed buffer,
// filled by a thread-parallel extraction pass over the sketch's cached
// f-seed table — after which a pair estimate is one word-wise XOR+popcount
// row kernel (common/popcount.h) plus a table lookup:
//
//   * ŝ depends on the Hamming distance d only through ln|1−2·d/k|, which
//     takes k+1 values; Rebuild-time tabulation removes every log/divide
//     from the O(U²) loop (bit-identical by construction — see
//     VosEstimator::EstimateFromLogTerms).
//   * AllPairsAbove runs on the shared tiled pair-scan tier
//     (core/pair_scan.h): the triangle is decomposed into cache-sized
//     row×row tiles, each an independent work unit with its own result
//     buffer, merged and canonically sorted at the end; results are
//     bit-identical for every thread count and tile size.
//   * A conservative prefilter converts the Jaccard threshold into
//     cardinality and alpha (log-term) bounds. Because Ĵ ≥ τ forces
//     min(n_u,n_v) ≥ τ/(1+τ)·(n_u+n_v), the all-pairs sweep runs in
//     cardinality-sorted order: the admissible partners of each row form a
//     contiguous window, and the inner loop breaks at its end — hopeless
//     pairs are never enumerated, let alone popcounted. Pairs inside the
//     window whose Hamming distance rules τ out are skipped before the
//     estimator. All slacks are chosen so the filter never drops a pair
//     the full estimator would keep; prefilter on/off is asserted
//     identical in tests.
//
// TopKReference / AllPairsAboveReference keep the original scalar
// implementation (per-user BitVector digests, one estimator call per
// pair). They are the ground truth the batch engine is asserted
// bit-identical against, and the baseline bench/micro_query_path.cc
// measures speedups over.
//
// The index is a *snapshot*: estimates reflect the sketch state at the
// last Rebuild(). This includes the TopK query user whenever it is among
// the candidates — its stored row and cardinality are reused instead of
// re-extracting per call. Rebuild after ingesting more stream (cheap
// relative to re-scanning pairs).
//
// Thread-safety contract: Rebuild() and RefreshDirty() mutate the index
// and must not run concurrently with queries (or each other). Between
// snapshots the index is immutable; TopK, AllPairsAbove and their
// *Reference twins are const and safe to call concurrently from any
// number of threads (an AllPairsAbove call may itself spawn
// QueryOptions::num_threads workers; TopK runs on the calling thread).
// Snapshot calls additionally read — and, under QueryOptions::incremental,
// consume — the bound sketch's dirty set, so they must not race with
// sketch Updates either; quiesce the ingest pipeline
// (ShardedVosSketch::Flush) before snapshotting.

#pragma once

#include <unordered_map>
#include <vector>

#include "common/bit_vector.h"
#include "core/digest_matrix.h"
#include "core/pair_scan.h"
#include "core/scan_common.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"

namespace vos::core {

/// Tunables of the batch query engine.
struct QueryOptions {
  /// Worker threads of AllPairsAbove and of snapshots (Rebuild,
  /// RefreshDirty); TopK runs on the calling thread
  /// (0 = std::thread::hardware_concurrency()).
  unsigned num_threads = 0;
  /// Rows per tile edge of the all-pairs pair scan (core/pair_scan.h):
  /// every triangle/rectangle pass is decomposed into tile_rows ×
  /// tile_rows row tiles, each one work unit on the pool, so a hot
  /// shard's triangle parallelizes and candidate sets beyond the LLC
  /// stay cache-resident per tile. 0 = optimizer::AdaptiveTileRows,
  /// sized from the digest row width and the detected per-core cache
  /// (648 rows at k = 6400 with a 2 MiB L2); any value ≥ the candidate
  /// count degenerates to one tile per pass. Results are bit-identical
  /// for every value.
  size_t tile_rows = 0;
  /// Enable the cardinality + Hamming-distance prescreen in
  /// AllPairsAbove. Only applied when the estimator clamps to the
  /// feasible range (the default); results are identical either way.
  bool prefilter = true;
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
  /// One query answer (record shared with the scan tier,
  /// core/scan_common.h: user / common / jaccard).
  using Entry = scan::Entry;

  /// One thresholded pair from AllPairsAbove (u / v / common / jaccard).
  using Pair = scan::Pair;

  /// Binds to `sketch` (not owned; must outlive the index).
  explicit SimilarityIndex(const VosSketch& sketch,
                           VosEstimatorOptions options = {},
                           QueryOptions query_options = {});

  /// Snapshots digests, cardinalities and β for `candidates` (extraction
  /// runs on QueryOptions::num_threads workers). With
  /// QueryOptions::incremental it additionally captures the refresh
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
  /// Rebuild(candidates) at any delta size, asserted in tests. The
  /// log-alpha table depends only on k and is never rebuilt (k is fixed
  /// for the sketch's lifetime). Requires QueryOptions::incremental and a
  /// prior Rebuild(); consumes the sketch's dirty set. A sketch has at
  /// most one incremental consumer (VosSketch's dirty-tracking contract):
  /// when anyone else cleared the dirty set since this index's last
  /// snapshot, the cardinality changes it held are lost to this index,
  /// so RefreshDirty aborts instead of returning a stale snapshot.
  ///
  /// Cost: O(m/64) word scan + O(inverse-index entries in changed words),
  /// one f_j hash each + one row-permute copy (n·k/8 bytes); no row is
  /// re-read in O(k), whatever the delta size (bench/micro_ingest_path.cc
  /// times it against Rebuild up to a delta larger than the stream).
  void RefreshDirty();

  /// True once Rebuild() has captured incremental state (i.e.
  /// RefreshDirty() may be called).
  bool CanRefresh() const {
    return query_options_.incremental && !snapshot_words_.empty();
  }

  /// The `k` candidates most similar to `query` (by Ĵ, descending, ties
  /// by user; excluding the query itself if present among candidates).
  /// When the query is a candidate its snapshot row is reused; otherwise
  /// its digest is extracted from the live sketch. One single-threaded
  /// scan with running-bound screens (pair_scan::TopK, shared with
  /// QueryPlanner::TopK); aborts when `query` is not below the sketch's
  /// num_users.
  std::vector<Entry> TopK(UserId query, size_t k) const;

  /// All unordered candidate pairs with Ĵ ≥ `jaccard_threshold`,
  /// descending by Ĵ (ties by (u, v)). Runs on the tiled pair-scan tier
  /// (core/pair_scan.h).
  std::vector<Pair> AllPairsAbove(double jaccard_threshold) const;

  /// Scalar reference implementation of TopK: single-threaded, per-user
  /// BitVector digests, one estimator (log) call per pair. Kept as the
  /// ground truth for bit-identity tests and as the bench baseline.
  std::vector<Entry> TopKReference(UserId query, size_t k) const;

  /// Scalar reference implementation of AllPairsAbove (see TopKReference).
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
  /// The planner reads snapshot rows by user through this.
  size_t RowIndexOf(UserId user) const { return RowOf(user); }

  /// Cardinality snapshot of matrix row p (rows are cardinality-sorted).
  uint32_t row_cardinality(size_t p) const { return cards_by_row_[p]; }

  /// All row cardinalities in matrix-row order (non-decreasing); the
  /// planner's cross-shard window search binary-searches this directly.
  const std::vector<uint32_t>& row_cardinalities() const {
    return cards_by_row_;
  }

  static constexpr size_t npos = static_cast<size_t>(-1);

  /// The packed digest snapshot (exposed for tests and diagnostics).
  /// Rows are stored in cardinality-sorted order — row p belongs to
  /// candidate sorted_to_candidate(p) — so the all-pairs sweep streams
  /// contiguous memory.
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

  /// Recomputes the cardinality-sorted order and every row map from
  /// candidates_/cardinalities_ (shared by Rebuild and RefreshDirty, so
  /// both produce the identical deterministic order).
  void SortRowsAndMaps();

  /// Reference-path estimate from two BitVector digests.
  PairEstimate EstimateFromDigests(const BitVector& a, uint32_t card_a,
                                   const BitVector& b, uint32_t card_b) const;

  /// Row index of `user` among the candidates, or npos.
  size_t RowOf(UserId user) const;

  static constexpr size_t kNpos = npos;

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
  /// user → matrix row (first occurrence among candidates).
  std::unordered_map<UserId, size_t> row_of_;
  /// log_alpha_table_[d] = VosEstimator::LogAlphaTerm(d / k) for every
  /// Hamming distance d in [0, k]; built once in the constructor (it
  /// depends only on k, so neither Rebuild nor RefreshDirty touches it).
  std::vector<double> log_alpha_table_;
  double beta_ = 0.0;
  /// VosEstimator::LogBetaTerm(beta_), captured at Rebuild.
  double log_beta_term_ = 0.0;
  /// Affected fraction of the last snapshot (1.0 for a full Rebuild).
  double last_refresh_dirty_fraction_ = 1.0;

  // --- Incremental-maintenance state (QueryOptions::incremental) -------
  /// The sketch array words as of the last snapshot; XOR against the live
  /// words localizes every changed cell. RefreshDirty re-syncs only the
  /// words it finds changed, so no full copy is ever repeated.
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
};

}  // namespace vos::core
