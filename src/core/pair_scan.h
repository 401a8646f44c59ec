// The shared pair-scan tier: tiled enumeration of triangle and rectangle
// pair spaces over cardinality-sorted DigestMatrix snapshots.
//
// Before this tier existed the all-pairs scan lived twice — once in
// SimilarityIndex::AllPairsAbove (the same-shard/global triangle) and
// once in QueryPlanner's cross-shard passes (the rectangle) — so every
// scan improvement had to be implemented and verified twice. Both call
// sites now describe their work as `Pass`es and hand them to RunPasses,
// which
//
//   * decomposes every pass into cache-sized row×row tiles
//     (`QueryOptions::tile_rows` per edge): a tile's two row ranges stay
//     resident while its pairs are popcounted, so candidate sets larger
//     than the LLC stop thrashing, and a skewed ("hot") shard's triangle
//     becomes many independent work units instead of one serialized pass;
//   * runs the conservative prefilters per tile — the τ cardinality
//     window (one-sided over a triangle, two-sided over a rectangle,
//     both partition points over the sorted rows), the ~3/4-row
//     confinement check, and the exact log-alpha screen, all against the
//     pass's combined log-beta cut (core/scan_common.h) — and skips
//     whole tiles that no row's window reaches;
//   * dispatches the tiles of ALL passes to one dynamic worker pool
//     (scan::RunIndexed) and returns the pairs in their final
//     scan::PairBefore order (Ĵ descending, then (u, v) — a total order
//     on unique pairs), so the result is independent of thread count and
//     schedule. Large results are ordered on the same pool: each worker
//     counts its pairs into Ĵ range buckets, scatters them into disjoint
//     slices, and the pool sorts the buckets; small ones take one
//     std::sort. Callers do not sort again.
//
// The exact tiled path is bit-identical to the pre-tier scans for every
// tile size, thread count and prefilter setting: tiles partition exactly
// the same pair set, every surviving pair's Hamming distance is the same
// integer, and the estimate is the same EstimateFromLogTerms call
// (tests/pair_scan_test.cc asserts this across the full matrix).
//
// On top of the same pass plumbing sits opt-in LSH banding
// (`QueryOptions::banding_bands` > 0): BandingTable slices the leading
// banding_bands × banding_rows_per_band digest bits into per-band keys
// at snapshot time, and a banded pass enumerates only bucket-colliding
// pairs instead of tiles. Banding trades recall for enumeration — a pair
// that collides in no band is never estimated — but never precision:
// every reported pair carries the exact estimate the full scan would
// have produced, so the banded result is a subset of the exact result
// and recall is measurable against it (the banding recall contract,
// src/core/README.md).
//
// Internal to core/; not part of the public query API.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/digest_matrix.h"
#include "core/scan_common.h"
#include "core/vos_estimator.h"

namespace vos::core::pair_scan {

/// One side of a pass: a cardinality-sorted digest snapshot. `cards`
/// must hold matrix->rows() non-decreasing values aligned with the rows.
struct MatrixView {
  const DigestMatrix* matrix = nullptr;
  const uint32_t* cards = nullptr;
  size_t rows() const { return matrix == nullptr ? 0 : matrix->rows(); }
};

/// LSH banding index over one digest snapshot: band b's key is bits
/// [b·rows_per_band, (b+1)·rows_per_band) of each row ("rows per band"
/// in the classic LSH sense — each digest bit is one parity row, agreed
/// on by a pair with probability 1−α). Keys are compared raw, so tables
/// built over different shards' snapshots are join-compatible (the
/// digest bit domain Ô_u is shared across shards). Built at
/// Rebuild/Refresh time by SimilarityIndex when banding is enabled.
///
/// Entries are keyed by STABLE row id, not by matrix row: the caller may
/// supply a `stable_of_row` permutation (SimilarityIndex passes its
/// candidate indexes) and the table keeps a stable→row translation.
/// Because a stable id's key depends only on its digest content, a
/// cardinality re-sort that merely permutes rows leaves every entry of an
/// unchanged digest byte-identical — which is what lets Patch() update
/// the table incrementally after RefreshDirty instead of re-sorting
/// O(bands · n log n) from scratch.
///
/// Degenerate-bucket guard: sparse snapshots (many all-zero digests) can
/// put ~n rows in one bucket and make candidate generation quadratic.
/// With `max_bucket` > 0 every key run is split into consecutive
/// max_bucket-sized cohorts and pairs are enumerated within (triangle) /
/// across aligned (rectangle) cohorts only, bounding candidates by
/// O(run · max_bucket) per run. The cap trades recall (pairs straddling
/// a cohort boundary are missed) for the subquadratic bound; 0 disables
/// it (the raw constructor's default, so brute-force reference tests see
/// the uncapped semantics).
class BandingTable {
 public:
  BandingTable() = default;

  /// Indexes every row of `matrix` with identity stable ids and no
  /// bucket cap. `rows_per_band` ∈ [1, 64]; `bands` is clamped so
  /// bands · rows_per_band ≤ k (at least one band fits because
  /// rows_per_band ≤ 64 ≤ k for any real sketch).
  BandingTable(const DigestMatrix& matrix, uint32_t bands,
               uint32_t rows_per_band);

  /// Full form: `stable_of_row` (may be null = identity) maps matrix row
  /// p to its stable id — a permutation of [0, rows); `max_bucket` is
  /// the degenerate-bucket guard (0 = uncapped).
  BandingTable(const DigestMatrix& matrix, uint32_t bands,
               uint32_t rows_per_band, const uint32_t* stable_of_row,
               uint32_t max_bucket);

  /// Incremental maintenance after RefreshDirty: re-keys only the rows
  /// whose STABLE id is flagged in `affected_by_stable` (size rows) and
  /// re-translates stable→row from the new `stable_of_row` permutation.
  /// O(bands · (n + A log A)) for A affected rows, vs O(bands · n log n)
  /// for a rebuild — and bit-identical to one: unaffected digests keep
  /// their exact (key, stable) entries, and merging the re-keyed rows
  /// back restores the same total (key, stable) order a full sort would
  /// produce (asserted in tests/query_optimizer_test.cc).
  void Patch(const DigestMatrix& matrix, const uint32_t* stable_of_row,
             const std::vector<uint8_t>& affected_by_stable);

  uint32_t bands() const { return bands_; }
  uint32_t rows_per_band() const { return rows_per_band_; }
  size_t rows() const { return rows_; }
  uint32_t max_bucket() const { return max_bucket_; }
  bool empty() const { return bands_ == 0 || rows_ == 0; }

  /// All unordered row pairs (p < q) colliding in at least one band —
  /// within one guard cohort when max_bucket > 0 — sorted ascending and
  /// deduplicated: the triangle pass's candidate list. Complexity
  /// O(bands · rows + candidates) given the sorted segments.
  std::vector<std::pair<uint32_t, uint32_t>> TriangleCandidates() const;

  /// All (row of a, row of b) pairs colliding in at least one band —
  /// the rectangle pass's candidate list (merge-join per band; the two
  /// tables must share bands()/rows_per_band()). Either side's
  /// max_bucket caps its cohorts.
  static std::vector<std::pair<uint32_t, uint32_t>> RectangleCandidates(
      const BandingTable& a, const BandingTable& b);

  /// Candidate-pair count TriangleCandidates() would enumerate before
  /// dedup — the optimizer's bucket-skew statistic, O(bands · runs)
  /// closed-form arithmetic, no materialization.
  size_t TriangleCandidateBound() const;

  /// Rectangle twin of TriangleCandidateBound (pre-dedup count).
  static size_t RectangleCandidateBound(const BandingTable& a,
                                        const BandingTable& b);

  /// Largest bucket (key run) across all bands — the raw skew statistic
  /// the guard exists for.
  size_t MaxBucketRun() const;

  /// bands · rows: the entries a bucket walk / merge-join touches.
  size_t entry_count() const { return entries_.size(); }

  /// Appends the matrix rows sharing at least one band bucket with the
  /// query digest `row` (`words` packed words, same geometry as the
  /// indexed matrix) — the banded-TopK point lookup: per band one binary
  /// search plus the bucket run, capped at max_bucket entries per run.
  /// May contain duplicates and the query's own row; callers sort/unique
  /// and filter.
  void AppendRowCandidates(const uint64_t* row, size_t words,
                           std::vector<uint32_t>* out) const;

  /// Raw per-band segments of (key, stable id), band b owning
  /// entries()[b·rows .. (b+1)·rows) sorted by (key, stable id) — the
  /// patch-equivalence tests compare these against a fresh build.
  const std::vector<std::pair<uint64_t, uint32_t>>& entries() const {
    return entries_;
  }

 private:
  uint32_t bands_ = 0;
  uint32_t rows_per_band_ = 0;
  size_t rows_ = 0;
  /// Degenerate-bucket guard: cohort size cap per key run (0 = off).
  uint32_t max_bucket_ = 0;
  /// Per-band segments of (key, stable id), each segment sorted by
  /// (key, stable id): band b owns entries_[b·rows_ .. (b+1)·rows_).
  std::vector<std::pair<uint64_t, uint32_t>> entries_;
  /// row_of_stable_[stable id] = current matrix row (updated by Patch).
  std::vector<uint32_t> row_of_stable_;
};

/// Everything the estimate/prefilter math shares across the passes of
/// one query (the per-pass β term lives on the Pass).
struct ScanParams {
  double jaccard_threshold = 0.0;
  /// Pre-resolved via scan::PrefilterApplies — the tier never second-
  /// guesses the clamp gating.
  bool prefilter = false;
  const VosEstimator* estimator = nullptr;
  /// ln|1−2·d/k| per Hamming distance d ∈ [0, k].
  const std::vector<double>* log_alpha_table = nullptr;
};

/// One unit of query work: a triangle scan over a (same-shard / global
/// all-pairs, pairs p < q) or a rectangle scan a × b (cross-shard).
/// `emit` translates surviving (row p of a, row q of b, estimate) into a
/// caller-oriented scan::Pair; it is called only for pairs at or above
/// the threshold, under no lock (each work unit owns its output buffer).
struct Pass {
  MatrixView a;
  MatrixView b;  ///< == a for triangle passes
  bool triangle = false;
  /// The log-beta term handed to EstimateFromLogTerms: the snapshot's
  /// own term for a triangle, the mean of the two shards' terms for a
  /// cross-shard rectangle.
  double log_beta_pair = 0.0;
  /// Banding tables of the two sides (null = exact enumeration). Both
  /// must be set, with equal geometry, for a banded rectangle.
  const BandingTable* banding_a = nullptr;
  const BandingTable* banding_b = nullptr;
  std::function<void(size_t p, size_t q, const PairEstimate& est,
                     std::vector<scan::Pair>& out)>
      emit;
};

/// Runs every pass — tiled when exact, bucket-driven when banded — over
/// one dynamic worker pool of `num_threads` (0 = hardware concurrency,
/// clamped to the work count), in `tile_rows` × `tile_rows` tiles
/// (0 = optimizer::AdaptiveTileRows for the passes' row width). Returns
/// every emitted pair, already in scan::PairBefore order.
std::vector<scan::Pair> RunPasses(const std::vector<Pass>& passes,
                                  const ScanParams& params, size_t tile_rows,
                                  unsigned num_threads);

}  // namespace vos::core::pair_scan
