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
// Internal to core/; not part of the public query API.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
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
  std::function<void(size_t p, size_t q, const PairEstimate& est,
                     std::vector<scan::Pair>& out)>
      emit;
};

/// Runs every pass over one dynamic worker pool of `num_threads`
/// (0 = hardware concurrency, clamped to the work count), in
/// `tile_rows` × `tile_rows` tiles
/// (0 = optimizer::AdaptiveTileRows for the passes' row width). Returns
/// every emitted pair, already in scan::PairBefore order.
std::vector<scan::Pair> RunPasses(const std::vector<Pass>& passes,
                                  const ScanParams& params, size_t tile_rows,
                                  unsigned num_threads);

}  // namespace vos::core::pair_scan
