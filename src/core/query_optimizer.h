// Pass statistics and tile sizing for the pair-scan tier.
//
// TriangleWindowPairs / RectangleWindowPairs count the pairs a triangle
// or rectangle pass enumerates inside its conservative cardinality
// window — the exact tiled scan's work, computed without a popcount.
// QueryPlanner::PlanAllPairs reports them per pass.
//
// AdaptiveTileRows is the tile edge pair_scan::RunPasses uses for
// QueryOptions::tile_rows == 0, derived from the digest row width and the
// detected cache hierarchy (per-core L2 / LLC share): a tile's two row
// ranges should stay resident while its pairs are popcounted. Tile size
// never changes results, only locality, so the adaptive value inherits
// the tier's bit-identity contract for free.
//
// The exact tiled scan is the only AllPairsAbove/TopK plan; the LSH
// banded plan and the cost model that chose between the two are gone
// (see "Why there is one scan plan" in src/core/README.md). The names at
// the end of this header remain only because e2ebench/e2e_pipeline.cc
// compiles against them.
//
// Internal to core/; not part of the public query API.

#pragma once

#include <cstddef>
#include <cstdint>

namespace vos::core::optimizer {

/// Exact count of pairs the triangle pass enumerates: the sum over rows
/// p of the conservative cardinality window [p+1, end_p) over the
/// non-decreasing `cards` (the same scan::CardinalityFail predicate the
/// scan uses, so the count is the scan's work, not a bound). The window
/// ends are monotone in p, so one two-pointer sweep suffices: O(n), no
/// popcounts. With `prefilter` false this is n·(n−1)/2.
size_t TriangleWindowPairs(const uint32_t* cards, size_t n, double tau,
                           bool prefilter);

/// Rectangle twin: sum over a-rows of the two-sided window over b's
/// sorted cards. O(n_a + n_b).
size_t RectangleWindowPairs(const uint32_t* cards_a, size_t n_a,
                            const uint32_t* cards_b, size_t n_b, double tau,
                            bool prefilter);

/// Tile edge for QueryOptions::tile_rows == 0: sized so a tile's two row
/// ranges (2 · tile · words · 8 bytes) fit in about half the per-core
/// cache budget — min(L2, LLC / cores), detected once from sysfs (a
/// 256 KiB budget when detection fails). Clamped to [64, 2048] and
/// rounded down to a multiple of 8. Deterministic per process.
size_t AdaptiveTileRows(size_t words_per_row);

// --- Held for e2ebench until the next benchmark change ------------------
//
// e2ebench/e2e_pipeline.cc (which may change only with the benchmark)
// reads `PlanAllPairs(τ)[i].stats.exact_pairs`, compares
// `.plan.kind` against PlanKind::kBanded and calls CalibratedCosts()
// before its timers. Every pass is exact, so kind is always kExact; drop
// these with the benchmark's banded_pass_share metric.

/// Held for e2ebench: the plan a pass runs as (always kExact).
enum class PlanKind : uint8_t {
  kExact = 0,
  kBanded = 1,
};

/// Held for e2ebench: one pass's work, as counted by the window
/// counters above.
struct PassStats {
  size_t exact_pairs = 0;
};

/// Held for e2ebench: one pass's plan.
struct PassPlan {
  PlanKind kind = PlanKind::kExact;
};

/// Held for e2ebench: one entry of QueryPlanner::PlanAllPairs.
struct PassReport {
  PassStats stats;
  PassPlan plan;
};

/// Held for e2ebench: there are no calibrated costs left to compute.
struct KernelCostModel {};

/// Held for e2ebench: returns an empty constant; costs nothing.
inline KernelCostModel CalibratedCosts() { return {}; }

}  // namespace vos::core::optimizer
