// Cost-based query optimizer over the pair-scan tier.
//
// PR 5 left three ways to answer any all-pairs or TopK query — the exact
// tiled scan, the precision-1 LSH-banded scan, and the warm-started TopK
// — all chosen by hand-set knobs that applied to the whole process. This
// header promotes the choice to a per-pass decision: for every
// same-shard triangle and cross-shard rectangle the caller builds a
// PassStats from statistics the index already holds (row counts, the
// cardinality histogram via exact window-pair counting, BandingTable
// bucket-size skew via post-guard candidate bounds, the last refresh's
// dirty fraction) and ChoosePassPlan converts it to seconds with
// CALIBRATED per-ISA kernel throughput constants:
//
//   exact  ≈ window_pairs · (words · c_pair_word + c_pair)
//   banded ≈ entries · c_entry                 (bucket walk / merge-join)
//          + candidates · (words · c_pair_word + c_pair + c_candidate)
//          + dirty_fraction · entries · c_entry  (table upkeep amortized)
//
// The constants come from a one-shot microprobe over the PR 7 dispatch
// table (common/kernels.h), run at first use and cached per process PER
// DISPATCH LEVEL — an AVX-512 machine and a scalar fallback see their own
// real throughput, so the break-even between "popcount every window pair"
// and "walk buckets, popcount survivors" lands where this CPU actually
// puts it. The probe costs single-digit milliseconds once.
//
// Plan resolution order (EffectivePlanMode + the caller's feedback bit):
//   1. VOS_PLAN env var ("exact" | "banded" | "auto") — forces every pass,
//      re-read per query so test matrices can flip it without rebuilds;
//   2. QueryOptions::plan (--plan flag plumbing) when not kAuto;
//   3. the caller's measured-recall feedback (a banded pass whose
//      measured recall undercut the configured floor is re-planned exact
//      on the next refresh — see SimilarityIndex::ReportMeasuredRecall);
//   4. the cost model above.
// A forced banded plan degrades to exact when no BandingTable exists
// (banding_bands == 0), so VOS_PLAN=banded is safe over the full suite.
//
// Everything here is PURE (stats in, plan out) and deterministic within a
// process: the calibration is cached, so every pass of every query on
// every thread prices with the same constants — plan choice is
// reproducible across threads, shards and repeated calls, which the
// bit-identity tests rely on (tests/query_optimizer_test.cc).
//
// AdaptiveTileRows is the tile edge pair_scan::RunPasses uses for
// QueryOptions::tile_rows == 0, derived from the digest row width and the detected cache hierarchy
// (per-core L2 / LLC share): a tile's two row ranges should stay resident
// while its pairs are popcounted. Tile size never changes results, only
// locality, so the adaptive value inherits the tier's bit-identity
// contract for free.
//
// Internal to core/; not part of the public query API.

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/kernels.h"

namespace vos::core::optimizer {

/// How the caller wants plans chosen. kAuto prices every pass with the
/// calibrated cost model; the force modes pin every pass (kForceBanded
/// degrades to exact where no banding table exists).
enum class PlanMode : uint8_t {
  kAuto = 0,
  kForceExact = 1,
  kForceBanded = 2,
};

/// What a pass actually runs as.
enum class PlanKind : uint8_t {
  kExact = 0,
  kBanded = 1,
};

const char* PlanModeName(PlanMode mode);
const char* PlanKindName(PlanKind kind);

/// Parses "auto" | "exact" | "banded" (the --plan flag / VOS_PLAN values).
bool ParsePlanMode(const char* s, PlanMode* out);

/// Resolves the mode for one query: the VOS_PLAN env override when set
/// and valid (unknown values warn to stderr once and fall through), else
/// `configured`. Re-read per call — cheap next to any scan — so forced-
/// plan test legs need no rebuild hooks.
PlanMode EffectivePlanMode(PlanMode configured);

/// Calibrated per-ISA kernel throughput constants, all in seconds.
struct KernelCostModel {
  /// Per pair per digest word of XOR+popcount (the 1×8 kernel's
  /// marginal word cost at the active dispatch level).
  double seconds_per_pair_word = 0.0;
  /// Fixed per-pair overhead: estimator lookup, emit, loop control.
  double seconds_per_pair = 0.0;
  /// Extra per banded candidate: pack/sort/dedup of the candidate list.
  double seconds_per_candidate = 0.0;
  /// Per banding-table entry walked (bucket run detection / merge-join).
  double seconds_per_entry = 0.0;
  /// The dispatch level the constants were measured at.
  kernels::DispatchLevel level = kernels::DispatchLevel::kScalar;
};

/// The constants for the ACTIVE dispatch level: microprobed on first use
/// at that level, cached per process (per level, so a test that flips
/// SetDispatchLevel re-prices honestly). Thread-safe.
const KernelCostModel& CalibratedCosts();

/// Test hook: overrides CalibratedCosts() with fixed constants (nullptr
/// restores the probe). Not for production use.
void SetCalibratedCostsForTest(const KernelCostModel* costs);

/// Statistics of one pass, gathered from what the index already holds.
struct PassStats {
  bool triangle = true;
  size_t rows_a = 0;
  size_t rows_b = 0;  ///< == rows_a for triangles
  size_t words_per_row = 0;
  /// Exact plan work: pairs inside the conservative cardinality windows
  /// (Triangle/RectangleWindowPairs below — the histogram statistic).
  size_t exact_pairs = 0;
  /// Banded plan work: banding-table entries walked (bands · rows).
  size_t banded_entries = 0;
  /// Banded plan work: post-guard candidate-pair bound (bucket skew
  /// statistic; BandingTable::TriangleCandidateBound / RectangleCandidateBound).
  size_t banded_candidates = 0;
  /// Whether the pass has banding table(s) at all.
  bool banded_available = false;
  /// Affected fraction of the last RefreshDirty (1.0 after a full
  /// Rebuild): amortized upkeep the banded plan pays per refresh cycle.
  double dirty_fraction = 1.0;
};

/// The optimizer's verdict for one pass.
struct PassPlan {
  PlanKind kind = PlanKind::kExact;
  double exact_cost = 0.0;   ///< estimated seconds for the exact plan
  double banded_cost = 0.0;  ///< estimated seconds (+inf when unavailable)
  bool forced = false;       ///< a force mode (env/flag/feedback) decided
};

/// Prices both plans for `stats` and picks per `mode` (see the file
/// header for the formulas and resolution order). Pure and deterministic.
PassPlan ChoosePassPlan(const PassStats& stats, const KernelCostModel& costs,
                        PlanMode mode);

/// One pass's stats + verdict, as reported by
/// SimilarityIndex::PlanAllPairs / QueryPlanner::PlanAllPairs. The
/// reporting path shares the decision code with the executing path, so a
/// report always predicts what AllPairsAbove would run.
struct PassReport {
  PassStats stats;
  PassPlan plan;
};

/// Exact count of pairs the exact triangle plan would enumerate: the sum
/// over rows p of the conservative cardinality window [p+1, end_p) over
/// the non-decreasing `cards` (the same scan::CardinalityFail predicate
/// the scan uses, so the count is the scan's work, not a bound). The
/// window ends are monotone in p, so one two-pointer sweep suffices:
/// O(n), no popcounts. With `prefilter` false this is n·(n−1)/2.
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

}  // namespace vos::core::optimizer
