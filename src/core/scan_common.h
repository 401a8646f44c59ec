// Shared building blocks of the pair-scan tier (core/pair_scan.h) and of
// the query planner and snapshot oracles around it: the result record
// types and their total orders, the dynamic worker pool, and the
// conservative prefilter math (the cardinality window and the slacked
// log-alpha cut). The scan, the planner's references and
// Snapshot::AllPairsAboveReference must all sort to the same
// orders, and TopK and AllPairsAbove screen with the same bounds, so each
// of these lives here exactly once.
//
// Internal to core/; not part of the public query API (callers see the
// records as QueryPlanner::Entry / QueryPlanner::Pair aliases).

#pragma once

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "stream/element.h"

namespace vos::core::scan {

/// One TopK answer (aliased as QueryPlanner::Entry).
struct Entry {
  stream::UserId user = 0;  ///< the matched candidate
  double common = 0.0;      ///< ŝ (estimated common items with the query)
  double jaccard = 0.0;     ///< Ĵ
};

/// One thresholded pair (aliased as QueryPlanner::Pair).
struct Pair {
  stream::UserId u = 0;
  stream::UserId v = 0;
  double common = 0.0;
  double jaccard = 0.0;
};

/// Total order on TopK entries: Ĵ descending, then user ascending —
/// scan and scalar-reference results both sort to this.
inline bool EntryBefore(const Entry& a, const Entry& b) {
  return a.jaccard != b.jaccard ? a.jaccard > b.jaccard : a.user < b.user;
}

/// Total order on thresholded pairs: Ĵ descending, then (u, v) ascending.
inline bool PairBefore(const Pair& a, const Pair& b) {
  if (a.jaccard != b.jaccard) return a.jaccard > b.jaccard;
  return a.u != b.u ? a.u < b.u : a.v < b.v;
}

/// Runs `work(i)` for every i in [0, count) across `threads` workers
/// pulling ids from a shared counter (dynamic balancing for triangular /
/// mixed-cost workloads). A `work(i, worker)` callable also receives the
/// running worker's index in [0, threads), for per-worker state.
/// `threads` is clamped to ≥ 1 here — callers normally pass
/// ResolveThreadCount output, but an unclamped 0 would underflow the
/// unsigned pool reservation below to ~4e9. Which worker runs which id
/// depends on the schedule, so callers keep results schedule-independent:
/// most write per-id outputs merged in id order, and pair_scan::RunPasses
/// sorts every Ĵ bucket with PairBefore, a total order.
template <typename Work>
void RunIndexed(unsigned threads, size_t count, const Work& work) {
  if (threads == 0) threads = 1;
  std::atomic<size_t> next{0};
  const auto worker = [&](unsigned w) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      if constexpr (std::is_invocable_v<const Work&, size_t, unsigned>) {
        work(i, w);
      } else {
        work(i);
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (std::thread& t : pool) t.join();
}

// --- Conservative prefilter math (see pair_scan.cc ScanTile for
// the full derivation; every slack is orders above FP rounding so no
// boundary pair the estimator would keep is ever dropped) --------------

/// The prefilter's gating condition, resolved identically by every scan:
/// the cardinality/alpha bounds are sound only where Ĵ is monotone in the
/// clamped ŝ (clamp_to_feasible) and τ is meaningfully positive.
inline bool PrefilterApplies(bool clamped, double jaccard_threshold) {
  return clamped && jaccard_threshold > 1e-5;
}

/// The cardinality-bound fail test: a pair whose smaller (clamp-limited)
/// cardinality is `min_card` cannot reach Ĵ ≥ τ when
/// min_card < τ/(1+τ)·(n_u+n_v) − slack. `tau_frac` = τ/(1+τ); `sum` =
/// n_u + n_v. Monotone in either cardinality with the other fixed, so
/// window ends over sorted rows are partition points.
inline bool CardinalityFail(double min_card, double sum, double tau_frac) {
  return min_card < tau_frac * sum - 1e-6 * (sum + 1.0);
}

/// ŝ_raw ≥ τ/(1+τ)·sum ⟺ L(d) ≥ CutScale(τ,k)·sum + [2·ln|1−2β| term];
/// the scale of the cardinality sum in that log-alpha cut.
inline double CutScale(double tau_frac, uint32_t k) {
  return (tau_frac - 0.5) * (4.0 / k);
}

/// The cut with its conservative slack applied.
inline double SlackedCut(double la_cut) {
  return la_cut - 1e-6 * (std::fabs(la_cut) + 1.0);
}

}  // namespace vos::core::scan
