// QueryPlanner: the batch query surface — TopK and AllPairsAbove over a
// ShardedVosSketch, at any shard count (S = 1 is one global snapshot).
//
// It owns one SimilarityIndex snapshot per shard, each built over that
// shard's VosSketch in shard-local id space (the dense remap of
// core/sharded_vos_sketch.h), and plans queries as a scatter–gather over
// those snapshots:
//
//   * Rebuild(candidates) partitions the global candidate set by shard,
//     translates ids to dense locals, and (re)builds every shard index —
//     S independent snapshot builds, run in parallel. With
//     QueryOptions::incremental each snapshot retains refresh state, and
//     Refresh() drains each shard's dirty set shard-locally through
//     SimilarityIndex::RefreshDirty, which patches only the changed
//     digest bits — incremental maintenance never crosses a shard
//     boundary.
//
//   * AllPairsAbove(τ) decomposes the pair space exactly: S same-shard
//     triangle passes plus S·(S−1)/2 cross-shard rectangle passes that
//     scan one shard's DigestMatrix against another's, all described as
//     pair_scan::Passes and run on the tiled scan tier
//     (core/pair_scan.h) — every pass is decomposed into cache-sized
//     row×row tiles dispatched to ONE worker pool, so a skewed ("hot")
//     shard's triangle parallelizes across tiles instead of serializing
//     as a single task. Digests from different shards are XOR-comparable
//     (shared ψ, equal k); only the β correction changes: each digest
//     carries its own shard's contamination, so the §IV (1−2β)² factor
//     generalizes to (1−2β_A)(1−2β_B) and the estimator receives the
//     mean of the two log-beta terms. The conservative prefilters
//     generalize too — the τ cardinality bound becomes a two-sided
//     window over the partner shard's sorted rows (both matrices are
//     cardinality-sorted, so both window ends are partition points), and
//     the exact log-alpha screen runs with the combined
//     ln|1−2β_A| + ln|1−2β_B| cut. They apply whenever the estimator
//     clamps to the feasible range and τ > 0 (scan::PrefilterApplies).
//     Estimates are bit-identical to ShardedVosSketch::EstimatePair on
//     the same quiesced state: the same log-alpha table, the same
//     mean-log-beta combination.
//
//   * TopK(u, k) scans every shard index's rows against the query digest
//     on the calling thread (pair_scan::TopK), with each shard's mean
//     log-beta term and one running k-th best Ĵ across all shards. Rows
//     that provably fall strictly below that bound are screened out
//     before the estimator; ties with it survive to the user-id
//     tie-break, so the answer is bit-identical to TopKReference.
//
// Parallelism model: only AllPairsAbove and snapshots use threads. With
// T = QueryOptions::num_threads workers, AllPairsAbove parallelizes
// ACROSS scan units (the tiles of every same-shard and cross-shard pass,
// QueryOptions::tile_rows per tile edge), each unit single-threaded
// inside. Snapshots (Rebuild/Refresh) run min(T, S) shard tasks at a
// time; each shard index rebuilds with max(1, ⌊T/S⌋) workers of its own
// (IndexThreads), so the nested split never exceeds T threads and at
// S == 1 the one index uses all of them, and refreshes on its task's
// thread (a refresh costs what changed). TopK spawns no thread: a call
// is about one popcount per candidate row, less than starting a worker.
//
// Results are global: pairs/entries carry global user ids (canonically
// oriented u < v) in the scan::PairBefore / scan::EntryBefore total
// orders — the output is independent of thread count and schedule.
//
// Thread-safety contract: Rebuild()/Refresh() mutate the planner and must
// not run concurrently with queries or each other, and they require a
// quiesced ingest pipeline — call ShardedVosSketch::Flush() first. Between
// snapshots TopK/AllPairsAbove and the *Reference twins are const and
// concurrent-safe.
//
// The *Reference implementations answer from per-pair
// ShardedVosSketch::EstimatePair calls — the ground truth the planner is
// asserted bit-identical against (tests/query_planner_test.cc) and the
// baseline the bench measures speedups over.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/query_optimizer.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_index.h"

namespace vos::core {

/// Scatter–gather query planner over per-shard SimilarityIndex snapshots.
class QueryPlanner {
 public:
  using Entry = scan::Entry;
  using Pair = scan::Pair;

  /// Binds to `sketch` (not owned; must outlive the planner).
  /// QueryOptions::num_threads is the worker count of AllPairsAbove and
  /// of snapshots; QueryOptions::incremental enables Refresh(), and its
  /// first Rebuild starts the shards' dirty tracking — the planner is
  /// then the sketch's one incremental consumer.
  explicit QueryPlanner(const ShardedVosSketch& sketch,
                        VosEstimatorOptions estimator_options = {},
                        QueryOptions query_options = {});

  /// Snapshots every shard index for the global candidate set.
  /// Candidates must be unique; pairs and entries are reported between
  /// candidates only.
  void Rebuild(std::vector<UserId> candidates);

  /// Incrementally re-snapshots the SAME candidate set, draining each
  /// shard's dirty set shard-locally (SimilarityIndex::RefreshDirty).
  /// Requires QueryOptions::incremental and a prior Rebuild(). The result
  /// is bit-identical to Rebuild() of the same candidates.
  void Refresh();

  /// All unordered candidate pairs with Ĵ ≥ `jaccard_threshold`, global
  /// ids, u < v, descending Ĵ (ties by (u, v)) — same pair set and
  /// bit-identical estimates as AllPairsAboveReference on quiesced state.
  std::vector<Pair> AllPairsAbove(double jaccard_threshold) const;

  /// The `k` candidates most similar to `query` (global id; any user of
  /// the stream, candidate or not), excluding the query itself, in
  /// scan::EntryBefore order. Runs on the calling thread; aborts when
  /// `query` is not below the sketch's num_users.
  std::vector<Entry> TopK(UserId query, size_t k) const;

  /// (ŝ, Ĵ) for one pair: two snapshot rows (one XOR-popcount and a
  /// log-table lookup) when both users are candidates, otherwise
  /// ShardedVosSketch::EstimatePair on the live sketch. Bit-identical to
  /// ShardedVosSketch::EstimatePair on the snapshot's quiesced state.
  PairEstimate EstimatePair(UserId u, UserId v) const;

  /// Ground truth: one ShardedVosSketch::EstimatePair call per candidate
  /// pair. O(n²·k) — tests and bench baselines only.
  std::vector<Pair> AllPairsAboveReference(double jaccard_threshold) const;

  /// Ground truth for TopK (see AllPairsAboveReference).
  std::vector<Entry> TopKReference(UserId query, size_t k) const;

  size_t candidate_count() const { return candidates_.size(); }
  const std::vector<UserId>& candidates() const { return candidates_; }

  /// The shard-local index of shard s (snapshot of its candidates in
  /// dense local ids). Exposed for diagnostics and tests.
  const SimilarityIndex& shard_index(uint32_t s) const {
    return *indexes_[s];
  }

  const QueryOptions& query_options() const { return query_options_; }

  /// One report per pass AllPairsAbove(τ) runs, in pass order (the S
  /// same-shard triangles with ≥ 2 rows, then the cross-shard rectangles
  /// with two non-empty sides): `stats.exact_pairs` is the pass's
  /// window-pair count (optimizer::Triangle/RectangleWindowPairs) and
  /// `plan.kind` is always kExact. Held for e2ebench's
  /// query_optimizer.window_pairs until the next benchmark change.
  std::vector<optimizer::PassReport> PlanAllPairs(
      double jaccard_threshold) const;

  /// Worker count for subsequent Rebuild/Refresh/AllPairsAbove
  /// (0 = hardware concurrency); re-splits the shard indexes' share
  /// (IndexThreads). Results are bit-identical for every value, so a
  /// long-lived planner can follow SimilarityMethod::SetQueryThreads
  /// without invalidating its snapshots. Not concurrent-safe with
  /// running queries.
  void set_num_threads(unsigned num_threads);

  /// Workers each shard index gets for its own Rebuild: max(1, ⌊T/S⌋)
  /// for T resolved planner threads and S shards.
  unsigned IndexThreads() const;

 private:
  /// Global id of shard s's matrix row p.
  UserId GlobalOfRow(uint32_t s, size_t p) const;

  const ShardedVosSketch* sketch_;
  VosEstimator estimator_;
  QueryOptions query_options_;
  std::vector<UserId> candidates_;
  /// One snapshot index per shard, over that shard's candidate locals.
  std::vector<std::unique_ptr<SimilarityIndex>> indexes_;
  /// ln|1−2·d/k| per Hamming distance d ∈ [0, k] — shared by every pass
  /// and every TopK side.
  std::vector<double> log_alpha_table_;
};

}  // namespace vos::core
