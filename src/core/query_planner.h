// QueryPlanner: the batch query surface — TopK and AllPairsAbove over a
// ShardedVosSketch, at any shard count (S = 1 is one global snapshot).
//
// It holds one immutable Snapshot per shard (core/similarity_index.h),
// built over that shard's VosSketch in shard-local id space (the dense
// remap of core/sharded_vos_sketch.h), plans queries as a scatter–gather
// over them, and alone decides how they are built:
//
//   * Rebuild(candidates) partitions the global candidate set by shard
//     into dense locals and extracts every shard's snapshot rebuild-only
//     (Snapshot::Build), S builds in parallel, dropping any incremental
//     state. The first Refresh() of the same set captures incremental
//     state (one SimilarityIndex builder per shard, which starts its
//     dirty tracking) where SimilarityIndex::IncrementalFits, and
//     extracts again otherwise; later ones patch each shard's changed
//     digest bits shard-locally (SimilarityIndex::RefreshDirty). Each
//     publishes new snapshots by swapping pointers, so a caller holding
//     shard_snapshot(s) keeps reading the moment it got.
//
//   * AllPairsAbove(τ) decomposes the pair space exactly: S same-shard
//     triangle passes plus S·(S−1)/2 cross-shard rectangle passes, run as
//     pair_scan::Passes on the tiled scan tier (core/pair_scan.h), whose
//     cache-sized row×row tiles share ONE worker pool, so a hot shard's
//     triangle parallelizes across tiles. Digests from different shards
//     are XOR-comparable (shared ψ, equal k); only the β correction
//     changes, from the §IV (1−2β)² to (1−2β_A)(1−2β_B): the estimator
//     gets the mean of the two log-beta terms, and the prefilters use the
//     partner shard's cardinality window and the combined log-beta cut
//     (whenever scan::PrefilterApplies). Estimates are bit-identical to
//     ShardedVosSketch::EstimatePair on the same quiesced state.
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
// time; each shard's extraction runs max(1, ⌊T/S⌋) workers of its own
// (IndexThreads), so the nested split never exceeds T threads and at
// S == 1 the one extraction uses all of them, and a patch runs on its
// task's thread (a patch costs what changed). TopK spawns no thread: a call
// is about one popcount per candidate row, less than starting a worker.
//
// Results are global: pairs/entries carry global user ids (canonically
// oriented u < v) in the scan::PairBefore / scan::EntryBefore total
// orders — the output is independent of thread count and schedule.
//
// Thread-safety contract: Rebuild()/Refresh()/Prepare() swap the snapshot
// pointers, so they must not run concurrently with queries or each other,
// and they need a quiesced pipeline (ShardedVosSketch::Flush() first).
// Between them every query is const and concurrent-safe, and a snapshot
// taken through shard_snapshot() stays valid and unchanged for good.
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

/// Tunables of the planner's snapshots and queries.
struct QueryOptions {
  /// Worker threads of snapshot extraction and of AllPairsAbove; a
  /// patching Refresh and TopK run on the calling thread
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
};

/// Scatter–gather query planner over per-shard Snapshots.
class QueryPlanner {
 public:
  using Entry = scan::Entry;
  using Pair = scan::Pair;

  /// Binds to `sketch` (not owned; must outlive the planner), with an
  /// empty snapshot per shard. QueryOptions::num_threads is the worker
  /// count of AllPairsAbove and of snapshot extraction.
  explicit QueryPlanner(const ShardedVosSketch& sketch,
                        VosEstimatorOptions estimator_options = {},
                        QueryOptions query_options = {});

  /// Snapshots every shard rebuild-only for the global candidate set.
  /// Candidates must be unique; pairs and entries are reported between
  /// candidates only.
  void Rebuild(std::vector<UserId> candidates);

  /// Re-snapshots the SAME candidate set: the first call after Rebuild()
  /// captures incremental state where it fits (the planner then becomes
  /// the sketch's one incremental consumer), later calls patch. The
  /// result is bit-identical to Rebuild() of the same candidates.
  void Refresh();

  /// Refresh() when `candidates` is the non-empty set of the last
  /// snapshot, Rebuild(candidates) otherwise.
  void Prepare(const std::vector<UserId>& candidates);

  /// True while the snapshots come from incremental builders (from the
  /// first Refresh() of a set until the next Rebuild()).
  bool incremental() const { return !builders_.empty(); }

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

  /// The current snapshot of shard s (its candidates in dense local ids).
  const Snapshot& shard_index(uint32_t s) const { return *snapshots_[s]; }

  /// The same snapshot as a pointer a reader may keep past later
  /// rebuilds and refreshes.
  const std::shared_ptr<const Snapshot>& shard_snapshot(uint32_t s) const {
    return snapshots_[s];
  }

  /// One report per pass AllPairsAbove(τ) runs, in pass order (the S
  /// same-shard triangles with ≥ 2 rows, then the cross-shard rectangles
  /// with two non-empty sides): `stats.exact_pairs` is the pass's
  /// window-pair count (optimizer::Triangle/RectangleWindowPairs) and
  /// `plan.kind` is always kExact. Held for e2ebench's
  /// query_optimizer.window_pairs until the next benchmark change.
  std::vector<optimizer::PassReport> PlanAllPairs(
      double jaccard_threshold) const;

  /// Worker count for subsequent snapshots and AllPairsAbove
  /// (0 = hardware concurrency). Results are bit-identical for every
  /// value, so a long-lived planner can follow
  /// SimilarityMethod::SetQueryThreads without invalidating its
  /// snapshots. Not concurrent-safe with running queries.
  void set_num_threads(unsigned num_threads) {
    query_options_.num_threads = num_threads;
  }

  /// Workers each shard's extraction gets: max(1, ⌊T/S⌋) for T resolved
  /// planner threads and S shards.
  unsigned IndexThreads() const;

 private:
  /// Global id of shard s's matrix row p.
  UserId GlobalOfRow(uint32_t s, size_t p) const;

  /// Extracts every shard's snapshot of candidates_ from scratch: through
  /// fresh incremental builders, or rebuild-only (dropping the builders).
  void ExtractShards(bool incremental);

  const ShardedVosSketch* sketch_;
  VosEstimator estimator_;
  QueryOptions query_options_;
  std::vector<UserId> candidates_;
  /// The published snapshot of each shard, over its candidate locals.
  std::vector<std::shared_ptr<const Snapshot>> snapshots_;
  /// One incremental builder per shard while incremental(), else empty.
  std::vector<std::unique_ptr<SimilarityIndex>> builders_;
  /// ln|1−2·d/k| per Hamming distance d ∈ [0, k] — shared by every pass
  /// and every TopK side.
  std::vector<double> log_alpha_table_;
};

}  // namespace vos::core
