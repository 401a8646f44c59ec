// SimilarityMethod adapter for ShardedVosSketch: the sharded write path
// behind the same harness interface as every other method.
//
// Update/UpdateBatch feed the concurrent ingest pipeline; FlushIngest
// quiesces it (the harness calls it at every checkpoint). Two query-cache
// modes:
//
//   * Default: PrepareQuery flushes, then materializes the tracked users'
//     digests into one DigestMatrix *per shard* — each user extracted
//     from its owning shard under its dense local id — so EstimatePair is
//     a word-wise XOR+popcount between two cached rows plus log-table
//     lookups, exactly like VosMethod's batch path. Rows from different
//     shards are directly comparable (shared ψ, equal k); only the β
//     correction switches to the two-shard form (see
//     core/sharded_vos_sketch.h).
//
//   * Shard-local planner mode (ShardedQueryConfig::shards_local): the
//     cache is a QueryPlanner holding one incremental SimilarityIndex per
//     shard. The first PrepareQuery builds the per-shard snapshots; every
//     subsequent PrepareQuery over the SAME tracked set refreshes them
//     incrementally (SimilarityIndex::RefreshDirty shard-locally, which
//     flips only the digest bits whose array cells changed) instead of
//     re-extracting every row.
//     EstimatePair reads snapshot rows from the shard indexes; estimates
//     are bit-identical to the default mode on quiesced state. This mode
//     requires (and force-enables) VosConfig::track_dirty on the shards.

#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "core/digest_matrix.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_method.h"

namespace vos::core {

/// Query-tier knobs of ShardedVosMethod (the ingest knobs live in
/// ShardedVosConfig).
struct ShardedQueryConfig {
  /// Maintain shard-local incremental SimilarityIndexes (QueryPlanner)
  /// as the PrepareQuery cache instead of rebuilding per-shard digest
  /// matrices from scratch at every checkpoint. Implies dirty tracking
  /// on the shards.
  bool shards_local = false;
  /// Planner task-level worker threads (0 = hardware concurrency). Only
  /// meaningful with shards_local; SetQueryThreads overrides it.
  unsigned planner_threads = 0;
  /// Rows per tile edge of the planner's pair scans (0 = adaptive; see
  /// QueryOptions::tile_rows). Only meaningful with shards_local.
  size_t tile_rows = 0;
  /// Opt-in LSH banding for planner-level AllPairsAbove over the tracked
  /// set (see QueryOptions::banding_bands; 0 = exact, the default).
  /// Per-pair EstimatePair answers are unaffected — banding only changes
  /// which pairs a planner all-pairs query enumerates.
  uint32_t banding_bands = 0;
  uint32_t banding_rows_per_band = 8;
  /// Degenerate-bucket guard for the banding tables (see
  /// QueryOptions::banding_max_bucket; 0 = uncapped).
  uint32_t banding_max_bucket = 1024;
  /// Recall floor of the optimizer's feedback loop (see
  /// QueryOptions::banding_recall_floor; 0 = off).
  double banding_recall_floor = 0.0;
  /// Per-pass plan selection for planner queries (see
  /// QueryOptions::plan; VOS_PLAN overrides per query).
  optimizer::PlanMode plan = optimizer::PlanMode::kAuto;
};

/// Sharded VOS as a pluggable SimilarityMethod ("VOS-sharded").
class ShardedVosMethod : public SimilarityMethod {
 public:
  ShardedVosMethod(const ShardedVosConfig& config, UserId num_users,
                   VosEstimatorOptions options = {},
                   ShardedQueryConfig query_config = {});

  std::string Name() const override { return "VOS-sharded"; }

  void Update(const Element& e) override { sketch_.Update(e); }
  void UpdateBatch(const Element* elements, size_t count) override {
    sketch_.UpdateBatch(elements, count);
  }
  /// Producer-lane ingest: distinct lanes in
  /// [0, ConcurrentIngestProducers()) may feed concurrently, each from
  /// one thread (see core/sharded_vos_sketch.h).
  void UpdateBatch(const Element* elements, size_t count,
                   unsigned producer) override {
    sketch_.UpdateBatch(elements, count, producer);
  }
  /// Quiesces the pipeline and surfaces its sticky health: a poisoned
  /// shard / starved lane / exceeded budget comes back as the non-OK
  /// Status (see core/sharded_vos_sketch.h). Queries keep serving — the
  /// last PrepareQuery snapshot stays valid — but new data is the
  /// caller's to stop sending.
  Status FlushIngest() override { return sketch_.Flush(); }
  Status FlushIngest(unsigned producer) override {
    return sketch_.FlushProducer(producer);
  }
  unsigned ConcurrentIngestProducers() const override {
    return sketch_.num_producers();
  }

  /// Atomic whole-pipeline checkpoint / recovery (forwards to
  /// ShardedVosSketch; see there for the watermark contract). Restore
  /// additionally drops the planner and the digest caches — their
  /// incremental state references the pre-restore snapshots.
  Status Checkpoint(const std::string& path) {
    return sketch_.Checkpoint(path);
  }
  Status Restore(const std::string& path);

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  size_t MemoryBits() const override { return sketch_.MemoryBits(); }

  void PrepareQuery(const std::vector<UserId>& users) override;
  void InvalidateQueryCache() override;
  void SetQueryThreads(unsigned num_threads) override {
    query_threads_ = num_threads;
  }

  const ShardedVosSketch& sketch() const { return sketch_; }
  ShardedVosSketch& mutable_sketch() { return sketch_; }

  /// The planner cache (shards_local mode only; nullptr otherwise or
  /// before the first PrepareQuery). Exposed for tests and for callers
  /// that want planner-level queries (TopK/AllPairsAbove) over the
  /// tracked set.
  const QueryPlanner* planner() const { return planner_.get(); }

 private:
  /// Where a cached user's digest row lives (default mode).
  struct CacheSlot {
    uint32_t shard = 0;
    uint32_t row = 0;
  };

  PairEstimate EstimateFromPlanner(UserId u, UserId v) const;

  /// Force-enables dirty tracking when the planner mode needs it.
  static ShardedVosConfig WithQueryConfig(ShardedVosConfig config,
                                          const ShardedQueryConfig& query);

  ShardedVosConfig config_;
  ShardedQueryConfig query_config_;
  ShardedVosSketch sketch_;
  /// ln|1−2·d/k| per Hamming distance d (see SimilarityIndex).
  std::vector<double> log_alpha_table_;

  // --- Default-mode cache: one digest matrix per shard ------------------
  std::vector<DigestMatrix> cache_;
  std::unordered_map<UserId, CacheSlot> cache_slots_;
  /// Per-shard β and log-beta term memoized at PrepareQuery; EstimatePair
  /// revalidates against the live β (one compare per endpoint).
  std::vector<double> cached_beta_;
  std::vector<double> cached_log_beta_term_;

  // --- Planner-mode cache ----------------------------------------------
  std::unique_ptr<QueryPlanner> planner_;
  /// The tracked set the planner snapshots cover; a different set at
  /// PrepareQuery forces a full planner Rebuild.
  std::vector<UserId> planner_candidates_;
  /// False between InvalidateQueryCache and the next PrepareQuery: the
  /// planner keeps its incremental state but EstimatePair answers from
  /// the live sketch.
  bool planner_ready_ = false;

  unsigned query_threads_ = 0;
};

}  // namespace vos::core
