// SimilarityMethod adapter for ShardedVosSketch: the sharded write path
// behind the same harness interface as every other method.
//
// Update/UpdateBatch feed the concurrent ingest pipeline; FlushIngest
// quiesces it (the harness calls it at every checkpoint). The query cache
// is a QueryPlanner holding one incremental SimilarityIndex per shard:
// PrepareQuery flushes, then snapshots every shard index for a new
// tracked set (Rebuild), or, over the SAME set as the last call, patches
// the snapshots incrementally (Refresh → SimilarityIndex::RefreshDirty,
// shard-locally, flipping only the digest bits whose array cells
// changed) instead of re-extracting every row. EstimatePair reads two
// snapshot rows — a word-wise XOR+popcount plus log-table lookups; rows
// from different shards are directly comparable (shared ψ, equal k) and
// only the β correction switches to the two-shard form (see
// core/sharded_vos_sketch.h). Estimates are bit-identical to
// ShardedVosSketch::EstimatePair on quiesced state. The planner consumes
// the shards' dirty sets, so the method always enables
// VosConfig::track_dirty on them.

#pragma once

#include <memory>
#include <vector>

#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/similarity_method.h"

namespace vos::core {

/// Query-tier fields of ShardedVosMethod (the ingest knobs live in
/// ShardedVosConfig). Both are ignored: the planner is the only cache and
/// SetQueryThreads sets its worker count.
struct ShardedQueryConfig {
  /// Ignored; held for e2ebench until its next change (ROADMAP item 3).
  bool shards_local = false;
  /// Ignored; held for e2ebench until its next change (ROADMAP item 3),
  /// which passes the same count to SetQueryThreads.
  unsigned planner_threads = 0;
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
  /// additionally drops the planner — its incremental state references
  /// the pre-restore snapshots.
  Status Checkpoint(const std::string& path) {
    return sketch_.Checkpoint(path);
  }
  Status Restore(const std::string& path);

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  size_t MemoryBits() const override { return sketch_.MemoryBits(); }

  void PrepareQuery(const std::vector<UserId>& users) override;
  /// Estimates answer from the live sketch until the next PrepareQuery;
  /// the planner keeps its incremental state for that call.
  void InvalidateQueryCache() override { planner_ready_ = false; }
  void SetQueryThreads(unsigned num_threads) override {
    query_threads_ = num_threads;
  }

  const ShardedVosSketch& sketch() const { return sketch_; }
  ShardedVosSketch& mutable_sketch() { return sketch_; }

  /// The query cache (nullptr before the first PrepareQuery and after
  /// Restore). Exposed for tests and for callers that want planner-level
  /// queries (TopK/AllPairsAbove) over the tracked set.
  const QueryPlanner* planner() const { return planner_.get(); }

 private:
  ShardedVosSketch sketch_;
  /// ln|1−2·d/k| per Hamming distance d ∈ [0, k].
  std::vector<double> log_alpha_table_;
  std::unique_ptr<QueryPlanner> planner_;
  /// The tracked set the planner snapshots cover; a different set at
  /// PrepareQuery forces a full planner Rebuild.
  std::vector<UserId> planner_candidates_;
  /// False between InvalidateQueryCache and the next PrepareQuery:
  /// EstimatePair answers from the live sketch meanwhile.
  bool planner_ready_ = false;
  unsigned query_threads_ = 0;
};

}  // namespace vos::core
