// SimilarityMethod adapter for ShardedVosSketch: the sharded write path
// behind the same harness interface as every other method. With one
// shard and synchronous ingest it is the paper's VOS ("VOS" in the
// harness): one shared array, the bare O(1) update per element.
//
// Update/UpdateBatch feed the ingest pipeline; FlushIngest quiesces it
// (the harness calls it at every checkpoint). The query cache is a
// QueryPlanner holding one immutable Snapshot per shard. PrepareQuery
// flushes and hands the set to QueryPlanner::Prepare, which decides how
// to snapshot it: a new set rebuild-only (k bits per candidate), the same
// set again by capturing incremental state, and later by patching only
// the digest bits whose array cells changed. InvalidateQueryCache drops
// the planner, so the Figure-3 harness (prepare, estimate, invalidate)
// holds one rebuild-only snapshot at a time and, like the Figure-2
// update timing, never starts dirty tracking.
// EstimatePair is the planner's: two snapshot rows — a word-wise
// XOR+popcount plus log-table lookups; rows from different shards are
// directly comparable (shared ψ, equal k) and only the β correction
// switches to the two-shard form (see core/sharded_vos_sketch.h).
// Estimates are bit-identical to ShardedVosSketch::EstimatePair on
// quiesced state.

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

/// Sharded VOS as a pluggable SimilarityMethod: "VOS" with one shard and
/// synchronous ingest, "VOS-sharded" otherwise.
class ShardedVosMethod : public SimilarityMethod {
 public:
  ShardedVosMethod(const ShardedVosConfig& config, UserId num_users,
                   VosEstimatorOptions options = {},
                   ShardedQueryConfig query_config = {});

  std::string Name() const override {
    return sketch_.num_shards() == 1 && sketch_.config().ingest_threads == 0
               ? "VOS"
               : "VOS-sharded";
  }

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
  /// additionally drops the planner — its snapshots are of the
  /// pre-restore state.
  Status Checkpoint(const std::string& path) {
    return sketch_.Checkpoint(path);
  }
  Status Restore(const std::string& path);

  PairEstimate EstimatePair(UserId u, UserId v) const override;

  /// ShardedVosSketch::MemoryBits() without the one cardinality counter
  /// per user every method keeps (the SimilarityMethod convention): the
  /// array bits alone for one shard no incremental planner consumed.
  size_t MemoryBits() const override {
    return sketch_.MemoryBits() - size_t{sketch_.num_users()} * 32;
  }

  void PrepareQuery(const std::vector<UserId>& users) override;
  /// Drops the planner: estimates answer from the live sketch until the
  /// next PrepareQuery, which snapshots rebuild-only again.
  void InvalidateQueryCache() override { planner_.reset(); }
  void SetQueryThreads(unsigned num_threads) override {
    query_threads_ = num_threads;
  }

  const ShardedVosSketch& sketch() const { return sketch_; }
  ShardedVosSketch& mutable_sketch() { return sketch_; }

  /// The query cache (nullptr until PrepareQuery and after
  /// InvalidateQueryCache or Restore). Exposed for tests and for callers
  /// that want planner-level queries (TopK/AllPairsAbove).
  const QueryPlanner* planner() const { return planner_.get(); }

 private:
  ShardedVosSketch sketch_;
  std::unique_ptr<QueryPlanner> planner_;
  unsigned query_threads_ = 0;
};

}  // namespace vos::core
