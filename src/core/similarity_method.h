// The common interface every similarity-estimation method implements.
//
// The paper compares four methods — VOS (its contribution), MinHash, OPH and
// RP — on identical streams under an equal memory budget. The harness drives
// them all through this interface: stream elements in via Update() (the
// operation whose cost Figure 2 measures), pair estimates out via
// EstimatePair() (whose accuracy Figure 3 measures).

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "stream/element.h"

namespace vos::core {

using stream::Element;
using stream::UserId;

/// A method's answer for one user pair at the current time.
struct PairEstimate {
  /// ŝ_uv — estimated number of common items.
  double common = 0.0;
  /// Ĵ(S_u, S_v) — estimated Jaccard coefficient.
  double jaccard = 0.0;
};

/// Streaming user-similarity estimator over fully dynamic graph streams.
///
/// Implementations maintain per-user cardinality counters n_u internally
/// (the paper notes all methods keep these; they are excluded from the
/// sketch memory budget because every method pays the identical cost).
class SimilarityMethod {
 public:
  virtual ~SimilarityMethod() = default;

  /// Human-readable method name ("VOS", "MinHash", …) used in tables.
  virtual std::string Name() const = 0;

  /// Processes one stream element (u, i, ±).
  virtual void Update(const Element& e) = 0;

  /// Processes a contiguous batch of elements, in order. The default
  /// simply loops Update(); methods with a batched/concurrent ingest path
  /// (VOS-sharded) override it to amortize routing and hand whole batches
  /// to their workers. Semantics are identical to the element loop — the
  /// harness may use either interchangeably.
  virtual void UpdateBatch(const Element* elements, size_t count) {
    for (size_t i = 0; i < count; ++i) Update(elements[i]);
  }

  /// Producer-lane variant: processes the batch on ingest lane
  /// `producer`. Methods with a multi-producer pipeline (VOS-sharded)
  /// accept concurrent calls on DISTINCT lanes in
  /// [0, ConcurrentIngestProducers()); each lane must be driven by one
  /// thread at a time and sees its own elements applied in FIFO order.
  /// The default ignores the lane and forwards to the single-producer
  /// UpdateBatch — safe, because the default advertises one lane.
  virtual void UpdateBatch(const Element* elements, size_t count,
                           unsigned producer) {
    (void)producer;
    UpdateBatch(elements, count);
  }

  /// Blocks until every element previously passed to Update/UpdateBatch
  /// (on any lane) is reflected in the sketch state, then reports the
  /// ingest pipeline's health: OK for synchronous methods and healthy
  /// pipelines; a sticky non-OK Status when a concurrent pipeline has
  /// dropped data (poisoned shard, starved lane, exceeded memory budget
  /// — see core/sharded_vos_sketch.h). The harness calls it before
  /// evaluating a checkpoint so asynchronous ingest pipelines quiesce
  /// first, and aborts the run on a non-OK answer. Requires that no
  /// producer lane is feeding concurrently.
  virtual Status FlushIngest() { return Status::OK(); }

  /// Producer-lane variant: blocks until lane `producer`'s elements are
  /// applied. Safe to call from the lane's own thread while other lanes
  /// are still feeding; the default forwards to the global FlushIngest.
  virtual Status FlushIngest(unsigned producer) {
    (void)producer;
    return FlushIngest();
  }

  /// Number of ingest lanes that may call the producer-lane UpdateBatch
  /// concurrently (1 = single-producer, the default). The harness uses
  /// this to decide how many replay threads to spawn.
  virtual unsigned ConcurrentIngestProducers() const { return 1; }

  /// Estimates (ŝ_uv, Ĵ_uv) for the pair at the current time.
  virtual PairEstimate EstimatePair(UserId u, UserId v) const = 0;

  /// Sketch memory in bits, for equal-memory comparisons. Excludes the
  /// per-user cardinality counters shared by all methods (see class
  /// comment).
  virtual size_t MemoryBits() const = 0;

  /// Optional batch hook called before a round of EstimatePair() calls for
  /// `users`; lets methods precompute per-user digests (VOS materializes
  /// its k reconstructed bits per tracked user once instead of per pair).
  /// Until the next InvalidateQueryCache, estimates between two of
  /// `users` come from the snapshot this call took — identical to the
  /// uncached answer until the stream advances — so the caller quiesces
  /// ingest first and invalidates before updating again.
  virtual void PrepareQuery(const std::vector<UserId>& users) {
    (void)users;
  }

  /// Ends the PrepareQuery snapshot: later estimates answer from the live
  /// state (called when the stream advances past a checkpoint).
  virtual void InvalidateQueryCache() {}

  /// Optional: worker threads PrepareQuery may use for batch digest
  /// extraction (0 = hardware concurrency). Methods without a parallel
  /// batch path ignore it.
  virtual void SetQueryThreads(unsigned num_threads) { (void)num_threads; }
};

}  // namespace vos::core
