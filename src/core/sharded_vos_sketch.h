// ShardedVosSketch: the concurrent, shard-aware write path of VOS.
//
// The paper's O(1) update (§IV) leaves a serial `for (e : stream)
// Update(e)` loop as the only ingestion bottleneck. This class removes it
// by partitioning the stream *by user* across S fully independent
// VosSketch shards: shard s owns every user with ShardOf(u) == s and
// nothing else — its own bit array (m/S bits of the total budget), its own
// exact β counter, its own f-cell family (per-shard derived f seed), its
// own dirty set. Shards never share mutable state, so S ingest workers
// proceed without any synchronization on the hot path.
//
// Shard-routing invariant: a user's entire element history lands on
// exactly one shard (stream/shard_router.h), which keeps every shard's
// sub-stream locally feasible and makes every pair query answerable —
// both endpoints of (u, v) live in shards known from two ShardOf calls,
// and their digests remain XOR-comparable because ψ (item → virtual bit)
// is shared across shards; only the f families (virtual bit → cell)
// differ. Same-shard pairs estimate exactly as a standalone VosSketch on
// that shard's sub-stream would; cross-shard pairs generalize the §IV
// contamination correction from (1−2β)² to (1−2β_A)(1−2β_B), i.e. the
// 2·ln|1−2β| term becomes ln|1−2β_A| + ln|1−2β_B|.
//
// Ingestion pipeline (ingest_threads ≥ 1): P producer lanes
// (ingest_producers) feed W shard workers through P·S bounded SPSC rings
// (common/spsc_ring.h), one per (producer, shard). A producer's
// UpdateBatch runs ONE routing pass over its batch
// (DenseShardMap::Partition — rewrite to dense local ids and split into
// per-shard sub-batches), then pushes each non-empty sub-batch onto its
// own (producer, shard) ring. Every ring has exactly one writer (its
// producer) and one reader (its shard's worker), so the healthy hot path
// takes NO lock anywhere: push and pop are single release stores. Every
// wait is on an EventCount (common/event_count.h): a producer on a full
// ring spins a fixed number of yielding rounds and then waits on its
// lane's, an idle worker spins the same count and then waits on its own,
// and Flush barriers wait on one shared by all flushers while rechecking
// per-lane epoch counters (ring.pushed() vs lane.completed). A notify
// with nobody waiting costs one fence and one relaxed load. Worker w
// owns shards {s : s mod W == w} and drains their rings round-robin
// across producers, applying every element of a sub-batch verbatim — no
// worker ever scans elements it does not own, so ingest bandwidth scales
// with the producer count instead of being capped by a per-worker
// whole-batch scan, and with the worker count on the apply side.
//
// Determinism: each (producer, shard) queue is FIFO and each shard is
// applied by exactly one worker, so shard s sees producer p's elements in
// p's order. Interleaving BETWEEN producers is scheduling-dependent, but
// the final sketch state is not: array updates are XOR flips and
// cardinality updates are ±1 — both commutative — so the flushed state is
// bit-identical to synchronously routing each producer's stream in any
// order (asserted in tests/sharded_ingest_test.cc across producers ×
// shards × queue capacities). Per-producer in-shard FIFO order is what
// keeps each producer's feasible sub-stream feasible at the shard (a
// user's deletes never overtake their inserts when each user's history
// lives in one producer lane).
//
// With ingest_threads == 0 the pipeline is synchronous: UpdateBatch
// routes and applies inline (single-threaded, deterministic) — the
// reference the equivalence tests compare against. Both modes apply a
// shard's sub-batch through the same loop (ApplySubBatch), so poisoning,
// fault probes and drop counts cannot differ between them. At S = 1 the
// synchronous batch is that loop over the caller's span: the paper's
// bare update per element plus one user-range compare, with no routing
// or copy. Update(e) is UpdateBatch of one element in both modes;
// nothing is buffered per lane.
//
// Dense user remap (num_shards > 1): shard s's VosSketch lives entirely
// in shard-local id space. A construction-time DenseShardMap
// (stream/shard_router.h) assigns every global id a dense local id — its
// global-id rank within its shard — and routing rewrites each element's
// user to that local id before the shard sees it. Shard s is therefore
// sized for exactly the users it owns: per-user state (cardinality
// counters, dirty epochs) totals ~8 bytes/user across ALL shards instead
// of ~8·S bytes/user, the remap itself costs a fixed 8 bytes/user, and
// MemoryBits() counts all of it (see below). Because the map depends
// only on (seed, num_shards, num_users) — never on stream order — shard
// state stays deterministic across pipelines, and the query tier
// translates with two O(1) table lookups (LocalIdOf / GlobalUserOf).
// With num_shards == 1 the remap is the identity and is skipped
// entirely, keeping the single shard bit-identical to a standalone
// VosSketch(base) fed the raw stream.
//
// Thread-safety contract: producer lane p (Update / UpdateBatch /
// FlushProducer with producer == p) must be driven by one thread at a
// time, but DISTINCT lanes may run concurrently — that is the point.
// Flush() quiesces every lane and requires that no producer is feeding
// concurrently. Queries (EstimatePair, shard(), Cardinality) require a
// quiesced pipeline — call Flush() first; they are then const and
// concurrent-safe. The destructor flushes and joins the workers. In
// synchronous mode all ingest calls mutate shards inline and must come
// from one thread at a time regardless of the producer id.

// Failure semantics (PR 6): shard workers are no longer infallible. A
// worker exception (or an injected fault — common/fault_injector.h)
// poisons its shard: the shard's sticky non-OK Status is returned from
// Flush()/IngestStatus(), its queued and future sub-batches are dropped
// (counted in dropped_elements()), and the rest of the pipeline keeps
// flowing — degraded, not dead. Queries keep serving whatever state the
// shards hold; the method layer keeps serving its last snapshot. Enqueue
// and Flush accept deadlines (ShardedVosConfig::*_timeout_ms) so a
// starved lane surfaces as Status::DeadlineExceeded instead of a silent
// hang. Recovery is Checkpoint()/Restore(): an atomic, CRC-checked v3
// container (core/vos_io.h) holding every shard's state, the dense remap
// and the per-lane ingest watermarks recorded at the Flush barrier —
// replaying each lane's stream from its watermark reproduces the
// uninterrupted state bit-for-bit (tests/checkpoint_recovery_test.cc).

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/event_count.h"
#include "common/spsc_ring.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/vos_estimator.h"
#include "core/vos_sketch.h"
#include "stream/shard_router.h"

namespace vos::core {

/// Sizing and pipeline tunables of a sharded VOS sketch.
struct ShardedVosConfig {
  /// Total-budget sketch config: `base.m` is the bit budget across ALL
  /// shards (each shard gets m / num_shards), `base.seed` seeds ψ (shared
  /// by every shard) and the router; per-shard f seeds are derived from
  /// it. With num_shards == 1 the shard is configured exactly as a
  /// standalone VosSketch(base).
  VosConfig base;
  /// Number of independent shards (≥ 1).
  uint32_t num_shards = 1;
  /// Ingest worker threads: 0 = synchronous inline ingestion (no worker
  /// threads, deterministic); otherwise min(ingest_threads, num_shards)
  /// workers are spawned and each owns a fixed subset of the shards.
  unsigned ingest_threads = 0;
  /// Producer lanes (asynchronous mode only): each lane has its own
  /// bounded queue per shard and may be driven by its own thread
  /// concurrently with the other lanes. Clamped to ≥ 1; forced to 1 in
  /// synchronous mode (inline ingestion is single-threaded by contract).
  unsigned ingest_producers = 1;
  /// Ignored; held for e2ebench until its next change (ROADMAP item 3).
  size_t batch_size = 4096;
  /// Bounded queue depth, in sub-batches per (producer, shard) queue; a
  /// full queue blocks that producer (back-pressure instead of unbounded
  /// memory).
  size_t queue_capacity = 64;
  /// Deadline for a back-pressured enqueue, in milliseconds (0 = block
  /// indefinitely, the pre-PR-6 behaviour). On expiry the sub-batch is
  /// dropped, the destination shard's sticky status becomes
  /// DeadlineExceeded (lane starved), and the producer keeps running.
  uint64_t enqueue_timeout_ms = 0;
  /// Deadline for Flush()/FlushProducer(), in milliseconds (0 = wait
  /// indefinitely). On expiry Flush returns DeadlineExceeded without
  /// poisoning anything — the wait was abandoned, not the data.
  uint64_t flush_timeout_ms = 0;
  /// Optional memory ceiling in bits over the sketch's static footprint
  /// (arrays, per-user state and the dirty-tracking state a planner
  /// allocates when it starts) plus queued-but-unapplied sub-batches
  /// (0 = unbounded). A config whose static footprint alone exceeds the
  /// budget is rejected at construction (ValidateConfig); at runtime an
  /// enqueue that would cross the ceiling is dropped and the sticky
  /// ingest status becomes ResourceExhausted — graceful degradation
  /// instead of OOM.
  uint64_t memory_budget_bits = 0;
};

/// S independent VosSketch shards behind one ingest/query facade.
class ShardedVosSketch {
 public:
  /// Aborts (VOS_CHECK) with ValidateConfig's message on a degenerate
  /// config — a zero queue capacity must fail here, loudly, not deadlock
  /// the first back-pressured enqueue.
  ShardedVosSketch(const ShardedVosConfig& config, UserId num_users,
                   VosEstimatorOptions estimator_options = {});
  ~ShardedVosSketch();

  /// Rejects degenerate configurations with a clear InvalidArgument:
  /// zero shards/queue capacity/producer lanes, zero k or m,
  /// and a memory_budget_bits smaller than the config's own static
  /// footprint. The constructor enforces this; callers that would rather
  /// handle the error than abort can pre-validate.
  static Status ValidateConfig(const ShardedVosConfig& config,
                               UserId num_users);

  ShardedVosSketch(const ShardedVosSketch&) = delete;
  ShardedVosSketch& operator=(const ShardedVosSketch&) = delete;

  /// The VosConfig shard `shard` runs: base with m divided by num_shards
  /// and (for num_shards > 1) a per-shard derived f seed. Exposed so
  /// tests and external shard replicas can construct bit-identical
  /// standalone references.
  static VosConfig ShardConfig(const ShardedVosConfig& config,
                               uint32_t shard);

  /// UpdateBatch(&e, 1, producer): one element is a batch of one.
  void Update(const stream::Element& e, unsigned producer = 0) {
    UpdateBatch(&e, 1, producer);
  }

  /// Processes a contiguous batch on producer lane `producer`, preserving
  /// the lane's per-shard element order. The batch is split into
  /// per-shard sub-batches in one routing pass (none at S = 1 in
  /// synchronous mode); synchronous mode applies each inline,
  /// asynchronous mode enqueues each onto the lane's per-shard queue.
  /// Aborts on a user id outside [0, num_users()), in every mode and at
  /// every shard count.
  void UpdateBatch(const stream::Element* elements, size_t count,
                   unsigned producer = 0);

  /// Blocks until every element accepted on ANY lane is applied to its
  /// shard or dropped against a poisoned shard, then returns
  /// IngestStatus(). Requires that no producer is feeding concurrently.
  /// With flush_timeout_ms set, an expired wait returns DeadlineExceeded
  /// (and applies no state change). In synchronous mode returns
  /// IngestStatus() immediately.
  Status Flush() VOS_EXCLUDES(mu_);

  /// Blocks until every element accepted on lane `producer` is applied
  /// (or dropped), then returns IngestStatus(). Safe to call from the
  /// lane's own thread while OTHER lanes are still feeding.
  Status FlushProducer(unsigned producer) VOS_EXCLUDES(mu_);

  /// The sticky health of the ingest fabric: OK while every shard is
  /// healthy and no batch has been rejected; otherwise the first
  /// poisoned shard's status (worker exception / kill / starvation) or
  /// the budget-rejection status. Sticky until Restore().
  Status IngestStatus() const VOS_EXCLUDES(mu_);

  /// Elements dropped because their destination shard was poisoned, a
  /// back-pressured enqueue timed out, or the memory budget was hit.
  /// Zero on a healthy pipeline.
  uint64_t dropped_elements() const;

  /// Spin/park counters summed over every producer lane and worker
  /// since construction (all zero in synchronous mode, which has no
  /// lanes). Plain counters held for e2ebench's three spin metrics until
  /// the metrics registry (ROADMAP item 3) takes them over.
  struct SpinStats {
    uint64_t push_parks = 0;       ///< producer parks on full rings
    uint64_t push_spin_saves = 0;  ///< full-ring pushes that landed spinning
    uint64_t idle_parks = 0;       ///< worker parks on empty rings
  };
  SpinStats IngestSpinStats() const;

  // --- Durability (see file comment and core/vos_io.h) ------------------

  /// Per-lane ingest watermarks: watermark[p] = elements accepted on
  /// lane p since construction (or the last Restore). At a successful
  /// Flush barrier every accepted element is applied, so the watermarks
  /// name the exact per-lane stream positions a checkpoint covers. Only
  /// stable once the pipeline is quiesced.
  std::vector<uint64_t> ingest_watermarks() const {
    std::vector<uint64_t> watermarks(accepted_.size());
    for (size_t p = 0; p < accepted_.size(); ++p) {
      watermarks[p] = accepted_[p].load(std::memory_order_relaxed);
    }
    return watermarks;
  }

  /// Atomically checkpoints the flushed state (every shard's sketch, the
  /// dense remap, the per-lane watermarks) to `path`: written to a temp
  /// file, fsynced, then renamed — a crash mid-checkpoint leaves any
  /// previous checkpoint at `path` intact. Flushes first (same
  /// no-concurrent-producer contract as Flush); refuses with the sticky
  /// status if the pipeline is degraded — a checkpoint must never cover
  /// dropped data.
  Status Checkpoint(const std::string& path) VOS_EXCLUDES(mu_);

  /// Restores a checkpoint written by Checkpoint() with a matching
  /// configuration (manifest-checked). All-or-nothing: every section is
  /// CRC-verified and staged before any live state changes, so a torn or
  /// corrupt file leaves this sketch exactly as it was. On success the
  /// shard sketches, watermarks and dense remap match the checkpointed
  /// state bit-for-bit, sticky ingest statuses are cleared (recovery
  /// heals poisoning), and ingestion may resume — resume each lane's
  /// stream from ingest_watermarks()[lane]. Shards whose worker thread
  /// was killed stay rejected (FailedPrecondition): a dead thread cannot
  /// be resurrected in-process; restore into a fresh instance instead.
  Status Restore(const std::string& path) VOS_EXCLUDES(mu_);

  /// True while sub-batches are queued but not yet applied (always false
  /// in synchronous mode, which applies inline). Lock-free: compares each
  /// ring's pushed counter with its completed epoch, so any thread can
  /// poll while producer lanes are feeding. A batch a producer is still
  /// routing is not yet counted; a false answer is only a stable
  /// "quiesced" statement once producers have stopped.
  bool HasPendingIngest() const;

  /// (ŝ, Ĵ) for a pair at the current (flushed) state. Same-shard pairs
  /// match a standalone VosSketch fed the shard's (locally re-id'd)
  /// sub-stream bit-for-bit; cross-shard pairs use the two-β
  /// contamination correction (see file comment). Aborts on a user id
  /// outside [0, num_users()).
  PairEstimate EstimatePair(UserId u, UserId v) const;

  uint32_t ShardOf(UserId user) const { return router_.ShardOf(user); }
  uint32_t num_shards() const { return router_.num_shards(); }
  const stream::ShardRouter& router() const { return router_; }

  /// Producer lanes that may ingest concurrently: config.ingest_producers
  /// in asynchronous mode, 1 in synchronous mode.
  unsigned num_producers() const { return producers_; }

  /// True when the dense remap is engaged (num_shards > 1); with one
  /// shard local ids equal global ids.
  bool dense_remap() const { return router_.num_shards() > 1; }

  /// Dense local id of `user` within shard ShardOf(user) — the id its
  /// owning shard's VosSketch knows it by.
  UserId LocalIdOf(UserId user) const {
    return dense_remap() ? dense_map_.LocalOf(user) : user;
  }

  /// Inverse of LocalIdOf: the global id behind (shard, local).
  UserId GlobalUserOf(uint32_t shard, UserId local) const {
    return dense_remap() ? dense_map_.GlobalOf(shard, local) : local;
  }

  /// Users owned by `shard` (the size of its dense local id space).
  UserId ShardUserCount(uint32_t shard) const {
    return shards_[shard].num_users();
  }

  const VosSketch& shard(uint32_t s) const { return shards_[s]; }

  /// n_u, read from the user's owning shard.
  uint32_t Cardinality(UserId user) const {
    return shards_[ShardOf(user)].Cardinality(LocalIdOf(user));
  }

  /// Honest total memory: the shard arrays (≈ base.m bits by
  /// construction) PLUS every structure the sharded facade has allocated
  /// beside them — per-shard cardinality counters, the dense remap's
  /// forward/inverse tables and, once an incremental planner has started
  /// tracking, the dirty epochs and changed-word summaries
  /// (VosSketch::BookkeepingBits). Thanks to the dense remap the per-user
  /// portion is independent of num_shards (~4–16 bytes/user total, vs.
  /// ~8·S bytes/user without it). Unlike plain VosSketch::MemoryBits(),
  /// this counts the one cardinality counter per user every compared
  /// method keeps; ShardedVosMethod::MemoryBits() leaves it out. The
  /// memory-budget floor counts the dirty-tracking state from the start.
  size_t MemoryBits() const;

  const ShardedVosConfig& config() const { return config_; }
  const VosEstimator& estimator() const { return estimator_; }
  UserId num_users() const { return num_users_; }

 private:
  friend class ShardedCheckpointIo;  // serialization needs raw state

  /// One SPSC channel from producer p to shard s's worker, plus the
  /// lane's flush epoch and the producer's wait for room. Elements are
  /// already in shard-local coordinates, so the owning worker applies
  /// them verbatim. alignas keeps one lane's traffic off its neighbours'
  /// cache lines.
  struct alignas(64) IngestLane {
    SpscRing<std::vector<stream::Element>> ring;
    /// Sub-batches applied or discarded by the consumer side. The Flush
    /// barrier for a lane is completed == ring.pushed(): every pushed
    /// sub-batch is eventually popped by its worker (applied, or
    /// discarded against a poisoned shard) or reclaimed from a dead
    /// worker's ring under mu_, and each of those paths increments this.
    std::atomic<uint64_t> completed{0};
    /// The producer waits here on a full ring; the worker notifies after
    /// every pop.
    EventCount room;
    /// Written only by the lane's producer; atomic so IngestSpinStats()
    /// may read them from any thread.
    std::atomic<uint64_t> push_parks{0};
    std::atomic<uint64_t> push_spin_saves{0};
  };

  bool async() const { return !worker_threads_.empty(); }
  size_t LaneIndex(unsigned producer, uint32_t shard) const {
    return static_cast<size_t>(producer) * router_.num_shards() + shard;
  }
  /// Aborts (VOS_CHECK) on a user id outside [0, num_users()): stream
  /// corruption must not index past the shard's per-user state. The
  /// dense remap checks its own lookups; one shard has no remap.
  void CheckUserInRange(UserId user) const {
    VOS_CHECK(user < num_users_)
        << "user" << user << "out of range (num_users " << num_users_ << ")";
  }
  /// The one apply loop, shared by the synchronous path and the shard
  /// workers: applies `count` elements, already in shard-local
  /// coordinates, to `shard`. Drops the whole sub-batch against a
  /// poisoned shard. Aborts on a user id outside the shard's id space
  /// (the range check of a one-shard synchronous batch, which skips
  /// routing). Probes kUpdateThrow at (shard, producer) per element only
  /// while a fault is armed. A throw (injected, or a genuinely broken
  /// Update) poisons the shard and drops the elements from the throwing
  /// one on; those before it stay applied.
  void ApplySubBatch(uint32_t shard, unsigned producer,
                     const stream::Element* elements, size_t count)
      VOS_EXCLUDES(mu_);
  /// Marks `shard` failed (first error wins, sticky) and flips the
  /// degraded flag. Does NOT touch rings (the consumer side discards a
  /// poisoned shard's backlog on pop, or the kill / reclaim paths drain
  /// it) and does NOT wake waiters — call WakeAllWaiters().
  void PoisonShardLocked(uint32_t shard, Status status) VOS_REQUIRES(mu_);
  /// Wakes every parked producer, every parked worker and every flush
  /// waiter (cold paths only: poison, budget, stop).
  void WakeAllWaiters();
  /// True iff `shard` is poisoned (locks mu_; call only behind a
  /// degraded_ fast-path check).
  bool ShardPoisoned(uint32_t shard) const VOS_EXCLUDES(mu_);
  /// Reclaims lane (producer, shard)'s ring after its owning worker died:
  /// a push can race a dying worker's final drain, and the seq_cst fence
  /// pairing guarantees the racing producer then observes degraded_ and
  /// calls this. Drains under mu_ (the dead worker no longer touches the
  /// ring; mu_ serializes against Restore and other reclaims).
  void ReclaimDeadLane(unsigned producer, uint32_t shard) VOS_EXCLUDES(mu_);
  /// Discards every sub-batch queued on a dead worker's lane: counts the
  /// elements dropped, releases their budget bytes and completes each
  /// one. mu_ keeps the ring single-consumer. True if any were queued.
  bool DrainDeadLaneLocked(IngestLane& lane) VOS_REQUIRES(mu_);
  /// The lane's Flush barrier: every pushed sub-batch is completed.
  static bool LaneDrained(const IngestLane& lane) {
    return lane.completed.load(std::memory_order_acquire) ==
           lane.ring.pushed();
  }
  Status IngestStatusLocked() const VOS_REQUIRES(mu_);
  /// The one routing pass: splits [elements, elements+count) into
  /// per-shard sub-batches rewritten to shard-local coordinates.
  /// `per_shard` must hold num_shards() empty buckets.
  void RoutePartition(const stream::Element* elements, size_t count,
                      std::vector<std::vector<stream::Element>>* per_shard)
      const;
  void EnqueueSubBatch(unsigned producer, uint32_t shard,
                       std::vector<stream::Element> batch) VOS_EXCLUDES(mu_);
  /// Spin-then-park push: bounded spin on the full ring, then wait on the
  /// lane's EventCount until the worker pops, this lane's own shard is
  /// poisoned, or the enqueue deadline expires — whatever other shards
  /// do meanwhile. Returns false when the batch was NOT pushed (caller
  /// drops it; on deadline the shard has been poisoned).
  bool PushWithBackPressure(IngestLane& lane, uint32_t shard,
                            std::vector<stream::Element>& batch)
      VOS_EXCLUDES(mu_);
  /// Waits until lanes [first, last) are drained (completed ==
  /// ring.pushed()), with the config flush deadline when `use_timeout`.
  Status WaitLanesDrained(size_t first, size_t last, bool use_timeout,
                          const char* what) VOS_EXCLUDES(mu_);
  void WorkerLoop(unsigned worker);
  /// Pops one batch from the worker's lanes (round-robin), parking when
  /// every owned ring is empty. False = stopping and fully drained.
  bool PopNextBatch(unsigned worker, size_t* cursor, size_t* lane_index,
                    std::vector<stream::Element>* batch) VOS_EXCLUDES(mu_);

  ShardedVosConfig config_;
  stream::ShardRouter router_;
  /// Global id → (shard, dense local id); empty when num_shards == 1
  /// (identity remap). Immutable after construction.
  stream::DenseShardMap dense_map_;
  UserId num_users_ = 0;
  unsigned producers_ = 1;
  VosEstimator estimator_;
  std::vector<VosSketch> shards_;
  /// Synchronous mode's routing buckets, one per shard, reused by every
  /// UpdateBatch (sync ingest is single-threaded by contract). Empty in
  /// async mode.
  std::vector<std::vector<stream::Element>> sync_buckets_;
  /// owner_[s] = worker that applies shard s's elements.
  std::vector<uint8_t> owner_;

  /// accepted_[p] = elements accepted on lane p since construction (or
  /// the last Restore): the per-lane ingest watermarks. Written only by
  /// lane p's thread (single-writer by construction); stable reads
  /// require a quiesced pipeline. Ordering: relaxed everywhere — the
  /// single writer needs no RMW, and every read that must be exact
  /// (watermarks at checkpoint) is specified only after the Flush
  /// barrier, whose acquire loads of the lane epochs already order these
  /// counters (producer store → push → pop → completed release).
  std::vector<std::atomic<uint64_t>> accepted_;

  /// Producer-major: lanes_[LaneIndex(p, s)] is lane p's shard-s ring.
  /// unique_ptr<[]> (not vector): IngestLane holds an EventCount and
  /// never moves.
  std::unique_ptr<IngestLane[]> lanes_;
  /// worker_lanes_[w] = indexes into lanes_ of every ring worker w
  /// drains (its owned shards × all producers). Immutable after
  /// construction.
  std::vector<std::vector<size_t>> worker_lanes_;
  /// worker_wake_[w]: idle worker w waits here; a push onto any of its
  /// rings notifies it.
  std::unique_ptr<EventCount[]> worker_wake_;
  /// idle_parks_[w]: worker w's parks, written only by worker w.
  std::vector<std::atomic<uint64_t>> idle_parks_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> worker_threads_;
  /// Flush barriers wait here; every lane completion notifies it.
  EventCount lanes_drained_;

  // --- Failure state ----------------------------------------------------
  /// Sticky per-shard health; non-OK = poisoned (worker exception, kill,
  /// lane starvation). First error wins.
  std::vector<Status> shard_status_ VOS_GUARDED_BY(mu_);
  /// Sticky memory-budget rejection (ResourceExhausted) if the queued
  /// backlog ever crossed memory_budget_bits.
  Status budget_status_ VOS_GUARDED_BY(mu_);
  /// Fast-path mirror of "any sticky status is non-OK": one relaxed load
  /// keeps the healthy hot paths at their measured cost.
  std::atomic<bool> degraded_{false};
  /// Elements rejected (poisoned shard / enqueue deadline / budget).
  /// Ordering: relaxed fetch_adds — a pure monotonic statistic; the only
  /// exact read (dropped_elements() after a failed Flush) happens after
  /// the barrier has ordered every drop site.
  std::atomic<uint64_t> dropped_elements_{0};
  /// Bytes held by queued-but-unapplied sub-batches (budget accounting):
  /// charged before the push, released after apply / discard / reject,
  /// so in-flight batches stay inside the ceiling. Ordering: relaxed
  /// RMWs suffice — the ceiling comes from the charge-BEFORE-push
  /// protocol (each lane's charge is visible in its own fetch_add return
  /// before the bytes exist in any ring), not from inter-thread
  /// ordering; no other memory is published under this counter.
  std::atomic<size_t> queued_bytes_{0};
  /// Static footprint in bits (arrays, tables, dirty-tracking state),
  /// computed once.
  size_t static_memory_bits_ = 0;
  /// worker_dead_[w]: the worker thread exited via an injected kill; its
  /// shards cannot ingest again in this process.
  std::vector<uint8_t> worker_dead_ VOS_GUARDED_BY(mu_);
  /// Serializes the cold failure/restore state above; NEVER taken on the
  /// healthy hot path. It is the fabric's only lock: each EventCount's
  /// mutex is a private leaf, never held while caller code runs, so no
  /// order between the two needs declaring. Every function that blocks on
  /// the fabric (PushWithBackPressure, WaitLanesDrained, PopNextBatch) is
  /// VOS_EXCLUDES(mu_): the threads it waits for take mu_ on their way
  /// (poison, kill, reclaim), so waiting while holding it would deadlock.
  mutable Mutex mu_;
};

}  // namespace vos::core
