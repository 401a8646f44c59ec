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
// takes NO lock anywhere: push and pop are single release stores,
// back-pressure spins a fixed number of yielding rounds and then parks on
// a per-lane condvar, idle workers spin the same count and then park on
// a per-worker condvar, and Flush barriers wait on
// per-lane epoch counters (ring.pushed() vs lane.completed) instead of a
// global notify_all. Worker w owns shards {s : s mod W == w} and drains
// their rings round-robin across producers, applying every element of a
// sub-batch verbatim — no worker ever scans elements it does not own, so
// ingest bandwidth scales with the producer count instead of being
// capped by a per-worker whole-batch scan, and with the worker count on
// the apply side.
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
// reference the equivalence tests compare against. At S = 1 a healthy
// batch with no armed fault runs the paper's bare update loop plus one
// user-range compare per element; the rest goes element by element.
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
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
  /// pending buffer and its own bounded queue per shard, and may be
  /// driven by its own thread concurrently with the other lanes. Clamped
  /// to ≥ 1; forced to 1 in synchronous mode (inline ingestion is
  /// single-threaded by contract).
  unsigned ingest_producers = 1;
  /// Elements buffered by Update() before auto-enqueueing one batch
  /// (asynchronous mode only; UpdateBatch enqueues the caller's batch
  /// as-is).
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
  /// zero shards/queue capacity/batch size/producer lanes, zero k or m,
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

  /// Processes one element on producer lane `producer`. Synchronous mode
  /// applies it inline; asynchronous mode buffers it in the lane's
  /// pending buffer and enqueues a sub-batch run every `batch_size`
  /// elements. Both Update and UpdateBatch abort on a user id outside
  /// [0, num_users()), in every mode and at every shard count.
  void Update(const stream::Element& e, unsigned producer = 0);

  /// Processes a contiguous batch on producer lane `producer`, preserving
  /// the lane's per-shard element order. Asynchronous mode partitions the
  /// batch into per-shard sub-batches in one routing pass and enqueues
  /// them onto the lane's per-shard queues.
  void UpdateBatch(const stream::Element* elements, size_t count,
                   unsigned producer = 0);

  /// Blocks until every element accepted on ANY lane is applied to its
  /// shard (including all Update() buffers) or dropped against a
  /// poisoned shard, then returns IngestStatus(). Requires that no
  /// producer is feeding concurrently. With flush_timeout_ms set, an
  /// expired wait returns DeadlineExceeded (and applies no state
  /// change). In synchronous mode returns IngestStatus() immediately.
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

  /// Spin/park counters summed over every producer lane / worker slot
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

  /// True while elements are buffered or queued but not yet applied.
  /// Lock-free: reads each lane's own atomics — the per-producer
  /// accepted/dispatched element counters (Update() buffer occupancy)
  /// and each ring's pushed counter vs its completed epoch — so any
  /// thread can poll while producer lanes are feeding. A false answer is
  /// only a stable "quiesced" statement once producers have stopped.
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
  VosSketch& mutable_shard(uint32_t s) { return shards_[s]; }

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
  /// lane's flush epoch and the producer-side parking spot for
  /// back-pressure. Elements are already in shard-local coordinates, so
  /// the owning worker applies them verbatim. alignas keeps one lane's
  /// traffic off its neighbours' cache lines.
  struct alignas(64) IngestLane {
    SpscRing<std::vector<stream::Element>> ring;
    /// Sub-batches applied or discarded by the consumer side. The Flush
    /// barrier for a lane is completed == ring.pushed(): every pushed
    /// sub-batch is eventually popped by its worker (applied, or
    /// discarded against a poisoned shard) or reclaimed from a dead
    /// worker's ring under mu_, and each of those paths increments this.
    std::atomic<uint64_t> completed{0};
    /// 1 while the lane's producer is parked on a full ring. Consumers
    /// load it after a pop (behind a seq_cst fence) and notify under
    /// park_mu, pairing with the producer's set-flag → recheck → wait.
    std::atomic<uint32_t> producer_parked{0};
    /// Park-path leaf lock: never held while acquiring mu_ (see mu_'s
    /// ordering note; array members cannot carry VOS_ACQUIRED_BEFORE, so
    /// the order is enforced by VOS_EXCLUDES(mu_) on every acquirer).
    Mutex park_mu;
    CondVar park_cv;
    /// Written only by the lane's producer; atomic so IngestSpinStats()
    /// may read them from any thread.
    std::atomic<uint64_t> push_parks{0};
    std::atomic<uint64_t> push_spin_saves{0};
  };

  /// Per-worker parking spot for idle workers: the worker sets `parked`,
  /// re-scans its rings, and only then waits; producers load `parked`
  /// after a push (behind a seq_cst fence) and notify under mu — the
  /// Dekker-style handshake that makes lost wakeups impossible without
  /// any lock on the non-parked path.
  struct alignas(64) WorkerSlot {
    std::atomic<uint32_t> parked{0};
    /// Park-path leaf lock, same ordering rule as IngestLane::park_mu.
    Mutex mu;
    CondVar cv;
    /// Written only by the owning worker.
    std::atomic<uint64_t> idle_parks{0};
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
  /// Applies a batch inline (synchronous mode): a healthy one-shard batch
  /// straight to the shard (health checked once); ApplySyncElement takes
  /// multi-shard, degraded or armed batches and the rest after a throw.
  void ApplySyncBatch(const stream::Element* elements, size_t count)
      VOS_EXCLUDES(mu_);
  /// Applies one element inline (synchronous mode), routing through the
  /// dense remap. Drops it against a poisoned shard; catches
  /// worker-model exceptions and poisons the shard, exactly like the
  /// async apply loop.
  void ApplySyncElement(const stream::Element& e) VOS_EXCLUDES(mu_);
  /// Poisons `shard` with an update failure and counts the one element
  /// that threw as dropped (synchronous mode).
  void PoisonAfterThrow(uint32_t shard, const std::exception& ex)
      VOS_EXCLUDES(mu_);
  /// Marks `shard` failed (first error wins, sticky) and flips the
  /// degraded flag. Does NOT touch rings (the consumer side discards a
  /// poisoned shard's backlog on pop, or the kill / reclaim paths drain
  /// it) and does NOT wake waiters — call WakeAllWaiters() after
  /// releasing mu_.
  void PoisonShardLocked(uint32_t shard, Status status) VOS_REQUIRES(mu_);
  /// Wakes every parked producer, every parked worker and every flush
  /// waiter (cold paths only: poison, budget, stop). Must be called
  /// WITHOUT mu_ held — park mutexes are never nested inside mu_.
  void WakeAllWaiters() VOS_EXCLUDES(mu_);
  /// True iff `shard` is poisoned (locks mu_; call only behind a
  /// degraded_ fast-path check).
  bool ShardPoisoned(uint32_t shard) const VOS_EXCLUDES(mu_);
  /// Reclaims lane (producer, shard)'s ring after its owning worker died:
  /// a push can race a dying worker's final drain, and the seq_cst fence
  /// pairing guarantees the racing producer then observes degraded_ and
  /// calls this. Drains under mu_ (the dead worker no longer touches the
  /// ring; mu_ serializes against Restore and other reclaims).
  void ReclaimDeadLane(unsigned producer, uint32_t shard) VOS_EXCLUDES(mu_);
  Status IngestStatusLocked() const VOS_REQUIRES(mu_);
  /// The one routing pass: splits [elements, elements+count) into
  /// per-shard sub-batches rewritten to shard-local coordinates.
  /// `per_shard` must hold num_shards() empty buckets.
  void RoutePartition(const stream::Element* elements, size_t count,
                      std::vector<std::vector<stream::Element>>* per_shard)
      const;
  void EnqueueSubBatch(unsigned producer, uint32_t shard,
                       std::vector<stream::Element> batch) VOS_EXCLUDES(mu_);
  /// Spin-then-park push: bounded spin on the full ring, then park on the
  /// lane's condvar until the worker pops, the shard is poisoned, or the
  /// enqueue deadline expires. Returns false when the batch was NOT
  /// pushed (caller drops it; on deadline the shard has been poisoned).
  bool PushWithBackPressure(IngestLane& lane, uint32_t shard,
                            std::vector<stream::Element>& batch)
      VOS_EXCLUDES(mu_);
  void FlushPendingBuffer(unsigned producer) VOS_EXCLUDES(mu_);
  /// Waits until lanes [first, last) are drained (completed ==
  /// ring.pushed()), with the config flush deadline when `use_timeout`.
  Status WaitLanesDrained(size_t first, size_t last, bool use_timeout,
                          const char* what) VOS_EXCLUDES(mu_);
  /// Signals lane completion: bumps the lane epoch and wakes any flush
  /// waiter (fence-paired, notify only when someone waits).
  void CompleteLaneBatch(IngestLane& lane) VOS_EXCLUDES(mu_);
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
  /// owner_[s] = worker that applies shard s's elements.
  std::vector<uint8_t> owner_;

  /// Producer-side Update() buffers, one per lane (async mode); each is
  /// touched only by its lane's thread (plus Flush on a quiesced
  /// pipeline).
  std::vector<std::vector<stream::Element>> pending_;

  /// accepted_[p] = elements accepted on lane p since construction (or
  /// the last Restore): the per-lane ingest watermarks. Written only by
  /// lane p's thread (single-writer by construction); relaxed loads give
  /// HasPendingIngest an advisory view, stable reads require a quiesced
  /// pipeline. Ordering: relaxed everywhere — the single writer needs no
  /// RMW, and every read that must be exact (watermarks at checkpoint)
  /// is specified only after the Flush barrier, whose seq_cst epoch
  /// fences already publish these counters.
  std::vector<std::atomic<uint64_t>> accepted_;
  /// dispatched_[p] = elements that LEFT lane p's pending buffer
  /// (pushed to rings, applied inline, or dropped). Single-writer like
  /// accepted_; accepted − dispatched = the lane's buffered backlog, so
  /// HasPendingIngest needs no mirror counters and no lock. Ordering:
  /// relaxed for the same reason as accepted_ — a stale read can only
  /// make HasPendingIngest report a transient "pending", never hide one
  /// from a quiesced reader.
  std::vector<std::atomic<uint64_t>> dispatched_;

  /// Producer-major: lanes_[LaneIndex(p, s)] is lane p's shard-s ring.
  /// unique_ptr<[]> (not vector): IngestLane holds a mutex and never
  /// moves.
  std::unique_ptr<IngestLane[]> lanes_;
  /// worker_lanes_[w] = indexes into lanes_ of every ring worker w
  /// drains (its owned shards × all producers). Immutable after
  /// construction.
  std::vector<std::vector<size_t>> worker_lanes_;
  std::unique_ptr<WorkerSlot[]> worker_slots_;
  std::atomic<bool> stopping_{false};
  std::vector<std::thread> worker_threads_;

  // --- Flush barrier ----------------------------------------------------
  /// Number of threads inside WaitLanesDrained. Workers check it after
  /// bumping a lane epoch (behind a seq_cst fence) and only then pay for
  /// a notify — the per-batch cost of an idle barrier is one relaxed
  /// load.
  std::atomic<uint32_t> flush_waiters_{0};
  Mutex flush_mu_;
  CondVar flush_cv_;

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
  /// Serializes the cold failure/restore state above. NEVER taken on the
  /// healthy hot path and never held while taking a park mutex — the
  /// PR 8 "drain under mu_" rule. The park mutexes live in lane/slot
  /// arrays, which VOS_ACQUIRED_AFTER cannot name, so their side of the
  /// order is enforced as VOS_EXCLUDES(mu_) on every function that
  /// acquires one (WakeAllWaiters, PushWithBackPressure, EnqueueSubBatch,
  /// PopNextBatch, CompleteLaneBatch, WaitLanesDrained); the statically
  /// nameable peers are pinned here so any future nesting has a declared
  /// direction the analysis can check.
  mutable Mutex mu_ VOS_ACQUIRED_AFTER(flush_mu_);
};

}  // namespace vos::core
