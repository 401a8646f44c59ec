#include "core/sharded_vos_sketch.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "common/fault_injector.h"
#include "common/popcount.h"
#include "core/digest_matrix.h"
#include "core/vos_io.h"
#include "hashing/seeds.h"

namespace vos::core {
namespace {

/// Router and per-shard f seeds branch off the master seed under distinct
/// tags so they are unrelated to ψ's and the base f family's sub-seeds.
constexpr uint64_t kRouterTag = 0x40a7e0;
constexpr uint64_t kShardFTag = 0x5a4d00;

/// Spin rounds before waiting on an EventCount, shared by a producer on a
/// full ring and a worker on empty rings. Each round yields: with fewer
/// cores than threads the counterpart NEEDS this core to make progress,
/// and with plenty of cores a yield is still cheaper than a wait/notify
/// round-trip for the common microsecond-scale stall. Purely a
/// performance constant: the EventCount's no-lost-wakeup guarantee and
/// every Flush/poisoning contract are independent of its value.
constexpr uint32_t kSpinRounds = 64;

/// The memory-budget floor: shard arrays (word-rounded), per-user state
/// (cardinality counter, dense-remap tables) and the dirty-tracking state
/// an incremental planner allocates when it starts (one changed-word
/// summary bit per array word, word-rounded, and one epoch per user).
/// Equals MemoryBits() once every shard tracks.
uint64_t StaticFootprintBits(const ShardedVosConfig& config,
                             stream::UserId num_users) {
  const uint64_t shard_m =
      config.num_shards > 1
          ? std::max<uint64_t>(1, config.base.m / config.num_shards)
          : config.base.m;
  const uint64_t shard_words = (shard_m + 63) / 64;
  const uint64_t per_shard = shard_words * 64 +      // array
                             (shard_words + 63) / 64 * 64;  // summary
  uint64_t total = static_cast<uint64_t>(config.num_shards) * per_shard;
  uint64_t per_user = 32 + 32;                       // cardinality, epoch
  if (config.num_shards > 1) per_user += 64;         // dense remap tables
  total += static_cast<uint64_t>(num_users) * per_user;
  return total;
}

std::string ShardTag(uint32_t shard) {
  return "shard " + std::to_string(shard);
}

}  // namespace

VosConfig ShardedVosSketch::ShardConfig(const ShardedVosConfig& config,
                                        uint32_t shard) {
  VOS_CHECK(shard < config.num_shards)
      << "shard" << shard << "of" << config.num_shards;
  VosConfig shard_config = config.base;
  if (config.num_shards > 1) {
    shard_config.m =
        std::max<uint64_t>(1, config.base.m / config.num_shards);
    shard_config.f_seed =
        hash::DeriveSeed2(config.base.seed, kShardFTag, shard);
  }
  return shard_config;
}

Status ShardedVosSketch::ValidateConfig(const ShardedVosConfig& config,
                                        UserId num_users) {
  if (config.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (config.num_shards > 0xffff) {
    return Status::InvalidArgument(
        "num_shards must fit the uint16 shard tags (<= 65535)");
  }
  if (config.base.k < 1) {
    return Status::InvalidArgument("base.k must be >= 1");
  }
  if (config.base.m < 1) {
    return Status::InvalidArgument("base.m must be >= 1");
  }
  if (config.queue_capacity < 1) {
    return Status::InvalidArgument(
        "queue_capacity must be >= 1: a zero-capacity (producer, shard) "
        "ring can never accept a sub-batch, so the first back-pressured "
        "enqueue would deadlock");
  }
  if (config.ingest_producers < 1) {
    return Status::InvalidArgument(
        "ingest_producers must be >= 1: producer ids are validated "
        "against the configured lane count");
  }
  if (config.memory_budget_bits > 0) {
    const uint64_t static_bits = StaticFootprintBits(config, num_users);
    if (static_bits > config.memory_budget_bits) {
      return Status::InvalidArgument(
          "memory_budget_bits (" + std::to_string(config.memory_budget_bits) +
          ") is below the config's own static footprint (" +
          std::to_string(static_bits) +
          " bits: shard arrays + per-user state + dirty tracking); no "
          "stream could ever be ingested under it");
    }
  }
  return Status::OK();
}

ShardedVosSketch::ShardedVosSketch(const ShardedVosConfig& config,
                                   UserId num_users,
                                   VosEstimatorOptions estimator_options)
    : config_(config),
      router_(std::max<uint32_t>(1, config.num_shards),
              hash::DeriveSeed(config.base.seed, kRouterTag)),
      num_users_(num_users),
      estimator_(config.base.k, estimator_options) {
  // Degenerate configs fail here, loudly and with the reason — not by
  // deadlocking the first enqueue or striping rings nobody drains.
  const Status valid = ValidateConfig(config, num_users);
  VOS_CHECK(valid.ok()) << valid.ToString();
  if (config.num_shards > 1) {
    // Dense remap: shard s is sized for exactly the users it owns and
    // addresses them by dense local id (see file comment).
    dense_map_ = stream::DenseShardMap(router_, num_users);
  }
  shard_status_.resize(config.num_shards);
  accepted_ = std::vector<std::atomic<uint64_t>>(config.ingest_producers);
  // Every shard and ring exists before any worker starts: thread
  // creation publishes them to the workers, and producers cannot push
  // before the constructor returns.
  shards_.reserve(config.num_shards);
  for (uint32_t s = 0; s < config.num_shards; ++s) {
    shards_.emplace_back(ShardConfig(config, s),
                         config.num_shards > 1 ? dense_map_.shard_size(s)
                                               : num_users);
  }
  if (config.ingest_threads > 0) {
    const unsigned workers = static_cast<unsigned>(std::min<uint64_t>(
        {config.ingest_threads, config.num_shards, 256}));
    producers_ = config_.ingest_producers;
    owner_.resize(config.num_shards);
    for (uint32_t s = 0; s < config.num_shards; ++s) {
      owner_[s] = static_cast<uint8_t>(s % workers);
    }
    // One SPSC ring per (producer, shard): producer p publishes shard
    // s's sub-batches to lanes_[p·S + s] and only its owner pops it, so
    // every ring has exactly one writer and one reader.
    lanes_ = std::make_unique<IngestLane[]>(
        static_cast<size_t>(producers_) * config.num_shards);
    worker_lanes_.resize(workers);
    for (unsigned p = 0; p < producers_; ++p) {
      for (uint32_t s = 0; s < config.num_shards; ++s) {
        lanes_[LaneIndex(p, s)].ring.Init(config.queue_capacity);
        worker_lanes_[owner_[s]].push_back(LaneIndex(p, s));
      }
    }
    worker_wake_ = std::make_unique<EventCount[]>(workers);
    idle_parks_ = std::vector<std::atomic<uint64_t>>(workers);
    worker_dead_.assign(workers, 0);
    worker_threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      worker_threads_.emplace_back(&ShardedVosSketch::WorkerLoop, this, w);
    }
  } else {
    producers_ = 1;  // synchronous ingestion is single-threaded by contract
    sync_buckets_.resize(config.num_shards);
  }
  static_memory_bits_ = StaticFootprintBits(config, num_users);
}

ShardedVosSketch::~ShardedVosSketch() {
  if (!async()) return;
  (void)Flush();  // drains even when degraded; status irrelevant here
  stopping_.store(true, std::memory_order_relaxed);
  WakeAllWaiters();
  for (std::thread& t : worker_threads_) t.join();
}

void ShardedVosSketch::UpdateBatch(const stream::Element* elements,
                                   size_t count, unsigned producer) {
  if (count == 0) return;
  // Validate against the CONFIGURED lane count in both modes, so a
  // miswired lane id fails in the deterministic sync configuration tests
  // run with, not only once the async pipeline is enabled. (Sync mode
  // clamps the live lane count to 1 but stays a faithful stand-in for a
  // multi-lane caller: lane ids are simply applied inline, in order.)
  VOS_CHECK(producer < config_.ingest_producers)
      << "producer" << producer << "of" << config_.ingest_producers;
  // Single-writer counter: a plain load+store compiles to one increment,
  // where a fetch_add would put an atomic RMW on the per-batch path.
  accepted_[producer].store(
      accepted_[producer].load(std::memory_order_relaxed) + count,
      std::memory_order_relaxed);
  if (!async()) {
    if (!dense_remap()) {
      // One shard, no remap: the caller's span is already the shard's
      // sub-batch, and ApplySubBatch's per-element bound is the range
      // check.
      ApplySubBatch(0, producer, elements, count);
      return;
    }
    // The buckets keep their capacity from call to call, so a steady
    // stream of small batches (per-element Update) allocates nothing.
    for (std::vector<stream::Element>& bucket : sync_buckets_) bucket.clear();
    RoutePartition(elements, count, &sync_buckets_);
    for (uint32_t s = 0; s < router_.num_shards(); ++s) {
      if (sync_buckets_[s].empty()) continue;
      ApplySubBatch(s, producer, sync_buckets_[s].data(),
                    sync_buckets_[s].size());
    }
    return;
  }
  // Each sub-batch moves into a ring, so async buckets are built per call.
  std::vector<std::vector<stream::Element>> per_shard(router_.num_shards());
  RoutePartition(elements, count, &per_shard);
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    if (per_shard[s].empty()) continue;
    EnqueueSubBatch(producer, s, std::move(per_shard[s]));
  }
}

void ShardedVosSketch::ApplySubBatch(uint32_t shard, unsigned producer,
                                     const stream::Element* elements,
                                     size_t count) {
  if (degraded_.load(std::memory_order_relaxed) && ShardPoisoned(shard)) {
    // Poisoned shard: reject instead of corrupting partial state.
    dropped_elements_.fetch_add(count, std::memory_order_relaxed);
    return;
  }
  FaultInjector& injector = FaultInjector::Global();
  const bool armed = injector.armed();
  VosSketch& sketch = shards_[shard];
  const UserId users = sketch.num_users();
  size_t i = 0;
  // Exceptions are caught here (the library itself never throws; a throw
  // models a worker crash — fault injection or a genuinely broken
  // Update) and poison the shard instead of propagating into
  // std::terminate.
  try {
    for (; i < count; ++i) {
      VOS_CHECK(elements[i].user < users)
          << "user" << elements[i].user
          << "out of range (" + ShardTag(shard) + " holds" << users
          << "users)";
      if (armed && injector.Fire(FaultSite::kUpdateThrow, shard, producer)) {
        throw std::runtime_error("injected update fault");
      }
      sketch.Update(elements[i]);
    }
  } catch (const std::exception& ex) {
    {
      MutexLock lock(&mu_);
      PoisonShardLocked(shard, Status::Internal(ShardTag(shard) +
                                                " update failed: " +
                                                ex.what()));
    }
    // Elements [0, i) are applied; the throwing one and the rest are not.
    dropped_elements_.fetch_add(count - i, std::memory_order_relaxed);
    WakeAllWaiters();
  }
}

void ShardedVosSketch::RoutePartition(
    const stream::Element* elements, size_t count,
    std::vector<std::vector<stream::Element>>* per_shard) const {
  // The handoff to shard-local coordinates: after this, each sub-batch
  // carries dense local ids and belongs wholly to one shard, so workers
  // apply it verbatim.
  if (dense_remap()) {
    dense_map_.Partition(elements, count, per_shard);  // range-checked
    return;
  }
  for (size_t i = 0; i < count; ++i) CheckUserInRange(elements[i].user);
  router_.Partition(elements, count, per_shard);
}

void ShardedVosSketch::PoisonShardLocked(uint32_t shard, Status status) {
  if (shard_status_[shard].ok()) shard_status_[shard] = std::move(status);
  degraded_.store(true, std::memory_order_relaxed);
}

void ShardedVosSketch::WakeAllWaiters() {
  for (size_t w = 0; w < worker_threads_.size(); ++w) {
    worker_wake_[w].NotifyAll();
  }
  if (lanes_ != nullptr) {
    const size_t total = static_cast<size_t>(producers_) * router_.num_shards();
    for (size_t l = 0; l < total; ++l) lanes_[l].room.NotifyAll();
  }
  lanes_drained_.NotifyAll();
}

bool ShardedVosSketch::ShardPoisoned(uint32_t shard) const {
  MutexLock lock(&mu_);
  return !shard_status_[shard].ok();
}

void ShardedVosSketch::ReclaimDeadLane(unsigned producer, uint32_t shard) {
  IngestLane& lane = lanes_[LaneIndex(producer, shard)];
  bool reclaimed = false;
  {
    MutexLock lock(&mu_);
    if (shard_status_[shard].ok() || worker_dead_[owner_[shard]] == 0) {
      // The owner is alive: it discards poisoned backlog on pop itself.
      return;
    }
    // The owner is dead and did its final drain under mu_ before we got
    // here (or we beat it, in which case its drain will see an empty
    // ring) — either way exactly one consumer touches the ring at a
    // time.
    reclaimed = DrainDeadLaneLocked(lane);
  }
  if (reclaimed) WakeAllWaiters();
}

bool ShardedVosSketch::DrainDeadLaneLocked(IngestLane& lane) {
  bool drained = false;
  std::vector<stream::Element> discard;
  while (lane.ring.TryPop(&discard)) {
    dropped_elements_.fetch_add(discard.size(), std::memory_order_relaxed);
    queued_bytes_.fetch_sub(discard.size() * sizeof(stream::Element),
                            std::memory_order_relaxed);
    lane.completed.fetch_add(1, std::memory_order_release);
    drained = true;
  }
  return drained;
}

bool ShardedVosSketch::PushWithBackPressure(
    IngestLane& lane, uint32_t shard, std::vector<stream::Element>& batch) {
  // Bounded spin: the common full-ring stall is the worker being
  // mid-batch for microseconds. Yield each round — with fewer cores than
  // threads the worker needs this core to make room (see kSpinRounds).
  for (uint32_t spin = 0; spin < kSpinRounds; ++spin) {
    std::this_thread::yield();
    if (lane.ring.TryPush(batch)) {
      lane.push_spin_saves.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (degraded_.load(std::memory_order_relaxed) && ShardPoisoned(shard)) {
      return false;
    }
  }
  lane.push_parks.fetch_add(1, std::memory_order_relaxed);
  // Wait for room, for this lane's own shard to be poisoned, or for the
  // deadline. A notify for another shard's poisoning only re-runs the
  // checks; the deadline is fixed at the first wait.
  const bool use_deadline = config_.enqueue_timeout_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.enqueue_timeout_ms);
  for (;;) {
    const EventCount::Key key = lane.room.PrepareWait();
    if (lane.ring.TryPush(batch)) {
      lane.room.CancelWait();
      return true;
    }
    if (degraded_.load(std::memory_order_relaxed) && ShardPoisoned(shard)) {
      lane.room.CancelWait();
      return false;
    }
    if (!use_deadline) {
      lane.room.Wait(key);
    } else if (!lane.room.WaitUntil(key, deadline)) {
      if (lane.ring.TryPush(batch)) return true;  // room at the wire
      // The lane is starved: its worker made no room within the deadline.
      // Poison the shard (sticky) so the failure surfaces at the next
      // Flush instead of silently losing only this batch.
      {
        MutexLock cold(&mu_);
        PoisonShardLocked(
            shard, Status::DeadlineExceeded(
                       ShardTag(shard) + " enqueue timed out after " +
                       std::to_string(config_.enqueue_timeout_ms) +
                       " ms (lane starved)"));
      }
      WakeAllWaiters();
      return false;
    }
  }
}

void ShardedVosSketch::EnqueueSubBatch(unsigned producer, uint32_t shard,
                                       std::vector<stream::Element> batch) {
  IngestLane& lane = lanes_[LaneIndex(producer, shard)];
  const size_t count = batch.size();
  const size_t batch_bytes = count * sizeof(stream::Element);
  // Degraded cold path: reject against a poisoned shard instead of
  // queueing work nobody will ever apply. One relaxed load when healthy.
  if (degraded_.load(std::memory_order_relaxed) && ShardPoisoned(shard)) {
    dropped_elements_.fetch_add(count, std::memory_order_relaxed);
    return;
  }
  // Charge the backlog before pushing so concurrent lanes cannot
  // collectively overshoot the ceiling; the charge is released after the
  // batch is applied, discarded, or rejected right here.
  const size_t prev =
      queued_bytes_.fetch_add(batch_bytes, std::memory_order_relaxed);
  if (config_.memory_budget_bits > 0 &&
      (static_memory_bits_ / 8 + prev + batch_bytes) * 8 >
          config_.memory_budget_bits) {
    queued_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
    {
      MutexLock lock(&mu_);
      if (budget_status_.ok()) {
        budget_status_ = Status::ResourceExhausted(
            "ingest backlog would exceed memory_budget_bits (" +
            std::to_string(config_.memory_budget_bits) + "); batch dropped");
      }
      degraded_.store(true, std::memory_order_relaxed);
    }
    dropped_elements_.fetch_add(count, std::memory_order_relaxed);
    WakeAllWaiters();
    return;
  }
  if (!lane.ring.TryPush(batch)) {
    if (!PushWithBackPressure(lane, shard, batch)) {
      // Not pushed: the shard was (or just got) poisoned; drop.
      queued_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
      dropped_elements_.fetch_add(count, std::memory_order_relaxed);
      return;
    }
  }
  // Published. NotifyAll's leading seq_cst fence also pairs with the kill
  // path's fence in WorkerLoop: either the dying owner's final drain
  // observes this push, or the degraded_ load below observes its poison.
  worker_wake_[owner_[shard]].NotifyAll();
  if (degraded_.load(std::memory_order_relaxed)) {
    // The owner may have died between our health check and the push and
    // missed this batch in its final drain — reclaim our own lane. (The
    // fence pairing makes "drain missed it" imply "we see degraded_".)
    ReclaimDeadLane(producer, shard);
  }
}

bool ShardedVosSketch::PopNextBatch(unsigned worker, size_t* cursor,
                                    size_t* lane_index,
                                    std::vector<stream::Element>* batch) {
  const std::vector<size_t>& my_lanes = worker_lanes_[worker];
  EventCount& wake = worker_wake_[worker];
  uint32_t idle_rounds = 0;
  for (;;) {
    // Round-robin over the worker's lanes so no producer's ring is
    // starved while another lane stays hot.
    for (size_t i = 0; i < my_lanes.size(); ++i) {
      const size_t candidate = my_lanes[(*cursor + i) % my_lanes.size()];
      IngestLane& lane = lanes_[candidate];
      if (lane.ring.TryPop(batch)) {
        *cursor = (*cursor + i + 1) % my_lanes.size();
        *lane_index = candidate;
        // Room just opened: wake the lane's producer NOW, before the
        // batch is applied — with capacity-1 rings the producer would
        // otherwise idle for a whole apply.
        lane.room.NotifyAll();
        return true;
      }
    }
    if (stopping_.load(std::memory_order_relaxed)) return false;
    if (++idle_rounds <= kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    idle_rounds = 0;
    idle_parks_[worker].fetch_add(1, std::memory_order_relaxed);
    // Park unless a push (or the stop) landed after the last scan; a
    // push after this recheck notifies `wake`.
    const EventCount::Key key = wake.PrepareWait();
    const bool work =
        stopping_.load(std::memory_order_relaxed) ||
        std::any_of(my_lanes.begin(), my_lanes.end(),
                    [&](size_t l) { return !lanes_[l].ring.Empty(); });
    if (work) {
      wake.CancelWait();
    } else {
      wake.Wait(key);
    }
  }
}

void ShardedVosSketch::WorkerLoop(unsigned worker) {
  FaultInjector& injector = FaultInjector::Global();
  size_t cursor = 0;
  size_t lane_index = 0;
  std::vector<stream::Element> batch;
  while (PopNextBatch(worker, &cursor, &lane_index, &batch)) {
    IngestLane& lane = lanes_[lane_index];
    const uint32_t shard =
        static_cast<uint32_t>(lane_index % router_.num_shards());
    const unsigned producer =
        static_cast<unsigned>(lane_index / router_.num_shards());
    const size_t batch_bytes = batch.size() * sizeof(stream::Element);
    // Thread-level probes. A poisoned shard's backlog skips them, so
    // ApplySubBatch discards it on pop without the stall and degraded
    // flushes terminate promptly (on-pop discard: only the consumer may
    // remove values from an SPSC ring).
    if (injector.armed() &&
        !(degraded_.load(std::memory_order_relaxed) && ShardPoisoned(shard))) {
      const uint32_t stall = injector.StallMs(shard, producer);
      if (stall > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall));
      }
      if (injector.Fire(FaultSite::kWorkerKill, shard, producer)) {
        // The worker "crashes" mid-batch: this batch and every queued
        // batch of its shards are lost, its shards are poisoned, and
        // the thread exits. Counters are settled so Flush barriers
        // terminate (degraded) instead of hanging on a dead thread.
        dropped_elements_.fetch_add(batch.size(), std::memory_order_relaxed);
        queued_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
        lane.completed.fetch_add(1, std::memory_order_release);
        {
          MutexLock lock(&mu_);
          worker_dead_[worker] = 1;
          for (uint32_t s = 0; s < router_.num_shards(); ++s) {
            if (owner_[s] != worker) continue;
            PoisonShardLocked(
                s, Status::Internal(
                       ShardTag(s) +
                       " worker killed mid-batch (fault injection); queued "
                       "batches lost"));
          }
          // Publish the poison BEFORE the final drains (this fence pairs
          // with the one that starts EnqueueSubBatch's NotifyAll): a
          // producer whose push these drains miss is guaranteed to observe
          // degraded_ and reclaim its own lane. Draining under mu_ keeps
          // the single-consumer invariant — reclaims serialize on mu_ and
          // this thread never pops again.
          std::atomic_thread_fence(std::memory_order_seq_cst);
          for (size_t l : worker_lanes_[worker]) DrainDeadLaneLocked(lanes_[l]);
        }
        WakeAllWaiters();
        return;
      }
    }
    // Every element of the sub-batch belongs to this lane's shard and is
    // already in shard-local coordinates — apply verbatim, no scanning.
    ApplySubBatch(shard, producer, batch.data(), batch.size());
    batch.clear();
    batch.shrink_to_fit();  // release before signalling completion
    queued_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
    lane.completed.fetch_add(1, std::memory_order_release);
    lanes_drained_.NotifyAll();
  }
}

Status ShardedVosSketch::WaitLanesDrained(size_t first, size_t last,
                                          bool use_timeout,
                                          const char* what) {
  const auto drained = [&] {
    for (size_t l = first; l < last; ++l) {
      if (!LaneDrained(lanes_[l])) return false;
    }
    return true;
  };
  const bool use_deadline = use_timeout && config_.flush_timeout_ms > 0;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.flush_timeout_ms);
  while (!drained()) {
    const EventCount::Key key = lanes_drained_.PrepareWait();
    if (drained()) {
      lanes_drained_.CancelWait();
      break;
    }
    if (!use_deadline) {
      lanes_drained_.Wait(key);
    } else if (!lanes_drained_.WaitUntil(key, deadline) && !drained()) {
      uint64_t pending = 0;
      for (size_t l = first; l < last; ++l) {
        pending += lanes_[l].ring.pushed() -
                   lanes_[l].completed.load(std::memory_order_acquire);
      }
      return Status::DeadlineExceeded(
          std::string(what) + " timed out after " +
          std::to_string(config_.flush_timeout_ms) + " ms with " +
          std::to_string(pending) + " sub-batches unapplied");
    }
  }
  return Status::OK();
}

Status ShardedVosSketch::Flush() {
  if (!async()) {
    MutexLock lock(&mu_);
    return IngestStatusLocked();
  }
  const Status drained = WaitLanesDrained(
      0, static_cast<size_t>(producers_) * router_.num_shards(),
      /*use_timeout=*/true, "Flush");
  if (!drained.ok()) return drained;
  return IngestStatus();
}

Status ShardedVosSketch::FlushProducer(unsigned producer) {
  VOS_CHECK(producer < config_.ingest_producers)
      << "producer" << producer << "of" << config_.ingest_producers;
  if (!async()) {
    MutexLock lock(&mu_);
    return IngestStatusLocked();
  }
  const std::string what = "FlushProducer(" + std::to_string(producer) + ")";
  const size_t first = LaneIndex(producer, 0);
  const Status drained = WaitLanesDrained(first, first + router_.num_shards(),
                                          /*use_timeout=*/true, what.c_str());
  if (!drained.ok()) return drained;
  return IngestStatus();
}

Status ShardedVosSketch::IngestStatusLocked() const {
  for (const Status& status : shard_status_) {
    if (!status.ok()) return status;
  }
  return budget_status_;
}

Status ShardedVosSketch::IngestStatus() const {
  MutexLock lock(&mu_);
  return IngestStatusLocked();
}

uint64_t ShardedVosSketch::dropped_elements() const {
  return dropped_elements_.load(std::memory_order_relaxed);
}

ShardedVosSketch::SpinStats ShardedVosSketch::IngestSpinStats() const {
  SpinStats stats;
  if (!async()) return stats;  // no lanes, no workers
  const size_t lane_count =
      static_cast<size_t>(producers_) * router_.num_shards();
  for (size_t l = 0; l < lane_count; ++l) {
    stats.push_parks += lanes_[l].push_parks.load(std::memory_order_relaxed);
    stats.push_spin_saves +=
        lanes_[l].push_spin_saves.load(std::memory_order_relaxed);
  }
  for (const std::atomic<uint64_t>& parks : idle_parks_) {
    stats.idle_parks += parks.load(std::memory_order_relaxed);
  }
  return stats;
}

Status ShardedVosSketch::Checkpoint(const std::string& path) {
  const Status flushed = Flush();
  if (!flushed.ok()) {
    // A checkpoint must only ever cover state every accepted element
    // reached; a degraded pipeline has dropped data, so its watermarks
    // would lie.
    return Status::FailedPrecondition(
        "cannot checkpoint a degraded pipeline: " + flushed.ToString());
  }
  return ShardedCheckpointIo::Save(*this, path);
}

Status ShardedVosSketch::Restore(const std::string& path) {
  if (async()) {
    // Quiesce: whatever is queued belongs to the state being thrown away;
    // the restored watermarks say exactly where each lane resumes. Dead
    // workers' rings were drained at kill time (or reclaimed by
    // their producers); live workers drain or discard the rest, so the
    // barrier terminates even degraded.
    const Status drained = WaitLanesDrained(
        0, static_cast<size_t>(producers_) * router_.num_shards(),
        /*use_timeout=*/false, "Restore");
    (void)drained;  // no timeout in use: OK by construction
  }
  return ShardedCheckpointIo::Restore(this, path);
}

bool ShardedVosSketch::HasPendingIngest() const {
  if (!async()) return false;
  const size_t total = static_cast<size_t>(producers_) * router_.num_shards();
  for (size_t l = 0; l < total; ++l) {
    if (!LaneDrained(lanes_[l])) return true;
  }
  return false;
}

PairEstimate ShardedVosSketch::EstimatePair(UserId u, UserId v) const {
  VOS_DCHECK(!HasPendingIngest())
      << "EstimatePair on a non-quiesced pipeline; call Flush() first";
  CheckUserInRange(u);
  CheckUserInRange(v);
  const VosSketch& sketch_u = shards_[router_.ShardOf(u)];
  const VosSketch& sketch_v = shards_[router_.ShardOf(v)];
  const UserId lu = LocalIdOf(u);
  const UserId lv = LocalIdOf(v);
  const uint32_t k = config_.base.k;
  const size_t words = DigestMatrix::WordsPerRow(k);
  std::vector<uint64_t> row_u(words), row_v(words);
  DigestMatrix::ExtractRow(sketch_u, lu, row_u.data());
  DigestMatrix::ExtractRow(sketch_v, lv, row_v.data());
  const size_t d = XorPopcount(row_u.data(), row_v.data(), words);
  const double alpha = static_cast<double>(d) / k;
  // Each digest carries its own shard's contamination, so the §IV
  // (1−2β)² factor generalizes to (1−2β_u)(1−2β_v): pass the mean of the
  // two log-beta terms where the estimator doubles it. Same-shard pairs
  // reduce to the standalone single-β estimate bit-for-bit.
  const double log_beta_term =
      0.5 * (estimator_.LogBetaTerm(sketch_u.beta()) +
             estimator_.LogBetaTerm(sketch_v.beta()));
  return estimator_.EstimateFromLogTerms(sketch_u.Cardinality(lu),
                                         sketch_v.Cardinality(lv),
                                         estimator_.LogAlphaTerm(alpha),
                                         log_beta_term);
}

size_t ShardedVosSketch::MemoryBits() const {
  // Arrays plus every per-user structure this facade has allocated:
  // honest accounting for equal-memory comparisons (see header comment).
  // The dense remap keeps the per-user portion independent of
  // num_shards.
  size_t total = dense_map_.MemoryBits();
  for (const VosSketch& shard : shards_) {
    total += shard.MemoryBits() + shard.BookkeepingBits();
  }
  return total;
}

}  // namespace vos::core
