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

/// Spin rounds before parking, shared by a producer on a full ring and
/// a worker on empty rings. Each round yields: with fewer cores than
/// threads the counterpart NEEDS this core to make progress, and with
/// plenty of cores a yield is still cheaper than a park/unpark round-trip
/// for the common microsecond-scale stall. Purely a performance constant:
/// every park/wake handshake and Flush/poisoning contract is independent
/// of its value.
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
  if (config.batch_size < 1) {
    return Status::InvalidArgument(
        "batch_size must be >= 1: a zero batch size can never trigger the "
        "Update() auto-enqueue");
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
  dispatched_ = std::vector<std::atomic<uint64_t>>(config.ingest_producers);
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
    pending_.resize(producers_);
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
    worker_slots_ = std::make_unique<WorkerSlot[]>(workers);
    worker_dead_.assign(workers, 0);
    worker_threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      worker_threads_.emplace_back(&ShardedVosSketch::WorkerLoop, this, w);
    }
  } else {
    producers_ = 1;  // synchronous ingestion is single-threaded by contract
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

void ShardedVosSketch::ApplySyncBatch(const stream::Element* elements,
                                      size_t count) {
  // One healthy shard, no armed fault (checked once per batch): apply
  // straight to it. ApplySyncElement, with routing, poison and drop
  // handling, takes every other batch and the rest of this one after a
  // throw.
  size_t i = 0;
  if (!dense_remap() && !degraded_.load(std::memory_order_relaxed) &&
      !FaultInjector::Global().armed()) {
    VosSketch& shard = shards_[0];
    try {
      for (; i < count; ++i) {
        CheckUserInRange(elements[i].user);
        shard.Update(elements[i]);
      }
    } catch (const std::exception& ex) {
      PoisonAfterThrow(0, ex);
      ++i;
    }
  }
  for (; i < count; ++i) ApplySyncElement(elements[i]);
}

void ShardedVosSketch::PoisonAfterThrow(uint32_t shard,
                                        const std::exception& ex) {
  {
    MutexLock lock(&mu_);
    PoisonShardLocked(shard, Status::Internal(ShardTag(shard) +
                                              " update failed: " + ex.what()));
  }
  dropped_elements_.fetch_add(1, std::memory_order_relaxed);
}

void ShardedVosSketch::ApplySyncElement(const stream::Element& e) {
  CheckUserInRange(e.user);
  const uint32_t s = router_.ShardOf(e.user);
  if (degraded_.load(std::memory_order_relaxed)) {
    MutexLock lock(&mu_);
    if (!shard_status_[s].ok()) {
      // Poisoned shard: reject instead of corrupting partial state.
      dropped_elements_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  stream::Element local = e;
  if (dense_remap()) local.user = dense_map_.LocalOf(e.user);
  FaultInjector& injector = FaultInjector::Global();
  try {
    if (injector.armed() &&
        injector.Fire(FaultSite::kUpdateThrow, s, /*producer=*/0)) {
      throw std::runtime_error("injected update fault");
    }
    shards_[s].Update(local);
  } catch (const std::exception& ex) {
    PoisonAfterThrow(s, ex);
  }
}

void ShardedVosSketch::Update(const stream::Element& e, unsigned producer) {
  // Validate against the CONFIGURED lane count in both modes, so a
  // miswired lane id fails in the deterministic sync configuration tests
  // run with, not only once the async pipeline is enabled. (Sync mode
  // clamps the live lane count to 1 but stays a faithful stand-in for a
  // multi-lane caller: lane ids are simply applied inline, in order.)
  VOS_CHECK(producer < config_.ingest_producers)
      << "producer" << producer << "of" << config_.ingest_producers;
  // Single-writer counter: a plain load+store compiles to one increment,
  // where a fetch_add would put an atomic RMW on the per-element path.
  accepted_[producer].store(
      accepted_[producer].load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  if (!async()) {
    ApplySyncElement(e);
    return;
  }
  CheckUserInRange(e.user);  // here, not when the buffer is routed
  std::vector<stream::Element>& pending = pending_[producer];
  pending.push_back(e);
  if (pending.size() >= config_.batch_size) FlushPendingBuffer(producer);
}

void ShardedVosSketch::UpdateBatch(const stream::Element* elements,
                                   size_t count, unsigned producer) {
  if (count == 0) return;
  VOS_CHECK(producer < config_.ingest_producers)
      << "producer" << producer << "of" << config_.ingest_producers;
  accepted_[producer].store(
      accepted_[producer].load(std::memory_order_relaxed) + count,
      std::memory_order_relaxed);
  if (!async()) {
    ApplySyncBatch(elements, count);
    return;
  }
  // Keep the lane's per-shard order: anything buffered by Update() on
  // this lane precedes this batch in the lane's stream order.
  FlushPendingBuffer(producer);
  std::vector<std::vector<stream::Element>> per_shard(router_.num_shards());
  RoutePartition(elements, count, &per_shard);
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    if (per_shard[s].empty()) continue;
    EnqueueSubBatch(producer, s, std::move(per_shard[s]));
  }
  dispatched_[producer].store(
      dispatched_[producer].load(std::memory_order_relaxed) + count,
      std::memory_order_relaxed);
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

void ShardedVosSketch::FlushPendingBuffer(unsigned producer) {
  std::vector<stream::Element>& pending = pending_[producer];
  if (pending.empty()) return;
  const size_t count = pending.size();
  std::vector<std::vector<stream::Element>> per_shard(router_.num_shards());
  RoutePartition(pending.data(), count, &per_shard);
  pending.clear();
  for (uint32_t s = 0; s < router_.num_shards(); ++s) {
    if (per_shard[s].empty()) continue;
    EnqueueSubBatch(producer, s, std::move(per_shard[s]));
  }
  // The elements have left the lane's buffer (ringed or dropped); until
  // here HasPendingIngest kept reporting them as buffered — the safe
  // transient for a poller, since the ring counters take over below.
  dispatched_[producer].store(
      dispatched_[producer].load(std::memory_order_relaxed) + count,
      std::memory_order_relaxed);
}

void ShardedVosSketch::PoisonShardLocked(uint32_t shard, Status status) {
  if (shard_status_[shard].ok()) shard_status_[shard] = std::move(status);
  degraded_.store(true, std::memory_order_relaxed);
}

void ShardedVosSketch::WakeAllWaiters() {
  if (worker_slots_ != nullptr) {
    for (size_t w = 0; w < worker_threads_.size(); ++w) {
      {
        MutexLock lock(&worker_slots_[w].mu);
      }
      worker_slots_[w].cv.NotifyAll();
    }
  }
  if (lanes_ != nullptr) {
    const size_t total = static_cast<size_t>(producers_) * router_.num_shards();
    for (size_t l = 0; l < total; ++l) {
      {
        MutexLock lock(&lanes_[l].park_mu);
      }
      lanes_[l].park_cv.NotifyAll();
    }
  }
  {
    MutexLock lock(&flush_mu_);
  }
  flush_cv_.NotifyAll();
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
    std::vector<stream::Element> discard;
    while (lane.ring.TryPop(&discard)) {
      dropped_elements_.fetch_add(discard.size(), std::memory_order_relaxed);
      queued_bytes_.fetch_sub(discard.size() * sizeof(stream::Element),
                              std::memory_order_relaxed);
      lane.completed.fetch_add(1, std::memory_order_release);
      reclaimed = true;
    }
  }
  if (reclaimed) WakeAllWaiters();
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
  // Park on the lane's condvar. Flag → fence → recheck pairs with the
  // consumer's pop → fence → flag load: either our recheck sees the
  // room, or the consumer sees the flag and notifies under park_mu.
  const bool use_deadline = config_.enqueue_timeout_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(config_.enqueue_timeout_ms);
  lane.producer_parked.store(1, std::memory_order_relaxed);
  struct ClearFlag {
    std::atomic<uint32_t>& flag;
    ~ClearFlag() { flag.store(0, std::memory_order_relaxed); }
  } clear_on_exit{lane.producer_parked};
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // Explicit Lock/Unlock (not MutexLock): the loop drops park_mu around
  // ShardPoisoned/mu_ so park mutexes are never held while taking mu_,
  // and the analysis checks every exit path releases exactly once.
  lane.park_mu.Lock();
  for (;;) {
    if (lane.ring.TryPush(batch)) {
      lane.park_mu.Unlock();
      return true;
    }
    if (degraded_.load(std::memory_order_relaxed)) {
      lane.park_mu.Unlock();
      if (ShardPoisoned(shard)) return false;
      lane.park_mu.Lock();
      // Degraded for someone else's sake; re-test the ring, keep waiting.
      continue;
    }
    if (use_deadline) {
      if (lane.park_cv.WaitUntil(lane.park_mu, deadline) ==
          std::cv_status::timeout) {
        if (lane.ring.TryPush(batch)) {  // room at the wire
          lane.park_mu.Unlock();
          return true;
        }
        // The lane is starved: its worker made no room within the
        // deadline. Poison the shard (sticky) so the failure surfaces
        // at the next Flush instead of silently losing only this batch.
        lane.park_mu.Unlock();  // park mutexes never held while taking mu_
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
    } else {
      lane.park_cv.Wait(lane.park_mu);
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
  // Published. The seq_cst fence pairs with both consumer-side fences:
  // either the owner (parked, or draining itself to death) observes this
  // push, or we observe its parked/degraded flag here and act.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  WorkerSlot& slot = worker_slots_[owner_[shard]];
  if (slot.parked.load(std::memory_order_relaxed) != 0) {
    {
      MutexLock lock(&slot.mu);
    }
    slot.cv.NotifyOne();
  }
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
  WorkerSlot& slot = worker_slots_[worker];
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
        // Room just opened: unpark the lane's producer NOW, before the
        // batch is applied — with capacity-1 rings the producer would
        // otherwise idle for a whole apply.
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (lane.producer_parked.load(std::memory_order_relaxed) != 0) {
          {
            MutexLock lock(&lane.park_mu);
          }
          lane.park_cv.NotifyAll();
        }
        return true;
      }
    }
    if (stopping_.load(std::memory_order_relaxed)) return false;
    if (++idle_rounds <= kSpinRounds) {
      std::this_thread::yield();
      continue;
    }
    idle_rounds = 0;
    slot.idle_parks.fetch_add(1, std::memory_order_relaxed);
    // Park: publish the flag, then re-check under slot.mu — a producer
    // that pushed before seeing the flag is caught by the predicate's
    // rescan; one that sees it notifies under slot.mu. No lost wakeups.
    slot.parked.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    {
      MutexLock lock(&slot.mu);
      slot.cv.Wait(slot.mu, [&] {
        if (stopping_.load(std::memory_order_relaxed)) return true;
        for (size_t l : my_lanes) {
          if (!lanes_[l].ring.Empty()) return true;
        }
        return false;
      });
    }
    slot.parked.store(0, std::memory_order_relaxed);
  }
}

void ShardedVosSketch::CompleteLaneBatch(IngestLane& lane) {
  lane.completed.fetch_add(1, std::memory_order_release);
  // Fence-paired with WaitLanesDrained's waiter registration: either the
  // flusher's predicate sees this epoch, or we see its waiter count and
  // pay for the notify. Idle barriers cost one relaxed load per batch.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (flush_waiters_.load(std::memory_order_relaxed) != 0) {
    {
      MutexLock lock(&flush_mu_);
    }
    flush_cv_.NotifyAll();
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
    // Poisoned shard: its backlog is discarded on pop, without the stall
    // probe, so degraded flushes terminate promptly (the pre-ring design
    // discarded the backlog at poison time; on-pop discard is the SPSC
    // equivalent — only the consumer may remove values).
    if (degraded_.load(std::memory_order_relaxed) && ShardPoisoned(shard)) {
      dropped_elements_.fetch_add(batch.size(), std::memory_order_relaxed);
      queued_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
      batch.clear();
      CompleteLaneBatch(lane);
      continue;
    }
    if (injector.armed()) {
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
          // Publish the poison BEFORE the final drains (fence pairs with
          // EnqueueSubBatch): a producer whose push these drains miss is
          // guaranteed to observe degraded_ and reclaim its own lane.
          // Draining under mu_ keeps the single-consumer invariant —
          // reclaims serialize on mu_ and this thread never pops again.
          std::atomic_thread_fence(std::memory_order_seq_cst);
          for (size_t l : worker_lanes_[worker]) {
            IngestLane& dead = lanes_[l];
            std::vector<stream::Element> discard;
            while (dead.ring.TryPop(&discard)) {
              dropped_elements_.fetch_add(discard.size(),
                                          std::memory_order_relaxed);
              queued_bytes_.fetch_sub(
                  discard.size() * sizeof(stream::Element),
                  std::memory_order_relaxed);
              dead.completed.fetch_add(1, std::memory_order_release);
            }
          }
        }
        WakeAllWaiters();
        return;
      }
    }
    // Every element of the sub-batch belongs to this lane's shard and is
    // already in shard-local coordinates — apply verbatim, no scanning.
    // Exceptions are caught at this worker boundary (the library itself
    // never throws; a throw models a worker crash — fault injection or a
    // genuinely broken Update) and poison the shard instead of
    // propagating into std::terminate.
    try {
      VosSketch& sketch = shards_[shard];
      for (const stream::Element& e : batch) {
        if (injector.armed() &&
            injector.Fire(FaultSite::kUpdateThrow, shard, producer)) {
          throw std::runtime_error("injected update fault");
        }
        sketch.Update(e);
      }
    } catch (const std::exception& ex) {
      {
        MutexLock lock(&mu_);
        PoisonShardLocked(shard, Status::Internal(ShardTag(shard) +
                                                  " update failed: " +
                                                  ex.what()));
      }
      // The batch is partially applied; count it all as affected — the
      // shard's state is suspect either way and a checkpoint will refuse
      // to cover it.
      dropped_elements_.fetch_add(batch.size(), std::memory_order_relaxed);
      WakeAllWaiters();
    }
    batch.clear();
    batch.shrink_to_fit();  // release before signalling completion
    queued_bytes_.fetch_sub(batch_bytes, std::memory_order_relaxed);
    CompleteLaneBatch(lane);
  }
}

Status ShardedVosSketch::WaitLanesDrained(size_t first, size_t last,
                                          bool use_timeout,
                                          const char* what) {
  const auto drained = [&] {
    for (size_t l = first; l < last; ++l) {
      if (lanes_[l].completed.load(std::memory_order_acquire) !=
          lanes_[l].ring.pushed()) {
        return false;
      }
    }
    return true;
  };
  if (drained()) return Status::OK();
  // Register as a waiter BEFORE re-checking (fence pairs with
  // CompleteLaneBatch): either we see the final epoch, or the completing
  // worker sees our registration and notifies under flush_mu_.
  flush_waiters_.fetch_add(1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  Status result = Status::OK();
  {
    MutexLock lock(&flush_mu_);
    if (use_timeout && config_.flush_timeout_ms > 0) {
      if (!flush_cv_.WaitFor(
              flush_mu_, std::chrono::milliseconds(config_.flush_timeout_ms),
              drained)) {
        uint64_t pending = 0;
        for (size_t l = first; l < last; ++l) {
          pending += lanes_[l].ring.pushed() -
                     lanes_[l].completed.load(std::memory_order_acquire);
        }
        result = Status::DeadlineExceeded(
            std::string(what) + " timed out after " +
            std::to_string(config_.flush_timeout_ms) + " ms with " +
            std::to_string(pending) + " sub-batches unapplied");
      }
    } else {
      flush_cv_.Wait(flush_mu_, drained);
    }
  }
  flush_waiters_.fetch_sub(1, std::memory_order_relaxed);
  return result;
}

Status ShardedVosSketch::Flush() {
  if (!async()) {
    MutexLock lock(&mu_);
    return IngestStatusLocked();
  }
  for (unsigned p = 0; p < producers_; ++p) FlushPendingBuffer(p);
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
  FlushPendingBuffer(producer);
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
  for (size_t w = 0; w < worker_threads_.size(); ++w) {
    stats.idle_parks +=
        worker_slots_[w].idle_parks.load(std::memory_order_relaxed);
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
    // Quiesce and DISCARD: whatever is buffered or queued belongs to the
    // state being thrown away; the restored watermarks say exactly where
    // each lane resumes.
    for (unsigned p = 0; p < producers_; ++p) {
      if (!pending_[p].empty()) {
        dispatched_[p].store(
            dispatched_[p].load(std::memory_order_relaxed) +
                pending_[p].size(),
            std::memory_order_relaxed);
        pending_[p].clear();
      }
    }
    // Dead workers' rings were drained at kill time (or reclaimed by
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
  for (unsigned p = 0; p < producers_; ++p) {
    if (accepted_[p].load(std::memory_order_relaxed) !=
        dispatched_[p].load(std::memory_order_relaxed)) {
      return true;
    }
  }
  const size_t total = static_cast<size_t>(producers_) * router_.num_shards();
  for (size_t l = 0; l < total; ++l) {
    if (lanes_[l].completed.load(std::memory_order_acquire) !=
        lanes_[l].ring.pushed()) {
      return true;
    }
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
