// Bounded single-producer / single-consumer ring buffer.
//
// The textbook lock-free case: exactly one writer thread (TryPush) and
// exactly one reader thread (TryPop). head_ and tail_ are MONOTONIC
// operation counters — never wrapped — so "full" is tail − head ==
// capacity and the slot index is counter % capacity; a uint64 counter
// cannot overflow in any realistic run. Each counter sits on its own
// cache line (the producer writes tail_, the consumer writes head_;
// padding keeps them from false-sharing), and each side caches its last
// view of the other's counter so the uncontended push/pop costs one
// relaxed load and one release store — no locks, no RMW, no fences.
//
// Memory ordering: the producer's release store of tail_ publishes the
// slot write to the consumer's acquire load (pop sees fully constructed
// values); symmetrically the consumer's release store of head_ publishes
// the slot's vacancy to the producer (push never overwrites a value that
// is still being read). Nothing else is ordered — callers that need a
// cross-thread handshake beyond the values themselves (parking
// protocols, poison flags) must pair their own fences with pushed() /
// popped().
//
// pushed() / popped() expose the monotonic counters: exact for the
// owning side, a lower bound (acquire) for everyone else — exactly what
// occupancy polling and flush barriers need. size() derives from them
// and is approximate unless the ring is externally quiesced.
//
// Init() is separate from construction because the rings of
// ShardedVosSketch live in an array of IngestLane (which holds a mutex
// and never moves): the array is default-constructed, then each ring is
// sized with Init() before the workers start.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace vos {

template <typename T>
class SpscRing {
 public:
  /// An unallocated ring; call Init() exactly once before first use.
  SpscRing() = default;
  explicit SpscRing(size_t capacity) { Init(capacity); }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Allocates the slot array (capacity ≥ 1). Must complete before
  /// (happen-before) any TryPush/TryPop; calling twice aborts.
  void Init(size_t capacity) {
    VOS_CHECK(slots_ == nullptr) << "SpscRing::Init called twice";
    VOS_CHECK(capacity >= 1) << "SpscRing capacity must be >= 1";
    capacity_ = capacity;
    slots_ = std::make_unique<T[]>(capacity);
  }

  size_t capacity() const { return capacity_; }
  bool initialized() const { return slots_ != nullptr; }

  /// Producer only. Moves from `value` on success; a full ring returns
  /// false and leaves `value` untouched — nothing is ever written past
  /// the live slots.
  bool TryPush(T& value) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) return false;
    }
    slots_[tail % capacity_] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer only. Moves the oldest value into *out and resets the slot
  /// (heap payloads are released as soon as they are consumed, not when
  /// the slot is eventually overwritten).
  bool TryPop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    *out = std::move(slots_[head % capacity_]);
    slots_[head % capacity_] = T();
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Values ever pushed / popped. Exact for the owning side; a lower
  /// bound from any other thread.
  uint64_t pushed() const { return tail_.load(std::memory_order_acquire); }
  uint64_t popped() const { return head_.load(std::memory_order_acquire); }

  /// Approximate occupancy from any thread (exact once quiesced). The
  /// tail is read second so a concurrent pop cannot make this underflow.
  size_t size() const {
    const uint64_t head = head_.load(std::memory_order_acquire);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<size_t>(tail - head) : 0;
  }
  bool Empty() const { return size() == 0; }
  bool Full() const { return size() >= capacity_; }

 private:
  static constexpr size_t kCacheLine = 64;

  size_t capacity_ = 0;
  std::unique_ptr<T[]> slots_;

  /// Consumer-owned line: next slot to pop, plus the consumer's cached
  /// view of tail_.
  alignas(kCacheLine) std::atomic<uint64_t> head_{0};
  uint64_t cached_tail_ = 0;

  /// Producer-owned line: next slot to fill, plus the producer's cached
  /// view of head_.
  alignas(kCacheLine) std::atomic<uint64_t> tail_{0};
  uint64_t cached_head_ = 0;
  // (alignas(64) rounds sizeof up, so tail_'s line is not shared either.)
};

}  // namespace vos
