// EventCount: the one park/wake primitive of the ingest fabric.
//
// A waiter that found its condition false parks without a lost wakeup,
// and a notifier that finds nobody parked pays one seq_cst fence and one
// relaxed load:
//
//   waiter                               notifier
//   key = ec.PrepareWait();              <make the condition true>
//   if (condition) ec.CancelWait();      ec.NotifyAll();
//   else ec.Wait(key);  // or WaitUntil
//
// PrepareWait registers the waiter and then fences; NotifyAll fences and
// then reads the waiter count. Between the two fences either the waiter's
// recheck sees the notifier's change, or the notifier sees the waiter and
// bumps the epoch, which makes Wait(key) return. The recheck runs outside
// the primitive's mutex, so it may take the caller's own locks; that
// mutex is a leaf, held only inside Wait/WaitUntil/NotifyAll and never
// while caller code runs. Waits are never spurious from the primitive's
// side, but a NotifyAll for some other reason wakes every waiter, so the
// caller loops on its condition.
//
// NotifyAll starts with a std::atomic_thread_fence(seq_cst) whether or
// not anyone waits, so a caller may pair "store; NotifyAll(); load" with
// another thread's "store; fence; load" (ShardedVosSketch's push against
// a dying worker's final drain does).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "common/thread_annotations.h"

namespace vos {

class EventCount {
 public:
  /// The epoch a waiter saw at PrepareWait.
  using Key = uint32_t;

  EventCount() = default;
  EventCount(const EventCount&) = delete;
  EventCount& operator=(const EventCount&) = delete;

  /// Registers the caller as a waiter and returns the current epoch. The
  /// caller must then recheck its condition and call exactly one of
  /// CancelWait, Wait or WaitUntil.
  Key PrepareWait() {
    const uint64_t prev = state_.fetch_add(kWaiter, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return static_cast<Key>(prev >> kEpochShift);
  }

  /// The recheck found the condition true: unregisters without waiting.
  void CancelWait() { state_.fetch_sub(kWaiter, std::memory_order_relaxed); }

  /// Blocks until a NotifyAll after PrepareWait returned `key`, then
  /// unregisters.
  void Wait(Key key) VOS_EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      while (EpochLocked() == key) cv_.Wait(mu_);
    }
    CancelWait();
  }

  /// Wait with a deadline: true if notified, false if `deadline` passed
  /// first. Unregisters either way.
  bool WaitUntil(Key key, std::chrono::steady_clock::time_point deadline)
      VOS_EXCLUDES(mu_) {
    bool notified = true;
    {
      MutexLock lock(&mu_);
      while (notified && EpochLocked() == key) {
        notified = cv_.WaitUntil(mu_, deadline) == std::cv_status::no_timeout ||
                   EpochLocked() != key;
      }
    }
    CancelWait();
    return notified;
  }

  /// Wakes every registered waiter. One fence and one relaxed load when
  /// nobody waits.
  void NotifyAll() VOS_EXCLUDES(mu_) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if ((state_.load(std::memory_order_relaxed) & kWaiterMask) == 0) return;
    // Notified under mu_: a woken waiter may destroy this object as soon
    // as it returns, which it cannot do before mu_ is released.
    MutexLock lock(&mu_);
    state_.fetch_add(uint64_t{1} << kEpochShift, std::memory_order_relaxed);
    cv_.NotifyAll();
  }

 private:
  // state_ = epoch (high 32 bits) | registered waiters (low 32 bits). The
  // epoch only moves under mu_, so a waiter holding mu_ reads it stably.
  static constexpr int kEpochShift = 32;
  static constexpr uint64_t kWaiter = 1;
  static constexpr uint64_t kWaiterMask = (uint64_t{1} << kEpochShift) - 1;

  Key EpochLocked() const VOS_REQUIRES(mu_) {
    return static_cast<Key>(state_.load(std::memory_order_relaxed) >>
                            kEpochShift);
  }

  std::atomic<uint64_t> state_{0};
  Mutex mu_;
  CondVar cv_;
};

}  // namespace vos
