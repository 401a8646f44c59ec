// Clang thread-safety annotations and the annotated mutex wrappers every
// concurrent piece of libvos must use.
//
// The locking contracts of the ingest fabric (which mutex guards which
// field, which helpers require the lock, which paths must NOT hold it)
// were previously prose comments checked only probabilistically by the
// TSan CI legs. These macros turn them into compile-time facts: a clang
// build with -Wthread-safety -Werror=thread-safety (CMake option
// VOS_THREAD_SAFETY, CI job `static-analysis`) fails on any access to a
// VOS_GUARDED_BY field without its mutex, any call to a VOS_REQUIRES
// helper without the lock, and any acquisition that violates a declared
// VOS_EXCLUDES / VOS_ACQUIRED_AFTER order. Under GCC (and any compiler
// without the attributes) every macro expands to nothing and the
// wrappers are zero-cost forwarding shims over the std primitives.
//
// Usage rules (enforced by tools/lint_invariants.py):
//   - No raw std::mutex / std::lock_guard / std::unique_lock /
//     std::condition_variable anywhere in src/ or tools/ outside this
//     header — always vos::Mutex / vos::MutexLock / vos::CondVar, so
//     every lock in the tree is visible to the analysis.
//   - Cold-path blocking only: the wrappers add nothing over std, but
//     the lock-free hot paths (SPSC rings, kernel dispatch) stay
//     annotation-free by construction — they have no mutex to annotate.
//
// Reference: https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
// (the macro set mirrors the names used there and in Abseil, prefixed
// VOS_ so a grep finds every annotated contract in one pass).

#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define VOS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef VOS_THREAD_ANNOTATION
#define VOS_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// Declares a type that models a capability (a lock).
#define VOS_CAPABILITY(x) VOS_THREAD_ANNOTATION(capability(x))

/// Declares an RAII type that acquires a capability in its constructor
/// and releases it in its destructor.
#define VOS_SCOPED_CAPABILITY VOS_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read or written while holding `x`.
#define VOS_GUARDED_BY(x) VOS_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* is guarded by `x`.
#define VOS_PT_GUARDED_BY(x) VOS_THREAD_ANNOTATION(pt_guarded_by(x))

/// Lock-ordering declarations: this mutex must be acquired before/after
/// the named ones (checked under clang's -Wthread-safety-beta; always
/// valuable as greppable documentation of the deadlock-freedom argument).
#define VOS_ACQUIRED_BEFORE(...) \
  VOS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define VOS_ACQUIRED_AFTER(...) \
  VOS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function requires the capability held on entry (and does not release
/// it): the `*Locked` helper convention.
#define VOS_REQUIRES(...) \
  VOS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires / releases the capability (no arguments = `this`).
#define VOS_ACQUIRE(...) \
  VOS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define VOS_RELEASE(...) \
  VOS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns `result`.
#define VOS_TRY_ACQUIRE(result, ...) \
  VOS_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))

/// Function must NOT be called with the capability held (it acquires it
/// itself, or it takes locks that must never nest inside it).
#define VOS_EXCLUDES(...) VOS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime, to the analysis) that the capability is held.
#define VOS_ASSERT_CAPABILITY(x) \
  VOS_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define VOS_RETURN_CAPABILITY(x) VOS_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use must
/// carry a comment explaining the false positive it suppresses.
#define VOS_NO_THREAD_SAFETY_ANALYSIS \
  VOS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace vos {

/// std::mutex with its capability visible to the analysis. Exposes both
/// the Abseil-style Lock()/Unlock() spelling and the std BasicLockable
/// lowercase spelling so vos::CondVar (and std::scoped_lock, if ever
/// needed) can take it directly.
class VOS_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() VOS_ACQUIRE() { mu_.lock(); }
  void Unlock() VOS_RELEASE() { mu_.unlock(); }
  bool TryLock() VOS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable interface (same capability, lowercase spelling).
  void lock() VOS_ACQUIRE() { mu_.lock(); }
  void unlock() VOS_RELEASE() { mu_.unlock(); }
  bool try_lock() VOS_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock over a vos::Mutex — the std::lock_guard replacement. The
/// analysis treats the constructor as acquiring and the destructor as
/// releasing, so a guarded field accessed inside the scope type-checks.
class VOS_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) VOS_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() VOS_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

/// Condition variable that waits on a vos::Mutex directly
/// (condition_variable_any over the BasicLockable interface). Blocking is
/// cold-path only: the ingest fabric waits through EventCount
/// (common/event_count.h), which is built on this; the hot paths never
/// block. Wait* require the mutex held; the internal release/reacquire is
/// invisible to the analysis, which matches the caller-visible contract
/// (held on entry, held on return).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) VOS_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Predicate>
  void Wait(Mutex& mu, Predicate pred) VOS_REQUIRES(mu) {
    cv_.wait(mu, std::move(pred));
  }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      VOS_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace vos
