#ifndef EEB_COMMON_MUTEX_H_
#define EEB_COMMON_MUTEX_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace eeb {

// Capability-annotated wrapper around std::mutex (the LevelDB/Abseil
// idiom). libstdc++'s std::mutex carries no `capability` attribute, so
// Clang's thread-safety analysis cannot track it; this wrapper is what
// makes EEB_GUARDED_BY(mu_) provable. Runtime behavior is exactly a
// std::mutex — TSan sees the same lock, and the no-op annotation path
// compiles to identical code under GCC.
class EEB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() EEB_ACQUIRE() { mu_.lock(); }
  void Unlock() EEB_RELEASE() { mu_.unlock(); }
  bool TryLock() EEB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // Tells the analysis (not the runtime) that the mutex is held on entry;
  // use in helpers reached only from critical sections the analysis cannot
  // see through (e.g. type-erased callbacks).
  void AssertHeld() EEB_ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock for Mutex; the SCOPED_CAPABILITY attribute lets the analysis
// treat construction as acquire and destruction as release.
class EEB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) EEB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() EEB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Mutex for critical sections of a few hundred nanoseconds that every
// client thread takes many times per query (the LRU caches). A contended
// Lock spins on the lock word for a bounded time before it sleeps on it,
// so a waiter that arrives while the holder is mid-section takes the lock
// without a futex sleep and wake-up, which cost more than the section and
// turn a brief overlap into a convoy. A holder descheduled by the host
// still parks its waiters after the spin. Same annotations as Mutex.
class EEB_CAPABILITY("mutex") SpinMutex {
 public:
  SpinMutex() = default;
  SpinMutex(const SpinMutex&) = delete;
  SpinMutex& operator=(const SpinMutex&) = delete;

  void Lock() EEB_ACQUIRE() {
    for (int i = 0; i < kSpins; ++i) {
      uint32_t expected = kFree;
      if (state_.load(std::memory_order_relaxed) == kFree &&
          state_.compare_exchange_weak(expected, kLocked,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed)) {
        return;
      }
      CpuRelax();
    }
    // Park: mark the lock contended so Unlock wakes a sleeper (the
    // three-state futex mutex of Drepper, "Futexes Are Tricky").
    while (state_.exchange(kContended, std::memory_order_acquire) != kFree) {
      state_.wait(kContended, std::memory_order_relaxed);
    }
  }

  void Unlock() EEB_RELEASE() {
    if (state_.exchange(kFree, std::memory_order_release) == kContended) {
      state_.notify_one();
    }
  }

 private:
  static constexpr uint32_t kFree = 0, kLocked = 1, kContended = 2;
  // Pause latency varies by core (about 10 to 150 cycles), so this spins
  // for a few hundred nanoseconds to a few microseconds: at least the
  // length of the sections it guards.
  static constexpr int kSpins = 64;

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  std::atomic<uint32_t> state_{kFree};
};

// RAII lock for SpinMutex.
class EEB_SCOPED_CAPABILITY SpinMutexLock {
 public:
  explicit SpinMutexLock(SpinMutex& mu) EEB_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~SpinMutexLock() EEB_RELEASE() { mu_.Unlock(); }

  SpinMutexLock(const SpinMutexLock&) = delete;
  SpinMutexLock& operator=(const SpinMutexLock&) = delete;

 private:
  SpinMutex& mu_;
};

// Condition variable usable with eeb::Mutex.
//
// Wait takes the mutex as a parameter (not a constructor-bound member) so
// the EEB_REQUIRES(mu) expression syntactically matches the capability the
// caller actually holds — Clang substitutes parameter expressions, which
// it cannot do for a pointer stashed at construction time.
//
// Callers must use the analyzable shape
//
//   mu_.Lock();
//   while (!predicate()) cv_.Wait(mu_);
//   ...
//   mu_.Unlock();
//
// rather than std::condition_variable's lambda-predicate overloads: the
// analysis treats lambdas as separate unannotated functions, so a
// predicate reading guarded state inside `cv.wait(lock, pred)` would
// either warn or silently escape checking.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) EEB_REQUIRES(mu) {
    // adopt_lock: wrap the already-held native mutex for the wait, then
    // release() so the wrapper does not unlock it on scope exit — the
    // caller still owns the critical section when Wait returns.
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  template <class Clock, class Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      EEB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status;
  }

  template <class Rep, class Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& timeout)
      EEB_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace eeb

#endif  // EEB_COMMON_MUTEX_H_
