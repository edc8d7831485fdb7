// Clang thread-safety annotations plus a statically checkable mutex wrapper.
//
// The concurrency surface (util/thread_pool, service/query_service, the
// engine's scan, the logging sink) declares its lock discipline with
// these macros: which mutex guards which member (SIMSUB_GUARDED_BY), which
// functions must/must not hold a lock (SIMSUB_REQUIRES / SIMSUB_EXCLUDES),
// and which functions acquire or release one (SIMSUB_ACQUIRE /
// SIMSUB_RELEASE). Under clang the declarations are enforced at compile
// time: the build carries -Wthread-safety -Werror=thread-safety (see the
// root CMakeLists), so touching a guarded member without its mutex is a
// build error, not a TSan roll of the interleaving dice. Under other
// compilers every macro expands to nothing and util::Mutex degrades to a
// plain std::mutex wrapper.
//
// Conventions:
//   * util::Mutex, never raw std::mutex, in annotated classes — the analysis
//     only tracks capability-annotated types.
//   * util::MutexLock for scoping, never std::lock_guard/std::unique_lock —
//     the standard guards are not SCOPED_CAPABILITY types.
//   * Condition waits use std::condition_variable_any directly on the Mutex
//     (it is BasicLockable); write the wait loop explicitly instead of
//     passing a predicate lambda — clang analyzes lambda bodies as separate
//     functions and would demand the lock inside the predicate.
//   * SIMSUB_NO_THREAD_SAFETY_ANALYSIS is the escape hatch of last resort;
//     every use must carry a comment proving the unlocked access safe. A
//     value built once and then read without a lock needs none: build it
//     under std::call_once (SimSubEngine's BuiltOnce).
#ifndef SIMSUB_UTIL_THREAD_ANNOTATIONS_H_
#define SIMSUB_UTIL_THREAD_ANNOTATIONS_H_

#include <mutex>

#if defined(__clang__)
#define SIMSUB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SIMSUB_THREAD_ANNOTATION(x)  // no-op off clang
#endif

/// Declares a type as a lockable capability ("mutex" in diagnostics).
#define SIMSUB_CAPABILITY(x) SIMSUB_THREAD_ANNOTATION(capability(x))
#define SIMSUB_LOCKABLE SIMSUB_CAPABILITY("mutex")

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#define SIMSUB_SCOPED_CAPABILITY SIMSUB_THREAD_ANNOTATION(scoped_lockable)

/// Member may only be accessed while holding the given mutex.
#define SIMSUB_GUARDED_BY(x) SIMSUB_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* may only be accessed holding the mutex.
#define SIMSUB_PT_GUARDED_BY(x) SIMSUB_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function requires the listed capabilities to be held by the caller.
#define SIMSUB_REQUIRES(...) \
  SIMSUB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function must NOT be called with the listed capabilities held (deadlock
/// guard for functions that take the lock themselves).
#define SIMSUB_EXCLUDES(...) \
  SIMSUB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function acquires / releases the listed capabilities (empty list = the
/// annotated object itself, the form the Mutex wrapper uses).
#define SIMSUB_ACQUIRE(...) \
  SIMSUB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SIMSUB_RELEASE(...) \
  SIMSUB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SIMSUB_TRY_ACQUIRE(...) \
  SIMSUB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function returns a reference to a guarded member without holding its
/// mutex (accessor pattern; the caller assumes the locking obligation).
#define SIMSUB_RETURN_CAPABILITY(x) SIMSUB_THREAD_ANNOTATION(lock_returned(x))

/// Suppresses the analysis for one function. Escape hatch of last resort;
/// always pair with a comment proving the access safe.
#define SIMSUB_NO_THREAD_SAFETY_ANALYSIS \
  SIMSUB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace simsub::util {

/// std::mutex wrapper the thread-safety analysis can track. Exposes both
/// Lock()/Unlock() (annotated-code spelling) and lock()/unlock()
/// (BasicLockable, so std::condition_variable_any and std::scoped_lock
/// accept it directly).
class SIMSUB_LOCKABLE Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() SIMSUB_ACQUIRE() { mu_.lock(); }
  void Unlock() SIMSUB_RELEASE() { mu_.unlock(); }
  bool TryLock() SIMSUB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable spellings (std::condition_variable_any::wait unlocks and
  // relocks through these; the analysis treats the wait call as opaque, so
  // the capability state is unchanged across it — which matches reality at
  // both edges of the call).
  void lock() SIMSUB_ACQUIRE() { mu_.lock(); }
  void unlock() SIMSUB_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII lock scope over util::Mutex, tracked by the analysis (the
/// std::lock_guard replacement for annotated code).
class SIMSUB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SIMSUB_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() SIMSUB_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

}  // namespace simsub::util

#endif  // SIMSUB_UTIL_THREAD_ANNOTATIONS_H_
