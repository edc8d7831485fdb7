// A relaxed-atomic event counter that copies by value.
//
// A struct of Counters is a component's live counter set and, copied, a
// snapshot of it: copying a Counter is one relaxed load, so a stats()
// accessor is `return stats_;` and a counter is declared exactly once, as a
// field. Relaxed ordering makes every Add() atomic and orders nothing else:
// a snapshot taken while other threads count is exact per counter but not
// across counters; at quiescence it is exact everywhere.
#ifndef SIMSUB_UTIL_COUNTER_H_
#define SIMSUB_UTIL_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace simsub::util {

class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other) {}
  Counter& operator=(const Counter& other) {
    value_.store(other, std::memory_order_relaxed);
    return *this;
  }

  /// Counts `n` more events (one by default).
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  /// The current count; a Counter reads wherever an int64_t does.
  operator int64_t() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

}  // namespace simsub::util

#endif  // SIMSUB_UTIL_COUNTER_H_
